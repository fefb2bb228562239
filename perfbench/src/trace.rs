//! In-memory span recording around calls into the EMBSAN layers.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Spans are only appended while a pass runs; self
//! times are folded out of them after the pass, and the last traced pass
//! is written to disk when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span; times are seconds since the trace's
/// origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// A span recorder. A disabled recorder ignores every call, so the
/// untraced passes run the same code without recording anything.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.push(name, start, start);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// Records a closed child of the innermost open span that lasted
    /// `secs` and ended now (starting no earlier than its parent): a phase
    /// an opaque callee timed itself, such as the replay at the end of
    /// `measure_configuration`.
    pub fn record_tail(&mut self, name: &'static str, secs: f64) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.push(name, (end - secs).max(self.open_start()), end);
        self.open.pop();
    }

    fn open_start(&self) -> f64 {
        self.open.last().map_or(0.0, |&id| self.spans[id].start)
    }

    fn push(&mut self, name: &'static str, start: f64, end: f64) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start, end, parent });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Self time per span name: each span's duration minus the durations
    /// of its direct children, summed over spans of the same name. Spans
    /// recorded on one thread nest without overlapping, so the children
    /// cover exactly the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }
}

/// See [`Trace::self_times`].
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.end - span.start;
        }
    }
    let mut by_name = BTreeMap::new();
    for (span, secs) in spans.iter().zip(own) {
        *by_name.entry(span.name).or_insert(0.0) += secs;
    }
    by_name
}

/// Renders spans as JSON lines (`name`, `start`, `end`, `parent`).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}\n",
            span.name, span.start, span.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // pass [0, 10]
        //   exec [1, 5]
        //     reset [2, 3]
        //   commit [6, 8]
        //   exec [8, 9]
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("exec", 1.0, 5.0, Some(0)),
            span("reset", 2.0, 3.0, Some(1)),
            span("commit", 6.0, 8.0, Some(0)),
            span("exec", 8.0, 9.0, Some(0)),
        ];
        let times = self_times(&spans);
        assert_eq!(times["pass"], 10.0 - 4.0 - 2.0 - 1.0);
        assert_eq!(times["exec"], (4.0 - 1.0) + 1.0);
        assert_eq!(times["reset"], 1.0);
        assert_eq!(times["commit"], 2.0);
        // The parts add up to the whole.
        assert_eq!(times.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn recorder_nests_and_sums_to_root() {
        let mut trace = Trace::new(true);
        trace.enter("pass");
        let inner = trace.time("outer", || {
            std::hint::black_box((0..1000).sum::<u64>());
            7
        });
        trace.enter("outer");
        trace.time("inner", || ());
        trace.record_tail("tail", 0.0);
        trace.exit();
        trace.exit();
        assert_eq!(inner, 7);
        let spans = trace.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, Some(2));
        let total: f64 = trace.self_times().values().sum();
        let root = spans[0].end - spans[0].start;
        assert!((total - root).abs() < 1e-9, "{total} vs {root}");
    }

    #[test]
    fn record_tail_never_starts_before_its_parent() {
        let mut trace = Trace::new(true);
        trace.enter("window");
        trace.record_tail("replay", 1e9);
        trace.exit();
        let spans = trace.spans();
        assert_eq!(spans[1].start, spans[0].start);
        let window = self_times(spans)["window"];
        assert!((0.0..1e-3).contains(&window), "{window}");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::new(false);
        trace.enter("pass");
        assert_eq!(trace.time("exec", || 3), 3);
        trace.record_tail("tail", 1.0);
        trace.exit();
        assert!(trace.spans().is_empty());
        assert!(trace.self_times().is_empty());
    }
}
