//! Ring-buffered structured event trace with a deterministic clock.
//!
//! A [`Tracer`] is a cheap cloneable handle shared by every subsystem of
//! one session (machine, translation cache, sanitizer runtime). The
//! default handle is disabled and costs one `Option` check per potential
//! event; [`Tracer::new`] arms it with a [`TraceConfig`] that selects the
//! event kinds to keep and the ring capacity.
//!
//! ## Clock semantics
//!
//! Events are tagged with the machine's **lifetime-retired** instruction
//! clock, updated once per scheduling quantum (quantum boundaries are
//! deterministic, so the tag is a pure function of guest execution).
//! Events inside one quantum share a clock value and are totally ordered
//! by the buffer-local sequence number. [`Tracer::drain_rebased`] subtracts
//! an iteration-start clock mark and restarts the sequence counter, which
//! makes per-iteration trace spans independent of which worker (or which
//! resumed process) executed the iteration.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::event::{Event, EventKind};
use crate::json::escape;

/// Which event kinds a [`Tracer`] records, and how many it retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity: once full, the oldest events are dropped (counted).
    pub capacity: usize,
    /// Translation-cache events: block-translate, generation hit/evict,
    /// flush. These depend on cache warmth and are therefore
    /// schedule-dependent under the parallel engine and across
    /// kill/resume replays.
    pub cache: bool,
    /// Probe-fire events (mem/call/ret/hypercall/block dispatch).
    pub probes: bool,
    /// Shadow-memory check events.
    pub checks: bool,
    /// Allocator-intercept events.
    pub allocs: bool,
    /// Sanitizer report events (recorded before deduplication).
    pub reports: bool,
    /// Engine events: watchdog trips, fault injections, epoch merges.
    pub engine: bool,
    /// Interrupt-delivery events: raises, acknowledgements, deferred-call
    /// scheduling. Execution-derived (devices are clocked on retired
    /// instructions), so these stay on in the deterministic preset.
    pub irq: bool,
}

impl TraceConfig {
    /// Default ring capacity (bounds golden-trace file size).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Records every event kind. Only reproducible for single-session
    /// sequential runs, where cache warmth is itself deterministic.
    pub fn full() -> TraceConfig {
        TraceConfig {
            capacity: TraceConfig::DEFAULT_CAPACITY,
            cache: true,
            probes: true,
            checks: true,
            allocs: true,
            reports: true,
            engine: true,
            irq: true,
        }
    }

    /// Records only execution-derived events — the subset that is a pure
    /// function of (snapshot state, program), independent of translation
    /// cache warmth. This is the preset used for parallel merged traces
    /// and supervised kill/resume traces, where the same iteration may run
    /// on differently warmed sessions.
    pub fn deterministic() -> TraceConfig {
        TraceConfig { cache: false, ..TraceConfig::full() }
    }

    fn wants(&self, kind: &EventKind) -> bool {
        match kind {
            EventKind::BlockTranslate { .. }
            | EventKind::CacheGenerationHit { .. }
            | EventKind::CacheGenerationEvict { .. }
            | EventKind::CacheFlush => self.cache,
            EventKind::ProbeFire { .. } => self.probes,
            EventKind::ShadowCheck { .. } => self.checks,
            EventKind::AllocIntercept { .. } => self.allocs,
            EventKind::Report { .. } => self.reports,
            EventKind::WatchdogTrip { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::EpochMerge { .. }
            | EventKind::DegradedMode { .. }
            | EventKind::JobLifecycle { .. }
            | EventKind::RetryBackoff { .. } => self.engine,
            EventKind::IrqRaised { .. }
            | EventKind::IrqAcked { .. }
            | EventKind::DeferredCall { .. } => self.irq,
        }
    }
}

/// The ring buffer behind an enabled [`Tracer`].
#[derive(Debug)]
struct TraceBuffer {
    config: TraceConfig,
    events: VecDeque<Event>,
    clock: u64,
    seq: u64,
    dropped: u64,
}

/// Cheap cloneable handle to a (possibly absent) trace buffer.
///
/// Sessions are thread-affine, so the buffer is `Rc<RefCell<_>>`; parallel
/// workers each own an independent tracer and contribute per-iteration
/// spans that the scheduler merges in canonical iteration order.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceBuffer>>>,
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op behind one branch.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer recording the kinds selected by `config`.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuffer {
                config,
                events: VecDeque::with_capacity(config.capacity.clamp(1, 1 << 12)),
                clock: 0,
                seq: 0,
                dropped: 0,
            }))),
        }
    }

    /// Whether this handle points at a live buffer.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The armed configuration, if enabled.
    pub fn config(&self) -> Option<TraceConfig> {
        self.inner.as_ref().map(|b| b.borrow().config)
    }

    /// Updates the instruction clock used to tag subsequent events.
    #[inline]
    pub fn set_clock(&self, clock: u64) {
        if let Some(buffer) = &self.inner {
            buffer.borrow_mut().clock = clock;
        }
    }

    /// The clock value events are currently tagged with.
    pub fn clock(&self) -> u64 {
        self.inner.as_ref().map_or(0, |b| b.borrow().clock)
    }

    /// Records `kind` if enabled and selected by the configuration.
    ///
    /// Only the enabled test is inlined at the call site; with tracing off
    /// the event is never built, and nothing is called or dropped.
    #[inline(always)]
    pub fn record(&self, kind: EventKind) {
        match &self.inner {
            Some(buffer) => record_into(buffer, kind),
            // Dropping `kind` would call the enum's out-of-line drop glue
            // even for the plain-data events of the hot path; only the
            // variants that own a `String` need it.
            None if owns_heap(&kind) => drop(kind),
            None => std::mem::forget(kind),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |b| b.borrow().events.len())
    }

    /// Whether the buffer is empty (or the tracer disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |b| b.borrow().dropped)
    }

    /// Drains all buffered events, restarting the sequence counter.
    pub fn drain(&self) -> Vec<Event> {
        self.drain_rebased(0)
    }

    /// Drains all buffered events, subtracting `clock_mark` from every
    /// clock tag (saturating) and restarting the sequence counter. Used to
    /// produce iteration-relative spans whose tags do not depend on how
    /// much the session executed before the iteration started.
    pub fn drain_rebased(&self, clock_mark: u64) -> Vec<Event> {
        let Some(buffer) = &self.inner else {
            return Vec::new();
        };
        let mut buffer = buffer.borrow_mut();
        buffer.seq = 0;
        buffer
            .events
            .drain(..)
            .map(|mut event| {
                event.clock = event.clock.saturating_sub(clock_mark);
                event
            })
            .collect()
    }
}

/// Whether dropping `kind` frees memory. Exhaustive, so a new variant
/// must say.
#[inline(always)]
fn owns_heap(kind: &EventKind) -> bool {
    match kind {
        EventKind::Report { .. } | EventKind::DegradedMode { .. } => true,
        EventKind::BlockTranslate { .. }
        | EventKind::CacheGenerationHit { .. }
        | EventKind::CacheGenerationEvict { .. }
        | EventKind::CacheFlush
        | EventKind::ProbeFire { .. }
        | EventKind::ShadowCheck { .. }
        | EventKind::AllocIntercept { .. }
        | EventKind::WatchdogTrip { .. }
        | EventKind::FaultInjected { .. }
        | EventKind::EpochMerge { .. }
        | EventKind::JobLifecycle { .. }
        | EventKind::RetryBackoff { .. }
        | EventKind::IrqRaised { .. }
        | EventKind::IrqAcked { .. }
        | EventKind::DeferredCall { .. } => false,
    }
}

/// The body of [`Tracer::record`], kept out of line (and off the hot path)
/// so the disabled test is all a call site inlines.
#[cold]
#[inline(never)]
fn record_into(buffer: &RefCell<TraceBuffer>, kind: EventKind) {
    let mut buffer = buffer.borrow_mut();
    if !buffer.config.wants(&kind) {
        return;
    }
    if buffer.events.len() >= buffer.config.capacity {
        buffer.events.pop_front();
        buffer.dropped += 1;
    }
    let event = Event { clock: buffer.clock, seq: buffer.seq, kind };
    buffer.seq += 1;
    buffer.events.push_back(event);
}

/// One iteration's worth of trace events, tagged with the iteration index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSpan {
    /// Fuzz-iteration index (campaign-global, scheduler-independent).
    pub iter: u64,
    /// Iteration-relative events, in recording order.
    pub events: Vec<Event>,
}

/// A campaign trace assembled from per-iteration spans in canonical
/// iteration order (plus scheduler events such as epoch merges).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergedTrace {
    /// Spans in canonical order.
    pub spans: Vec<TraceSpan>,
}

impl MergedTrace {
    /// Appends a span (callers are responsible for canonical ordering).
    pub fn push_span(&mut self, span: TraceSpan) {
        self.spans.push(span);
    }

    /// Total number of events across all spans.
    pub fn event_count(&self) -> usize {
        self.spans.iter().map(|s| s.events.len()).sum()
    }

    /// Serializes as `embsan-trace-v1` JSONL: a header line carrying
    /// `meta` key/value pairs, then one line per event with its owning
    /// iteration.
    pub fn to_jsonl(&self, meta: &[(&str, &str)]) -> String {
        let mut out = jsonl_header(meta);
        for span in &self.spans {
            for event in &span.events {
                out.push_str(&event.to_jsonl(Some(span.iter)));
                out.push('\n');
            }
        }
        out
    }
}

/// The `embsan-trace-v1` JSONL header line for `meta` key/value pairs.
pub fn jsonl_header(meta: &[(&str, &str)]) -> String {
    let mut out = String::from("{\"format\":\"embsan-trace-v1\"");
    for (key, value) in meta {
        out.push_str(&format!(",\"{}\":\"{}\"", escape(key), escape(value)));
    }
    out.push_str("}\n");
    out
}

/// Serializes a flat event stream as `embsan-trace-v1` JSONL.
pub fn trace_to_jsonl(events: &[Event], meta: &[(&str, &str)]) -> String {
    let mut out = jsonl_header(meta);
    for event in events {
        out.push_str(&event.to_jsonl(None));
        out.push('\n');
    }
    out
}

/// Serializes a flat event stream as a Chrome `trace_event` JSON document
/// (load via `chrome://tracing` or Perfetto for a flame view).
pub fn trace_to_chrome(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (index, event) in events.iter().enumerate() {
        out.push_str(&event.to_chrome(None));
        if index + 1 != events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProbeKind;
    use crate::json;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        tracer.set_clock(5);
        tracer.record(EventKind::CacheFlush);
        assert!(!tracer.is_enabled());
        assert!(tracer.is_empty());
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn config_filters_kinds() {
        let tracer = Tracer::new(TraceConfig::deterministic());
        tracer.record(EventKind::BlockTranslate { pc: 4 });
        tracer.record(EventKind::ProbeFire { probe: ProbeKind::Mem, pc: 8 });
        let events = tracer.drain();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::ProbeFire { .. }));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let config = TraceConfig { capacity: 2, ..TraceConfig::full() };
        let tracer = Tracer::new(config);
        for pc in 0..5u32 {
            tracer.record(EventKind::BlockTranslate { pc });
        }
        assert_eq!(tracer.dropped(), 3);
        let events = tracer.drain();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].kind, EventKind::BlockTranslate { pc: 3 }));
    }

    #[test]
    fn drain_rebases_clock_and_restarts_seq() {
        let tracer = Tracer::new(TraceConfig::full());
        tracer.set_clock(1_000);
        tracer.record(EventKind::CacheFlush);
        let first = tracer.drain_rebased(1_000);
        assert_eq!((first[0].clock, first[0].seq), (0, 0));

        tracer.set_clock(2_500);
        tracer.record(EventKind::CacheFlush);
        let second = tracer.drain_rebased(2_000);
        assert_eq!((second[0].clock, second[0].seq), (500, 0), "seq restarts per drain");
    }

    #[test]
    fn clones_share_one_buffer() {
        let tracer = Tracer::new(TraceConfig::full());
        let clone = tracer.clone();
        clone.set_clock(7);
        clone.record(EventKind::CacheFlush);
        assert_eq!(tracer.len(), 1);
        assert_eq!(tracer.drain()[0].clock, 7);
    }

    #[test]
    fn merged_trace_jsonl_has_header_and_iter_tags() {
        let mut trace = MergedTrace::default();
        trace.push_span(TraceSpan {
            iter: 4,
            events: vec![Event { clock: 1, seq: 0, kind: EventKind::CacheFlush }],
        });
        let jsonl = trace.to_jsonl(&[("firmware", "demo")]);
        let mut lines = jsonl.lines();
        assert_eq!(lines.next().unwrap(), "{\"format\":\"embsan-trace-v1\",\"firmware\":\"demo\"}");
        assert!(lines.next().unwrap().contains("\"iter\":4"));
    }

    #[test]
    fn header_meta_values_are_escaped() {
        let path = "dir\"x\\y\nz.evfw";
        let header = jsonl_header(&[("image", path)]);
        let value = json::parse(header.trim_end()).unwrap();
        assert_eq!(value.get("image").and_then(json::Value::as_str), Some(path));
    }
}
