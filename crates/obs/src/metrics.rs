//! Typed metrics registry with deterministic snapshots.
//!
//! Subsystems keep their existing cheap counters (`CacheStats`,
//! `InjectionStats`, `HealthCounters`, fuzzer stats); adapters copy them
//! into a [`MetricsRegistry`] keyed by `(subsystem, name)` and snapshot it
//! into a sorted, stable [`MetricsSnapshot`].
//!
//! Every entry carries a [`MetricClass`]:
//!
//! - [`MetricClass::Deterministic`] — a pure function of (firmware, seed,
//!   iteration count); identical across repeated runs *and* across worker
//!   counts. This subset is what `--metrics-out` serializes, which is what
//!   makes the emitted JSON byte-identical for every worker count.
//! - [`MetricClass::Telemetry`] — scheduling- or wall-clock-dependent
//!   (per-worker cache warmth, wall times, worker counts); surfaced on the
//!   console and via [`MetricsSnapshot::to_json`] with telemetry included.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::escape;

/// Determinism class of a metric value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Identical across repeated runs at a fixed seed, for every worker
    /// count.
    Deterministic,
    /// Depends on scheduling, wall time or configuration shape.
    Telemetry,
}

impl MetricClass {
    /// Stable serialized label.
    pub fn label(self) -> &'static str {
        match self {
            MetricClass::Deterministic => "deterministic",
            MetricClass::Telemetry => "telemetry",
        }
    }
}

/// A fixed-shape log2-bucketed histogram (bucket `i` counts observations
/// `v` with `floor(log2(v)) == i`; bucket 0 also counts `v == 0`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub total: u64,
    /// Log2 buckets (`buckets[i]` counts values in `[2^i, 2^(i+1))`).
    pub buckets: [u64; 32],
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.total += value;
        let bucket = if value == 0 { 0 } else { 63 - u64::leading_zeros(value) as usize };
        self.buckets[bucket.min(31)] += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.total += other.total;
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

/// A typed metric value.
// Histograms are 272 bytes against the counters' 8; metrics live in a
// BTreeMap, not a hot array, so boxing would cost more than it saves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically accumulated count.
    Counter(u64),
    /// A point-in-time signed level.
    Gauge(i64),
    /// A distribution.
    Histogram(Histogram),
}

impl MetricValue {
    /// Stable serialized kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One snapshot entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Owning subsystem (e.g. `translator`, `scheduler`, `supervisor`).
    pub subsystem: String,
    /// Metric name within the subsystem.
    pub name: String,
    /// Determinism class.
    pub class: MetricClass,
    /// The value.
    pub value: MetricValue,
}

/// A registry of typed metrics keyed by `(subsystem, name)`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: BTreeMap<(String, String), (MetricClass, MetricValue)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Sets a counter.
    pub fn counter(&mut self, subsystem: &str, name: &str, class: MetricClass, value: u64) {
        self.set(subsystem, name, class, MetricValue::Counter(value));
    }

    /// Sets a gauge.
    pub fn gauge(&mut self, subsystem: &str, name: &str, class: MetricClass, value: i64) {
        self.set(subsystem, name, class, MetricValue::Gauge(value));
    }

    /// Sets a histogram.
    pub fn histogram(&mut self, subsystem: &str, name: &str, class: MetricClass, value: Histogram) {
        self.set(subsystem, name, class, MetricValue::Histogram(value));
    }

    /// Sets an arbitrary value, replacing any previous entry for the key.
    pub fn set(&mut self, subsystem: &str, name: &str, class: MetricClass, value: MetricValue) {
        self.entries.insert((subsystem.to_string(), name.to_string()), (class, value));
    }

    /// Snapshot in canonical `(subsystem, name)` order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .map(|((subsystem, name), (class, value))| MetricEntry {
                    subsystem: subsystem.clone(),
                    name: name.clone(),
                    class: *class,
                    value: value.clone(),
                })
                .collect(),
        }
    }
}

/// A sorted, stable snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Entries sorted by `(subsystem, name)`.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// The subset of entries that are deterministic.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|e| e.class == MetricClass::Deterministic)
                .cloned()
                .collect(),
        }
    }

    /// Looks up a counter/gauge value as `i64`.
    pub fn value(&self, subsystem: &str, name: &str) -> Option<i64> {
        self.entries.iter().find(|e| e.subsystem == subsystem && e.name == name).and_then(|e| {
            match &e.value {
                MetricValue::Counter(v) => i64::try_from(*v).ok(),
                MetricValue::Gauge(v) => Some(*v),
                MetricValue::Histogram(_) => None,
            }
        })
    }

    /// Serializes as `embsan-metrics-v1` JSON. With
    /// `include_telemetry = false` only [`MetricClass::Deterministic`]
    /// entries are emitted, making the output byte-identical across
    /// repeated runs at a fixed seed for every worker count.
    pub fn to_json(&self, include_telemetry: bool) -> String {
        let mut out = String::from("{\n  \"format\": \"embsan-metrics-v1\",\n  \"metrics\": [\n");
        let emitted: Vec<&MetricEntry> = self
            .entries
            .iter()
            .filter(|e| include_telemetry || e.class == MetricClass::Deterministic)
            .collect();
        for (index, entry) in emitted.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"subsystem\": \"{}\", \"name\": \"{}\", \"class\": \"{}\", \
                 \"kind\": \"{}\"",
                escape(&entry.subsystem),
                escape(&entry.name),
                entry.class.label(),
                entry.value.kind(),
            );
            match &entry.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ", \"value\": {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, ", \"value\": {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(out, ", \"count\": {}, \"total\": {}", h.count, h.total);
                    // Trailing zero buckets are elided so the shape stays
                    // readable; the bucket index is implicit (log2).
                    let last = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                    out.push_str(", \"buckets\": [");
                    for (i, bucket) in h.buckets[..last].iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{bucket}");
                    }
                    out.push(']');
                }
            }
            out.push('}');
            if index + 1 != emitted.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.total, 1034);
        assert_eq!(h.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(h.buckets[1], 2, "2 and 3");
        assert_eq!(h.buckets[2], 1, "4");
        assert_eq!(h.buckets[10], 1, "1024");
    }

    #[test]
    fn snapshot_is_sorted_and_filterable() {
        let mut reg = MetricsRegistry::new();
        reg.counter("zeta", "b", MetricClass::Telemetry, 9);
        reg.counter("alpha", "a", MetricClass::Deterministic, 1);
        reg.gauge("alpha", "z", MetricClass::Deterministic, -3);
        let snap = reg.snapshot();
        assert_eq!(snap.entries[0].subsystem, "alpha");
        assert_eq!(snap.deterministic().entries.len(), 2);
        assert_eq!(snap.value("alpha", "z"), Some(-3));
        assert_eq!(snap.value("zeta", "b"), Some(9));
    }

    #[test]
    fn json_excludes_telemetry_by_request() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a", "det", MetricClass::Deterministic, 1);
        reg.counter("a", "tel", MetricClass::Telemetry, 2);
        let snap = reg.snapshot();
        let deterministic = snap.to_json(false);
        assert!(deterministic.contains("\"det\""));
        assert!(!deterministic.contains("\"tel\""));
        assert!(snap.to_json(true).contains("\"tel\""));
        assert!(deterministic.starts_with("{\n  \"format\": \"embsan-metrics-v1\""));
    }

    #[test]
    fn histogram_json_elides_trailing_zero_buckets() {
        let mut reg = MetricsRegistry::new();
        let mut h = Histogram::new();
        h.observe(5);
        reg.histogram("s", "h", MetricClass::Deterministic, h);
        let json = reg.snapshot().to_json(false);
        assert!(json.contains("\"buckets\": [0, 0, 1]"), "{json}");
    }
}
