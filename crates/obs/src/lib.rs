//! Observability layer for the EMBSAN stack: structured event tracing and
//! a typed metrics registry.
//!
//! The layer is threaded through emu → core → fuzz → cli and is designed
//! around two constraints:
//!
//! - **zero cost when disabled** — every subsystem holds a [`Tracer`]
//!   handle that is a single inlined `Option` check when tracing is off;
//! - **determinism** — events are tagged with the machine's
//!   lifetime-retired instruction clock plus a per-buffer sequence number,
//!   so a trace is a pure function of guest execution. The
//!   [`trace::TraceConfig::deterministic`] preset excludes the events that
//!   depend on translation-cache warmth (and therefore on worker schedule
//!   or kill/resume replay), which is what lets parallel campaigns merge
//!   per-iteration trace spans into a stream that is identical for every
//!   worker count.
//!
//! Exports: JSONL (`embsan-trace-v1`, one event per line) and Chrome
//! `trace_event` JSON for flame views; metric snapshots as
//! `embsan-metrics-v1` JSON with a deterministic/telemetry split. The
//! [`json`] module is the workspace's one JSON value, parser and escaper.

pub mod event;
pub mod json;
pub mod metrics;
pub mod trace;

pub use event::{AllocOp, Event, EventKind, ProbeKind};
pub use metrics::{
    Histogram, MetricClass, MetricEntry, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{
    jsonl_header, trace_to_chrome, trace_to_jsonl, MergedTrace, TraceConfig, TraceSpan, Tracer,
};
