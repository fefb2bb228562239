//! `embsan-serve`: a crash-tolerant campaign daemon.
//!
//! The fuzzing stack below this crate already survives being killed — a
//! supervised campaign journals every durable event and resumes from its
//! newest checkpoint bit-identically. This crate scales that guarantee
//! from one campaign to a *fleet*: a daemon that schedules many campaigns
//! across a bounded worker pool and stays correct when any piece of it
//! (a worker turn, a worker thread, or the daemon process itself) dies at
//! an arbitrary instant.
//!
//! - [`engine`] — the scheduler and supervision tree: fair-share slices,
//!   bounded retry with strikes, quarantine of crashing/wedging jobs,
//!   graceful degradation (parking, submission shedding), and restart
//!   recovery from the durable state directory;
//! - [`store`] — the multi-campaign findings store, deduplicating crash
//!   signatures across jobs of the same firmware;
//! - [`job`] — job specifications, resilience drills, and the append-only
//!   job manifest;
//! - [`protocol`] — the line-delimited JSON request/response wire format;
//! - [`daemon`] — the Unix-socket front-end (`embsan serve`) and the
//!   client helper used by `embsan submit` / `embsan jobs`.
//!
//! The engine's invariant, enforced by `tests/serve_resilience.rs`: at
//! idle, the daemon report and deterministic metrics snapshot are a pure
//! function of the submitted jobs — byte-identical across any
//! kill/restart schedule, with or without quarantined jobs in the mix.

pub mod daemon;
pub mod engine;
pub mod job;
pub mod protocol;
pub mod store;

#[cfg(unix)]
pub use daemon::{request, run_daemon, DaemonConfig};
pub use engine::{JobReport, ServeConfig, ServeEngine};
pub use job::{
    append_manifest, load_manifest, repair_manifest, Drill, JobPhase, JobSpec, MANIFEST,
};
pub use protocol::{parse_request, Request};
pub use store::{firmware_identity, FindingsStore, StoreFinding};
