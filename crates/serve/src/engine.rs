//! The crash-tolerant campaign engine: scheduler + supervision tree.
//!
//! One [`ServeEngine`] owns a bounded worker pool and a durable job queue.
//! Each job is one supervised campaign; the engine runs jobs in
//! **fair-share slices** (a worker executes `slice` iterations of one job,
//! journals a checkpoint, and yields) so many campaigns make even progress
//! through a small pool. All durable state lives in the state directory —
//! the job manifest plus one supervised journal per job — which makes the
//! whole tree restartable: killing the daemon (or any worker) at any
//! instant and reopening the state directory resumes every campaign from
//! its newest checkpoint, bit-identically to a run that was never killed.
//!
//! Failure containment follows a supervision-tree shape:
//!
//! - an iteration that wedges the guest is handled *inside* the worker by
//!   the per-campaign supervisor (watchdog + input quarantine);
//! - a worker turn that panics or exceeds the turn timeout is handled by
//!   the engine: the job takes a strike and is retried from its journal,
//!   and a wedged worker thread is replaced outright;
//! - a job that keeps striking is **quarantined**: never scheduled again,
//!   its journal kept for post-mortem, its findings withdrawn from the
//!   shared store;
//! - under queue pressure the engine degrades gracefully: the
//!   lowest-priority runnable jobs are *parked* (not dropped — their
//!   journaled state is untouched) until load falls, and submissions
//!   beyond the queue bound are rejected with a structured error.
//!
//! Scheduling is intentionally irrelevant to results: jobs own disjoint
//! sessions and journals, so the final report is a pure function of the
//! per-job journals and is byte-identical across any kill/restart
//! schedule.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use embsan_core::session::{BaseImage, Session};
use embsan_fuzz::campaign::{paper_strategy, prepare_session, share_base};
use embsan_fuzz::{
    descriptions_for, retry_io, run_supervised_span, CampaignConfig, Dictionary, FuzzerStats,
    Journal, ResumePoint, RetryPolicy, StartInfo, SupervisorConfig,
};
use embsan_guestos::{firmware_by_name, FirmwareSpec};
use embsan_obs::json::Value;
use embsan_obs::{
    Event, EventKind, MergedTrace, MetricClass, MetricsRegistry, MetricsSnapshot, TraceConfig,
    TraceSpan, Tracer,
};

use crate::job::{append_manifest, load_manifest, repair_manifest, Drill, JobPhase, JobSpec};
use crate::store::{firmware_identity, FindingsStore, StoreFinding};

/// Engine policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Durable state directory: job manifest, per-job journals, quarantine
    /// markers.
    pub state_dir: PathBuf,
    /// Worker threads (jobs are pinned to workers by `id % workers`).
    pub workers: usize,
    /// Fair-share slice: iterations per worker turn, and the journal
    /// checkpoint cadence (every slice boundary is durable).
    pub slice: u64,
    /// Graceful-degradation bound: at most this many jobs are runnable at
    /// once; the rest are parked lowest-priority-first.
    pub max_active: usize,
    /// Submission bound: `submit` rejects once this many jobs are
    /// non-terminal.
    pub max_queued: usize,
    /// Strikes (panicked or wedged turns) before a job is quarantined.
    pub max_strikes: u32,
    /// Wall-clock bound on one worker turn; a turn exceeding it counts as
    /// wedged and the worker thread is replaced.
    pub turn_timeout_ms: u64,
    /// Boot budget per campaign session, in instructions.
    pub ready_budget: u64,
    /// Per-program budget, in instructions.
    pub program_budget: u64,
    /// Record per-job deterministic session traces
    /// ([`TraceConfig::deterministic`] preset).
    pub trace: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let campaign = CampaignConfig::default();
        ServeConfig {
            state_dir: PathBuf::from("embsan-serve-state"),
            workers: 2,
            slice: 50,
            max_active: 4,
            max_queued: 32,
            max_strikes: 2,
            turn_timeout_ms: 120_000,
            ready_budget: campaign.ready_budget,
            program_budget: campaign.program_budget,
            trace: false,
        }
    }
}

/// One job's scheduler-side state.
#[derive(Debug, Clone)]
struct JobState {
    spec: JobSpec,
    phase: JobPhase,
    /// Fair-share bookkeeping: completed turns.
    turns: u64,
    /// Failed turns (panic / wedge / structural error).
    strikes: u32,
}

/// A worker assignment: run one fair-share turn of `spec`.
struct Assignment {
    token: u64,
    spec: JobSpec,
}

/// What a worker turn produced.
enum Payload {
    /// The slice ran; the campaign is not finished yet.
    Progress(TurnData),
    /// The campaign ran to completion this turn.
    Finished(TurnData),
    /// The turn panicked (the worker survived via `catch_unwind`).
    Panicked,
    /// A structural error (bad firmware, corrupt journal, campaign error).
    Failed(String),
}

/// Result data common to successful turns.
#[derive(Default)]
struct TurnData {
    /// *Cumulative* store findings for the job (the store dedupes, so
    /// resending the full set every turn is idempotent and makes restart
    /// recovery trivial).
    findings: Vec<StoreFinding>,
    /// This slice's deterministic trace spans (empty unless tracing).
    spans: Vec<TraceSpan>,
    /// Transient journal-IO retries absorbed this turn (telemetry).
    retries: u64,
}

struct TurnResult {
    token: u64,
    job: u64,
    payload: Payload,
}

struct Inflight {
    worker: usize,
    job: u64,
    deadline: Instant,
}

struct WorkerHandle {
    sender: Option<Sender<Assignment>>,
    thread: Option<JoinHandle<()>>,
}

/// Deterministic per-job report data, derived from the job's journal.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// Iterations covered by the newest durable checkpoint.
    pub iterations: u64,
    /// Guest executions.
    pub execs: u64,
    /// Corpus entries.
    pub corpus: usize,
    /// Nonzero coverage buckets.
    pub coverage: usize,
    /// Deduplicated findings.
    pub findings: usize,
}

/// The campaign daemon engine. See the module docs for the design.
pub struct ServeEngine {
    config: ServeConfig,
    jobs: BTreeMap<u64, JobState>,
    next_id: u64,
    store: FindingsStore,
    tracer: Tracer,
    workers: Vec<WorkerHandle>,
    result_rx: Receiver<TurnResult>,
    result_tx: Sender<TurnResult>,
    inflight: BTreeMap<u64, Inflight>,
    next_token: u64,
    job_traces: BTreeMap<u64, MergedTrace>,
    // Telemetry counters (host-timing dependent; never in deterministic
    // snapshots).
    turns: u64,
    journal_retries: u64,
    manifest_retries: u64,
    workers_replaced: u64,
    park_events: u64,
    /// One ready-point base image per firmware identity, shared by every
    /// job and worker (including replacement workers): N concurrent
    /// campaigns of the same firmware cost one RAM + sanitizer-plane image
    /// plus per-job copy-on-write overlays.
    bases: BaseCache,
}

/// Shared per-firmware base image slots ([`share_base`]), keyed by
/// [`firmware_identity`].
type BaseCache = Arc<Mutex<HashMap<u64, Option<Arc<BaseImage>>>>>;

impl ServeEngine {
    /// Opens (or creates) the daemon state directory, recovers every job
    /// recorded in the manifest, and starts the worker pool.
    ///
    /// Recovery is journal-driven: a job whose journal carries an `End`
    /// record is `Completed` (its findings re-enter the store from the
    /// final checkpoint); a job with a quarantine marker stays
    /// `Quarantined`; everything else is re-queued and resumes from its
    /// newest checkpoint on its first turn.
    ///
    /// # Errors
    ///
    /// Filesystem failures and structurally corrupt state (manifest or
    /// journal corruption that is not a torn tail).
    pub fn open(config: ServeConfig) -> Result<ServeEngine, String> {
        let config = ServeConfig {
            workers: config.workers.max(1),
            slice: config.slice.max(1),
            max_active: config.max_active.max(1),
            ..config
        };
        std::fs::create_dir_all(&config.state_dir)
            .map_err(|e| format!("state dir {}: {e}", config.state_dir.display()))?;
        repair_manifest(&config.state_dir).map_err(|e| format!("manifest repair: {e}"))?;
        let specs = load_manifest(&config.state_dir)?;
        let (result_tx, result_rx) = channel();
        let mut engine = ServeEngine {
            jobs: BTreeMap::new(),
            next_id: 0,
            store: FindingsStore::new(),
            tracer: Tracer::new(TraceConfig { capacity: 4096, ..TraceConfig::full() }),
            workers: Vec::new(),
            result_rx,
            result_tx,
            inflight: BTreeMap::new(),
            next_token: 0,
            job_traces: BTreeMap::new(),
            turns: 0,
            journal_retries: 0,
            manifest_retries: 0,
            workers_replaced: 0,
            park_events: 0,
            bases: Arc::new(Mutex::new(HashMap::new())),
            config,
        };
        for index in 0..engine.config.workers {
            let worker = spawn_worker(
                index,
                engine.config.clone(),
                engine.result_tx.clone(),
                Arc::clone(&engine.bases),
            );
            engine.workers.push(worker);
        }
        for spec in specs {
            engine.next_id = engine.next_id.max(spec.id + 1);
            engine.recover_job(spec)?;
        }
        Ok(engine)
    }

    fn recover_job(&mut self, spec: JobSpec) -> Result<(), String> {
        let id = spec.id;
        let phase = if quarantine_marker(&self.config.state_dir, id).exists() {
            JobPhase::Quarantined
        } else {
            let path = spec.journal_path(&self.config.state_dir);
            match path.exists() {
                false => JobPhase::Queued,
                true => {
                    let loaded =
                        Journal::load(&path).map_err(|e| format!("job {id} journal: {e}"))?;
                    if loaded.ended() {
                        // Re-feed the store from the final checkpoint: the
                        // completed campaign's full finding set.
                        if let Some(cp) = loaded.last_checkpoint() {
                            let firmware = firmware_identity(&spec.firmware);
                            for finding in &cp.fuzzer.findings {
                                self.store.record(
                                    firmware,
                                    id,
                                    StoreFinding::from_report(&finding.report),
                                );
                            }
                        }
                        JobPhase::Completed
                    } else {
                        JobPhase::Queued
                    }
                }
            }
        };
        self.tracer.record(EventKind::JobLifecycle { job: id, phase: phase.name() });
        self.jobs.insert(id, JobState { spec, phase, turns: 0, strikes: 0 });
        Ok(())
    }

    /// Submits a campaign; returns the job id. The manifest append is
    /// durable before the id is handed back, so an acknowledged job
    /// survives any later kill.
    ///
    /// # Errors
    ///
    /// Unknown firmware, zero iterations, a full queue (graceful
    /// degradation: the daemon sheds new load, never journaled state), or
    /// a manifest write failure.
    pub fn submit(
        &mut self,
        firmware: &str,
        iterations: u64,
        seed: u64,
        priority: u8,
        drill: Option<Drill>,
    ) -> Result<u64, String> {
        firmware_by_name(firmware).ok_or_else(|| format!("unknown firmware `{firmware}`"))?;
        if iterations == 0 {
            return Err("iterations must be positive".to_string());
        }
        let pending = self.jobs.values().filter(|j| !j.phase.is_terminal()).count();
        if pending >= self.config.max_queued {
            self.tracer.record(EventKind::DegradedMode {
                component: "daemon",
                detail: format!("queue full ({pending} pending); rejecting submission"),
            });
            return Err(format!(
                "queue full: {pending} jobs pending (max {})",
                self.config.max_queued
            ));
        }
        let id = self.next_id;
        let spec =
            JobSpec { id, firmware: firmware.to_string(), iterations, seed, priority, drill };
        let retries = append_manifest(&self.config.state_dir, &spec, RetryPolicy::default())
            .map_err(|e| format!("manifest append: {e}"))?;
        if retries > 0 {
            self.manifest_retries += u64::from(retries);
            self.tracer.record(EventKind::RetryBackoff { op: "manifest-append", attempt: retries });
        }
        self.next_id += 1;
        self.tracer.record(EventKind::JobLifecycle { job: id, phase: "queued" });
        self.jobs.insert(id, JobState { spec, phase: JobPhase::Queued, turns: 0, strikes: 0 });
        Ok(id)
    }

    /// One scheduling round: refresh parking, fill free workers, then wait
    /// for (and process) one turn result or turn timeout. Returns whether
    /// any job is still non-terminal.
    pub fn step(&mut self) -> bool {
        if !self.has_pending() && self.inflight.is_empty() {
            return false;
        }
        self.refresh_parking();
        self.dispatch();
        if !self.inflight.is_empty() {
            self.await_one();
        }
        self.has_pending() || !self.inflight.is_empty()
    }

    /// Runs until every job is terminal.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Processes at most `turns` turn results, then returns (the "kill
    /// point" control for resilience tests: stop consuming after k turns,
    /// drop the engine, reopen the state directory).
    pub fn run_turns(&mut self, turns: u64) -> u64 {
        let start = self.turns;
        while self.turns - start < turns && self.step() {}
        self.turns - start
    }

    /// Stops the engine: drains in-flight turns and joins the pool.
    /// Identical to dropping, but explicit at call sites.
    pub fn shutdown(self) {}

    fn has_pending(&self) -> bool {
        self.jobs.values().any(|j| !j.phase.is_terminal())
    }

    /// Graceful degradation: rank runnable jobs by (priority desc, id asc)
    /// and park everything past `max_active`. Parking is reversible and
    /// touches no durable state.
    fn refresh_parking(&mut self) {
        let mut ids: Vec<u64> =
            self.jobs.iter().filter(|(_, j)| !j.phase.is_terminal()).map(|(id, _)| *id).collect();
        ids.sort_by_key(|id| (std::cmp::Reverse(self.jobs[id].spec.priority), *id));
        for (rank, id) in ids.iter().enumerate() {
            let parked = rank >= self.config.max_active;
            let job = self.jobs.get_mut(id).expect("ranked job exists");
            match (job.phase, parked) {
                (JobPhase::Queued, true) => {
                    job.phase = JobPhase::Parked;
                    self.park_events += 1;
                    self.tracer.record(EventKind::DegradedMode {
                        component: "scheduler",
                        detail: format!("parking job {id} (rank {rank} over active bound)"),
                    });
                    self.tracer.record(EventKind::JobLifecycle { job: *id, phase: "parked" });
                }
                (JobPhase::Parked, false) => {
                    job.phase = JobPhase::Queued;
                    self.tracer.record(EventKind::JobLifecycle { job: *id, phase: "queued" });
                }
                _ => {}
            }
        }
    }

    /// Fills every free worker with its fairest pinned job: fewest turns
    /// first, then highest priority, then lowest id.
    fn dispatch(&mut self) {
        for index in 0..self.workers.len() {
            if self.inflight.values().any(|i| i.worker == index) {
                continue;
            }
            let candidate = self
                .jobs
                .iter()
                .filter(|(id, j)| {
                    j.phase == JobPhase::Queued && (**id as usize) % self.config.workers == index
                })
                .min_by_key(|(id, j)| (j.turns, std::cmp::Reverse(j.spec.priority), **id))
                .map(|(id, j)| (*id, j.spec.clone()));
            let Some((id, spec)) = candidate else { continue };
            let token = self.next_token;
            self.next_token += 1;
            let job = self.jobs.get_mut(&id).expect("candidate exists");
            job.phase = JobPhase::Running;
            self.tracer.record(EventKind::JobLifecycle { job: id, phase: "running" });
            let deadline =
                Instant::now() + Duration::from_millis(self.config.turn_timeout_ms.max(1));
            self.inflight.insert(token, Inflight { worker: index, job: id, deadline });
            let sender = self.workers[index].sender.as_ref().expect("live worker has a sender");
            if sender.send(Assignment { token, spec }).is_err() {
                // The worker died outside a turn (should not happen); treat
                // like a wedge so the job strikes and the pool self-heals.
                self.inflight.remove(&token);
                self.replace_worker(index);
                self.strike(id, "worker channel closed");
            }
        }
    }

    /// Blocks until one in-flight turn finishes or times out, and
    /// processes it.
    fn await_one(&mut self) {
        loop {
            let now = Instant::now();
            let Some(earliest) = self.inflight.values().map(|i| i.deadline).min() else {
                return;
            };
            match self.result_rx.recv_timeout(earliest.saturating_duration_since(now)) {
                Ok(result) => {
                    let Some(inflight) = self.inflight.remove(&result.token) else {
                        // Stale result from a replaced (wedged) worker whose
                        // turn already struck out; its journal writes are
                        // still valid, its verdict is not.
                        continue;
                    };
                    debug_assert_eq!(inflight.job, result.job);
                    self.process(result);
                    return;
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    let overdue: Vec<u64> = self
                        .inflight
                        .iter()
                        .filter(|(_, i)| i.deadline <= now)
                        .map(|(token, _)| *token)
                        .collect();
                    if overdue.is_empty() {
                        continue;
                    }
                    for token in overdue {
                        self.handle_wedge(token);
                    }
                    return;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("engine holds a result sender; channel cannot close")
                }
            }
        }
    }

    fn process(&mut self, result: TurnResult) {
        self.turns += 1;
        let id = result.job;
        match result.payload {
            Payload::Progress(data) => {
                self.absorb_turn(id, data);
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.turns += 1;
                    job.phase = JobPhase::Queued;
                }
            }
            Payload::Finished(data) => {
                self.absorb_turn(id, data);
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.turns += 1;
                    job.phase = JobPhase::Completed;
                }
                self.tracer.record(EventKind::JobLifecycle { job: id, phase: "completed" });
            }
            Payload::Panicked => self.strike(id, "worker turn panicked"),
            Payload::Failed(error) => self.strike(id, &error),
        }
    }

    fn absorb_turn(&mut self, id: u64, data: TurnData) {
        self.journal_retries += data.retries;
        if data.retries > 0 {
            self.tracer.record(EventKind::RetryBackoff {
                op: "journal-append",
                attempt: data.retries.min(u64::from(u32::MAX)) as u32,
            });
        }
        if let Some(job) = self.jobs.get(&id) {
            let firmware = firmware_identity(&job.spec.firmware);
            for finding in data.findings {
                self.store.record(firmware, id, finding);
            }
        }
        if !data.spans.is_empty() {
            let trace = self.job_traces.entry(id).or_default();
            for span in data.spans {
                trace.push_span(span);
            }
        }
    }

    /// A failed turn: strike the job, quarantining it at the bound. The
    /// job's journal survives quarantine (post-mortem evidence); its
    /// findings leave the shared store because a crashing job's reports
    /// are no longer trustworthy.
    fn strike(&mut self, id: u64, reason: &str) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        job.strikes += 1;
        let strikes = job.strikes;
        self.tracer.record(EventKind::DegradedMode {
            component: "scheduler",
            detail: format!("job {id} strike {strikes}: {reason}"),
        });
        if strikes >= self.config.max_strikes {
            job.phase = JobPhase::Quarantined;
            self.store.remove_job(id);
            self.job_traces.remove(&id);
            let marker = quarantine_marker(&self.config.state_dir, id);
            let body = format!("strikes: {strikes}\nlast: {reason}\n");
            let (result, _) =
                retry_io(RetryPolicy::default(), || std::fs::write(&marker, body.as_bytes()));
            if let Err(err) = result {
                // Marker write failure degrades restart recovery (the job
                // will re-strike to quarantine) but loses nothing.
                self.tracer.record(EventKind::DegradedMode {
                    component: "daemon",
                    detail: format!("quarantine marker for job {id} failed: {err}"),
                });
            }
            self.tracer.record(EventKind::JobLifecycle { job: id, phase: "quarantined" });
        } else {
            job.phase = JobPhase::Queued;
            self.tracer.record(EventKind::RetryBackoff { op: "job-turn", attempt: strikes });
        }
    }

    /// A turn blew the wall-clock bound: the worker thread is presumed
    /// wedged. Replace it (pinned jobs rebuild their sessions from
    /// journals — lossless) and strike the job it was running.
    fn handle_wedge(&mut self, token: u64) {
        let Some(inflight) = self.inflight.remove(&token) else { return };
        self.replace_worker(inflight.worker);
        self.turns += 1;
        self.strike(inflight.job, "turn timeout (worker wedged)");
    }

    fn replace_worker(&mut self, index: usize) {
        self.workers_replaced += 1;
        self.tracer.record(EventKind::DegradedMode {
            component: "pool",
            detail: format!("replacing worker {index}"),
        });
        // Dropping the old sender makes the wedged thread exit after its
        // current (ignored) turn; dropping its JoinHandle detaches it so
        // the engine never blocks on a wedged thread. It can no longer
        // write: its last journal append completed before the wedge.
        self.workers[index] = spawn_worker(
            index,
            self.config.clone(),
            self.result_tx.clone(),
            Arc::clone(&self.bases),
        );
    }

    // -- Introspection ------------------------------------------------------

    /// `(id, firmware, phase, turns)` for every job, in id order.
    pub fn jobs_status(&self) -> Vec<(u64, String, JobPhase, u64)> {
        self.jobs.values().map(|j| (j.spec.id, j.spec.firmware.clone(), j.phase, j.turns)).collect()
    }

    /// The cross-campaign findings store.
    pub fn store(&self) -> &FindingsStore {
        &self.store
    }

    /// The daemon's own tracer (job lifecycle, degradation, retry events).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drains buffered daemon events.
    pub fn drain_events(&self) -> Vec<Event> {
        self.tracer.drain()
    }

    /// The deterministic trace accumulated for `id` this process (only
    /// meaningful when [`ServeConfig::trace`] is set).
    pub fn job_trace(&self, id: u64) -> Option<&MergedTrace> {
        self.job_traces.get(&id)
    }

    /// Derives one job's report from its journal's newest checkpoint — a
    /// pure function of durable state, so it is identical across any
    /// kill/restart schedule that reaches the same checkpoints.
    pub fn job_report(&self, id: u64) -> JobReport {
        let (iterations, stats) = self.checkpoint_stats(id);
        let FuzzerStats { execs, corpus, coverage, findings } = stats;
        JobReport { iterations, execs, corpus, coverage, findings }
    }

    /// `(iterations, campaign stats)` at the newest checkpoint in job
    /// `id`'s journal; zeros before the first.
    fn checkpoint_stats(&self, id: u64) -> (u64, FuzzerStats) {
        let Some(job) = self.jobs.get(&id) else { return Default::default() };
        let path = job.spec.journal_path(&self.config.state_dir);
        let Ok(loaded) = Journal::load(&path) else { return Default::default() };
        let Some(cp) = loaded.last_checkpoint() else { return Default::default() };
        (cp.iteration, cp.fuzzer.stats())
    }

    /// The deterministic daemon report (`embsan-serve-report-v1`): per-job
    /// journal-derived stats plus the deduplicated findings store. At
    /// idle (every job terminal) this is byte-identical across any
    /// kill/restart schedule.
    pub fn report(&self) -> Value {
        let jobs = self.jobs.iter().map(|(&id, job)| {
            let (iterations, stats) = self.checkpoint_stats(id);
            Value::object([
                ("id", Value::from(id)),
                ("firmware", Value::from(job.spec.firmware.as_str())),
                ("phase", Value::from(job.phase.name())),
                ("iterations", Value::from(iterations)),
                ("execs", Value::from(stats.execs)),
                ("corpus", Value::from(stats.corpus)),
                ("coverage", Value::from(stats.coverage)),
                ("findings", Value::from(stats.findings)),
            ])
        });
        Value::object([
            ("format", Value::from("embsan-serve-report-v1")),
            ("jobs", Value::Arr(jobs.collect())),
            ("store", self.store.to_value()),
        ])
    }

    /// [`ServeEngine::report`] as compact JSON.
    pub fn report_json(&self) -> String {
        self.report().to_string()
    }

    /// A metrics snapshot: journal-derived per-job and store counters in
    /// the deterministic class, scheduler/host-IO counters as telemetry.
    /// `snapshot.to_json(false)` is the deterministic artifact the
    /// resilience gate compares byte-for-byte.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        use MetricClass::{Deterministic, Telemetry};
        let mut registry = MetricsRegistry::new();
        let mut completed = 0u64;
        let mut quarantined = 0u64;
        for (id, job) in &self.jobs {
            match job.phase {
                JobPhase::Completed => completed += 1,
                JobPhase::Quarantined => quarantined += 1,
                _ => {}
            }
            let (iterations, stats) = self.checkpoint_stats(*id);
            let sub = format!("job{id:04}");
            registry.counter(&sub, "iterations", Deterministic, iterations);
            stats.record_into(&mut registry, &sub, Deterministic);
        }
        registry.gauge("store", "uniques", Deterministic, self.store.uniques() as i64);
        registry.gauge("store", "attributions", Deterministic, self.store.attributions() as i64);
        registry.counter("daemon", "jobs_completed", Deterministic, completed);
        registry.counter("daemon", "jobs_quarantined", Deterministic, quarantined);
        registry.counter("daemon", "turns", Telemetry, self.turns);
        registry.counter("daemon", "journal_io_retries", Telemetry, self.journal_retries);
        registry.counter("daemon", "manifest_io_retries", Telemetry, self.manifest_retries);
        registry.counter("daemon", "workers_replaced", Telemetry, self.workers_replaced);
        registry.counter("daemon", "jobs_parked", Telemetry, self.park_events);
        registry.snapshot()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            worker.sender.take();
        }
        for worker in &mut self.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

fn quarantine_marker(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join(format!("job-{id:04}.quarantine"))
}

// ---------------------------------------------------------------------------
// Worker side.

/// A worker's warm per-job context. Sessions are thread-affine (`!Send`),
/// so contexts live entirely inside the worker thread; the journal on
/// disk remains the source of truth and a context can always be rebuilt
/// from it.
struct JobCtx {
    fw: &'static FirmwareSpec,
    session: Session,
    dict: Dictionary,
    journal: Journal,
    start: StartInfo,
    resume: Option<ResumePoint>,
}

fn spawn_worker(
    index: usize,
    config: ServeConfig,
    tx: Sender<TurnResult>,
    bases: BaseCache,
) -> WorkerHandle {
    let (sender, rx) = channel::<Assignment>();
    let thread = std::thread::Builder::new()
        .name(format!("serve-worker-{index}"))
        .spawn(move || worker_loop(&rx, &tx, &config, &bases))
        .expect("spawn serve worker");
    WorkerHandle { sender: Some(sender), thread: Some(thread) }
}

fn worker_loop(
    rx: &Receiver<Assignment>,
    tx: &Sender<TurnResult>,
    config: &ServeConfig,
    bases: &BaseCache,
) {
    let mut ctxs: HashMap<u64, JobCtx> = HashMap::new();
    while let Ok(Assignment { token, spec }) = rx.recv() {
        let job = spec.id;
        let payload =
            match catch_unwind(AssertUnwindSafe(|| run_turn(&mut ctxs, &spec, config, bases))) {
                Ok(payload) => payload,
                Err(_) => {
                    // The panicked turn may have left the context
                    // half-mutated; drop it — the journal has everything.
                    ctxs.remove(&job);
                    Payload::Panicked
                }
            };
        // A send failure means the engine is gone (or replaced us); either
        // way there is no one to report to.
        if tx.send(TurnResult { token, job, payload }).is_err() {
            break;
        }
    }
}

fn run_turn(
    ctxs: &mut HashMap<u64, JobCtx>,
    spec: &JobSpec,
    config: &ServeConfig,
    bases: &BaseCache,
) -> Payload {
    match turn_inner(ctxs, spec, config, bases) {
        Ok(payload) => payload,
        Err(error) => Payload::Failed(error),
    }
}

/// Builds (or reuses) the job's context and runs one fair-share slice
/// under the supervised span. Drills fire *after* the span returns, so
/// the journal is always frame-consistent at the failure point.
fn turn_inner(
    ctxs: &mut HashMap<u64, JobCtx>,
    spec: &JobSpec,
    config: &ServeConfig,
    bases: &BaseCache,
) -> Result<Payload, String> {
    ensure_ctx(ctxs, spec, config, bases)?;
    let ctx = ctxs.get_mut(&spec.id).expect("context just ensured");
    let total = ctx.start.iterations;
    let cur = ctx.resume.as_ref().map_or(0, |point| point.iteration);
    let slice_end = cur.saturating_add(config.slice).min(total);
    let drill = spec.drill.filter(|d| cur <= d.at() && d.at() < slice_end);
    let sup_config = SupervisorConfig {
        // kill_after == total never fires (the loop exits first), so the
        // final slice completes the campaign in the same call.
        kill_after: Some(drill.map_or(slice_end, |d| d.at())),
        trace: config.trace,
        ..SupervisorConfig::default()
    };
    let resume = ctx.resume.take();
    let descs = descriptions_for(ctx.fw);
    let (outcome, continuation) = run_supervised_span(
        &mut ctx.session,
        descs,
        ctx.dict.clone(),
        &sup_config,
        ctx.start.clone(),
        resume,
        Some(&mut ctx.journal),
    )
    .map_err(|e| e.to_string())?;
    let data = TurnData {
        findings: outcome.findings.iter().map(|f| StoreFinding::from_report(&f.report)).collect(),
        spans: outcome.trace.map(|t| t.spans).unwrap_or_default(),
        retries: outcome.journal_retries,
    };
    if outcome.completed {
        ctxs.remove(&spec.id);
        return Ok(Payload::Finished(data));
    }
    ctx.resume = continuation;
    if let Some(drill) = drill {
        match drill {
            Drill::PanicAfter(at) => panic!("resilience drill: panic after iteration {at}"),
            Drill::WedgeAt(_) => {
                // Wedge without touching the journal again: the engine's
                // replacement worker reopens it, and a write from this
                // zombie thread would race the replacement's appends.
                std::thread::sleep(Duration::from_millis(
                    config.turn_timeout_ms.saturating_mul(3).max(50),
                ));
                return Ok(Payload::Failed("wedged (drill)".to_string()));
            }
        }
    }
    Ok(Payload::Progress(data))
}

/// Builds the job's context if absent: load (or create) its journal,
/// derive the resume point, and boot a fresh session. All inputs are
/// durable or deterministic, so a rebuilt context continues the campaign
/// exactly where any previous one stopped.
fn ensure_ctx(
    ctxs: &mut HashMap<u64, JobCtx>,
    spec: &JobSpec,
    config: &ServeConfig,
    bases: &BaseCache,
) -> Result<(), String> {
    if ctxs.contains_key(&spec.id) {
        return Ok(());
    }
    let fw = firmware_by_name(&spec.firmware)
        .ok_or_else(|| format!("unknown firmware `{}`", spec.firmware))?;
    // Every slice boundary is a checkpoint. Daemon campaigns always fuzz
    // with the platform MMIO model.
    let campaign = CampaignConfig {
        iterations: spec.iterations,
        seed: spec.seed,
        ready_budget: config.ready_budget,
        program_budget: config.program_budget,
        ..CampaignConfig::default()
    };
    let mut start =
        StartInfo::new(spec.firmware.clone(), paper_strategy(fw), &campaign, config.slice);
    let path = spec.journal_path(&config.state_dir);
    let (journal, resume) = if path.exists() {
        let loaded = Journal::load(&path).map_err(|e| format!("journal load: {e}"))?;
        // A journal with no intact Start record (killed before the first
        // append) restarts from scratch: resume None re-appends Start.
        // An intact Start carries the identity hashes of the killed run;
        // adopting them makes the supervised span verify that the rebuilt
        // session forked from a bit-identical ready state and generates
        // from the same descriptions.
        let resume = loaded.start().ok().map(|journaled| {
            start.base_hash = journaled.base_hash;
            start.descs_hash = journaled.descs_hash;
            ResumePoint::from_journal(&loaded)
        });
        let journal =
            Journal::reopen(&path, loaded.valid_len).map_err(|e| format!("journal reopen: {e}"))?;
        (journal, resume)
    } else {
        (Journal::create(&path).map_err(|e| format!("journal create: {e}"))?, None)
    };
    let (mut session, dict) = prepare_session(fw, &campaign).map_err(|e| e.to_string())?;
    // Share one base image per firmware across the whole daemon. Every job
    // of a firmware boots to the same ready state, so the first session to
    // come up publishes its base and the rest adopt it, holding only their
    // dirty-page overlays.
    {
        let mut cache = bases.lock().unwrap();
        let slot = cache.entry(firmware_identity(&spec.firmware)).or_default();
        share_base(&mut session, slot).map_err(|e| format!("base adopt: {e}"))?;
    }
    ctxs.insert(spec.id, JobCtx { fw, session, dict, journal, start, resume });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let config = ServeConfig::default();
        assert!(config.workers >= 1);
        assert!(config.slice >= 1);
        assert!(config.max_active >= 1);
        assert!(config.max_queued >= config.max_active);
    }

    #[test]
    fn submit_validates_and_bounds_the_queue() {
        let dir = std::env::temp_dir().join(format!("embsan-serve-submit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            state_dir: dir.clone(),
            workers: 1,
            max_queued: 2,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::open(config).unwrap();
        assert!(engine.submit("no-such-firmware", 10, 0, 0, None).is_err());
        assert!(engine.submit("TP-Link WDR-7660", 0, 0, 0, None).is_err());
        let a = engine.submit("TP-Link WDR-7660", 10, 0, 0, None).unwrap();
        let b = engine.submit("TP-Link WDR-7660", 10, 1, 0, None).unwrap();
        assert_eq!((a, b), (0, 1));
        let err = engine.submit("TP-Link WDR-7660", 10, 2, 0, None).unwrap_err();
        assert!(err.contains("queue full"), "{err}");
        // Rejection produced a degraded-mode event.
        let events = engine.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::DegradedMode { component: "daemon", .. })));
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_restores_the_queue_across_reopen() {
        let dir = std::env::temp_dir().join(format!("embsan-serve-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig { state_dir: dir.clone(), workers: 1, ..ServeConfig::default() };
        let mut engine = ServeEngine::open(config.clone()).unwrap();
        engine.submit("TP-Link WDR-7660", 10, 0, 3, None).unwrap();
        engine.submit("TP-Link WDR-7660", 10, 1, 0, Some(Drill::PanicAfter(5))).unwrap();
        engine.shutdown();
        let engine = ServeEngine::open(config).unwrap();
        let status = engine.jobs_status();
        assert_eq!(status.len(), 2);
        assert!(status.iter().all(|(_, _, phase, _)| *phase == JobPhase::Queued));
        // Ids continue past recovered ones.
        let mut engine = engine;
        let id = engine.submit("TP-Link WDR-7660", 10, 2, 0, None).unwrap();
        assert_eq!(id, 2);
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parking_sheds_lowest_priority_first() {
        let dir = std::env::temp_dir().join(format!("embsan-serve-park-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            state_dir: dir.clone(),
            workers: 1,
            max_active: 1,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::open(config).unwrap();
        engine.submit("TP-Link WDR-7660", 10, 0, 0, None).unwrap();
        engine.submit("TP-Link WDR-7660", 10, 1, 5, None).unwrap();
        engine.refresh_parking();
        let status = engine.jobs_status();
        assert_eq!(status[0].2, JobPhase::Parked, "low priority parks");
        assert_eq!(status[1].2, JobPhase::Queued, "high priority stays runnable");
        // Load drops: the parked job is released.
        engine.config.max_active = 2;
        engine.refresh_parking();
        assert!(engine.jobs_status().iter().all(|(_, _, p, _)| *p == JobPhase::Queued));
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
