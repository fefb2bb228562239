//! Parallel sharded campaign engine with deterministic merges.
//!
//! The paper's pitch (§5) is that emulator-level interception is *cheap*;
//! this module supplies the other throughput lever: host-native parallel
//! execution. N workers each own a full `Machine` + [`Session`] (the
//! translation cache's `Rc` blocks make a session thread-affine, so every
//! worker builds its own from the same deterministic recipe) and pull
//! iteration chunks from a work-stealing scheduler. The workers share one
//! copy-on-write ready-point base image ([`share_base`]).
//!
//! What this engine adds to the sequential [`crate::fuzzer::Fuzzer`] is
//! only its schedule: epochs, a per-iteration RNG and the canonical merge.
//! Everything else is the sequential engine's: crash triage
//! ([`crate::fuzzer::triage`]), the coverage-gated [`Corpus`] and the
//! [`Mutator`].
//!
//! # Determinism argument
//!
//! An N-worker run reports the *same finding set, corpus and coverage* as
//! the 1-worker run because nothing an iteration computes depends on which
//! worker ran it or when:
//!
//! 1. The iteration space `0..iterations` is split into fixed *epochs* of
//!    [`ParallelConfig::epoch_len`] iterations. Workers claim chunks within
//!    the current epoch only.
//! 2. Iteration `i` derives its RNG purely from `(campaign seed, i)` and
//!    picks its input from the *corpus snapshot at the epoch boundary* — an
//!    immutable `Arc` swapped only between epochs.
//! 3. Guest execution is deterministic: each run starts from the pristine
//!    ready-state snapshot ([`Session::reset`]), so an iteration's outcome
//!    (coverage, reports, minimized reproducer) is a pure function of its
//!    program.
//! 4. At the epoch barrier one worker merges all results *sorted by
//!    iteration index*: coverage novelty, corpus admission and finding
//!    dedup (by [`embsan_core::report::Report::dedup_key`]) are evaluated
//!    in that canonical order, exactly as a single worker walking the epoch
//!    sequentially would.
//!
//! The parallel engine deliberately has no deterministic dictionary stage
//! (that queue is inherently sequential state); the sequential
//! [`crate::fuzzer::Fuzzer`] and the journaled supervised path remain the
//! bit-identical single-thread engines.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use embsan_core::report::BugClass;
use embsan_core::session::{BaseImage, Session, SessionError};
use embsan_emu::CacheStats;
use embsan_guestos::executor::ExecProgram;
use embsan_guestos::FirmwareSpec;
use embsan_obs::{
    Event, EventKind, MergedTrace, MetricClass, MetricsRegistry, MetricsSnapshot, TraceConfig,
    TraceSpan,
};

use crate::campaign::{
    attribute_findings, paper_strategy, prepare_session, share_base, CampaignConfig, CampaignError,
    CampaignResult,
};
use crate::corpus::Corpus;
use crate::cover::CoverageMap;
use crate::descs::{descriptions_for, SyscallDesc};
use crate::dictionary::Dictionary;
use crate::fuzzer::{triage, Finding, FuzzerStats, Strategy};
use crate::mutate::Mutator;
use crate::rng::SplitMix64;

/// Golden-ratio increment used to decorrelate per-iteration seeds (the
/// SplitMix64 stream constant).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Iterations claimed per scheduler grab (work-stealing granularity).
/// Results do not depend on it.
const CHUNK: u64 = 8;

/// Parallel engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker count (1 runs the same algorithm on one thread).
    pub workers: usize,
    /// Iterations per epoch (merge/snapshot period). Smaller epochs adopt
    /// novel inputs sooner; larger epochs synchronize less. Has no effect
    /// on *which* inputs or findings are reported for a fixed value — but
    /// is part of the seed-determinism contract, so comparing runs
    /// requires equal `epoch_len`.
    pub epoch_len: u64,
    /// The underlying campaign parameters (iterations, seed, budgets).
    pub campaign: CampaignConfig,
    /// Records a merged event trace ([`TraceConfig::deterministic`] preset:
    /// execution events only, since translation-cache warmth differs per
    /// worker). Off by default; tracing never changes findings, corpus or
    /// coverage.
    pub trace: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 1,
            epoch_len: 64,
            campaign: CampaignConfig::default(),
            trace: false,
        }
    }
}

/// Aggregate statistics of a parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelStats {
    /// Worker threads used.
    pub workers: usize,
    /// Programs executed (minimization re-executions not counted).
    pub execs: u64,
    /// Corpus entries retained.
    pub corpus: usize,
    /// Coverage buckets reached (canonical global map).
    pub coverage: usize,
    /// Findings after canonical dedup.
    pub findings: usize,
    /// Epochs merged.
    pub epochs: u64,
    /// Wall-clock time of the fuzzing loop (sessions ready → last merge;
    /// excludes firmware build and boot).
    pub fuzz_wall: Duration,
    /// Translation-cache counters summed over all workers.
    pub cache: CacheStats,
    /// Shadow checks that fell off the inline fast path onto the byte-wise
    /// slow walk, summed over all workers.
    pub slow_path_checks: u64,
    /// Logical size of the ready-point base image (RAM plus sanitizer
    /// planes).
    pub base_bytes: u64,
    /// Bytes the base image holds: its resident 4 KiB pages, the ones with
    /// data at the ready point — paid once when workers share it, not per
    /// worker.
    pub base_resident_bytes: u64,
    /// Largest per-iteration copy-on-write overlay any worker held
    /// (private dirty pages beyond the shared base): the per-worker
    /// incremental memory cost, O(pages touched) rather than O(RAM).
    pub max_worker_overlay_bytes: u64,
    /// Workers that forked from the shared base image (the rest kept a
    /// private baseline because their ready-state hash differed).
    pub workers_sharing_base: usize,
}

impl ParallelStats {
    /// The campaign totals, as the sequential engine reports them.
    pub fn fuzzer_stats(&self) -> FuzzerStats {
        let ParallelStats { execs, corpus, coverage, findings, .. } = *self;
        FuzzerStats { execs, corpus, coverage, findings }
    }

    /// Copies these stats into `registry` under the `scheduler` subsystem
    /// (plus the summed `translator` cache counters).
    ///
    /// Campaign results (execs, corpus, coverage, findings and epochs) are
    /// [`MetricClass::Deterministic`] — identical for every worker count.
    /// Wall time, the worker count itself and the summed per-worker cache
    /// counters depend on scheduling and are classed as telemetry.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        use MetricClass::{Deterministic, Telemetry};
        registry.gauge("scheduler", "workers", Telemetry, self.workers as i64);
        self.fuzzer_stats().record_into(registry, "scheduler", Deterministic);
        registry.counter("scheduler", "epochs", Deterministic, self.epochs);
        registry.counter("scheduler", "fuzz_wall_ms", Telemetry, self.fuzz_wall.as_millis() as u64);
        self.cache.record_into(registry, Telemetry);
        registry.counter("hooks", "slow_path_checks", Telemetry, self.slow_path_checks);
        // Memory accounting is telemetry: one worker's overlay peak depends
        // on which iterations it happened to claim. The maximum over all
        // workers does not (reset frees the overlay and each iteration's
        // program is a pure function of seed and index), and
        // `tests/parallel_determinism.rs` pins it.
        registry.gauge("memory", "base_bytes", Telemetry, self.base_bytes as i64);
        registry.gauge("memory", "base_resident_bytes", Telemetry, self.base_resident_bytes as i64);
        registry.gauge(
            "memory",
            "max_worker_overlay_bytes",
            Telemetry,
            self.max_worker_overlay_bytes as i64,
        );
        registry.gauge(
            "memory",
            "workers_sharing_base",
            Telemetry,
            self.workers_sharing_base as i64,
        );
    }

    /// A metrics snapshot of these stats (see
    /// [`ParallelStats::collect_metrics`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut registry = MetricsRegistry::new();
        self.collect_metrics(&mut registry);
        registry.snapshot()
    }
}

/// Everything a parallel run produces.
#[derive(Debug)]
pub struct ParallelOutcome {
    /// Findings in canonical (iteration) order, deduplicated by
    /// [`embsan_core::report::Report::dedup_key`].
    pub findings: Vec<Finding>,
    /// Final corpus in canonical admission order.
    pub corpus: Vec<ExecProgram>,
    /// Run statistics.
    pub stats: ParallelStats,
    /// Merged event trace in canonical iteration order (spans rebased to
    /// their iteration start, so the trace is identical for every worker
    /// count). `None` unless [`ParallelConfig::trace`] was set.
    pub trace: Option<MergedTrace>,
}

/// One iteration's shippable result.
struct IterResult {
    iter: u64,
    program: ExecProgram,
    cover: Vec<(u32, u8)>,
    findings: Vec<Finding>,
    /// Iteration-relative trace span (empty unless tracing is on).
    events: Vec<Event>,
}

/// Merge-side state, owned by whichever worker leads each epoch barrier.
struct MergeState {
    corpus: Corpus,
    findings: Vec<Finding>,
    seen: HashSet<(BugClass, u32)>,
    execs: u64,
    epochs: u64,
    /// Merged event trace in canonical iteration order (when tracing).
    trace: Option<MergedTrace>,
}

/// State shared by all workers of one run.
struct Shared {
    stop: AtomicBool,
    /// Next unclaimed iteration (monotonic within an epoch; reset to the
    /// epoch floor at each merge).
    next_iter: AtomicU64,
    /// One past the last iteration of the current epoch.
    epoch_end: AtomicU64,
    /// Immutable corpus snapshot workers draw from this epoch: the merge's
    /// [`Corpus`] programs, copied out without its coverage map.
    snapshot: Mutex<Arc<Vec<ExecProgram>>>,
    /// Completed iterations awaiting the canonical merge.
    results: Mutex<Vec<IterResult>>,
    merge: Mutex<MergeState>,
    error: Mutex<Option<CampaignError>>,
    barrier: Barrier,
    fuzz_start: Mutex<Option<Instant>>,
    /// Per-worker exit statistics, pushed as each worker finishes.
    worker_stats: Mutex<Vec<WorkerExit>>,
    /// The ready-point base image every worker shares ([`share_base`]).
    base: Mutex<Option<Arc<BaseImage>>>,
}

impl Shared {
    /// Records the run's first failure and stops every worker.
    fn fail(&self, error: CampaignError) {
        self.error.lock().unwrap().get_or_insert(error);
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// One worker's exit statistics.
struct WorkerExit {
    cache: CacheStats,
    slow_path_checks: u64,
    /// Largest post-iteration overlay this worker held (bytes).
    peak_overlay_bytes: u64,
    base_bytes: u64,
    base_resident_bytes: u64,
    /// Whether this worker ran on the shared base image.
    shares_base: bool,
}

/// The RNG for iteration `iter`: a pure function of the campaign seed and
/// the iteration index, independent of scheduling.
fn iter_rng(seed: u64, iter: u64) -> SplitMix64 {
    let mut mix = SplitMix64::seed_from_u64(seed ^ (iter + 1).wrapping_mul(GOLDEN));
    SplitMix64::seed_from_u64(mix.next_u64())
}

/// Derives iteration `iter`'s program from the epoch's corpus snapshot.
fn derive_program(
    mutator: &Mutator,
    snapshot: &[ExecProgram],
    config: &ParallelConfig,
    iter: u64,
) -> ExecProgram {
    let mut rng = iter_rng(config.campaign.seed, iter);
    if snapshot.is_empty() || rng.gen_bool(0.2) {
        mutator.generate(&mut rng)
    } else {
        let pick = rng.gen_usize() % snapshot.len();
        mutator.mutate(&snapshot[pick], &mut rng)
    }
}

/// Executes iteration `iter` end to end on a worker's private session
/// (report dedup off: every occurrence reaches triage and the merge).
fn run_iteration(
    session: &mut Session,
    coverage: &mut CoverageMap,
    mutator: &Mutator,
    snapshot: &[ExecProgram],
    config: &ParallelConfig,
    iter: u64,
) -> Result<IterResult, SessionError> {
    // Rebasing against the iteration-start clock makes the span a pure
    // function of (snapshot state, program): the lifetime clock itself is
    // monotonic across the worker's whole schedule.
    let mark = session.trace_mark();
    let program = derive_program(mutator, snapshot, config, iter);
    coverage.reset();
    session.reset()?;
    let budget = config.campaign.program_budget;
    let outcome = session.run_program_observed(&program, budget, coverage)?;
    let findings = outcome
        .reports
        .into_iter()
        .map(|report| triage(session, &program, report, budget))
        .collect::<Result<_, _>>()?;
    let events = session.drain_trace(mark);
    Ok(IterResult { iter, program, cover: coverage.classified_sparse(), findings, events })
}

/// The canonical merge: executed by the epoch leader while every other
/// worker waits at the barrier. Results are reduced sorted by iteration
/// index, so admission and dedup order is schedule-independent.
fn merge_epoch(shared: &Shared, config: &ParallelConfig) {
    let mut results = std::mem::take(&mut *shared.results.lock().unwrap());
    results.sort_unstable_by_key(|r| r.iter);
    let mut state = shared.merge.lock().unwrap();
    let state = &mut *state;
    for result in results {
        state.execs += 1;
        state.corpus.add_if_novel_sparse(result.program, &result.cover);
        for finding in result.findings {
            if state.seen.insert(finding.report.dedup_key()) {
                state.findings.push(finding);
            }
        }
        if let Some(trace) = &mut state.trace {
            trace.push_span(TraceSpan { iter: result.iter, events: result.events });
        }
    }
    state.epochs += 1;
    let done = shared.epoch_end.load(Ordering::SeqCst);
    if let Some(trace) = &mut state.trace {
        // Record the canonical post-merge totals as a scheduler event. The
        // span is tagged with the epoch-end boundary, which totally orders
        // it after every iteration it merged.
        let merge = EventKind::EpochMerge {
            epoch: state.epochs,
            execs: state.execs,
            corpus: state.corpus.len() as u64,
            findings: state.findings.len() as u64,
            coverage: state.corpus.coverage_buckets() as u64,
        };
        trace.push_span(TraceSpan {
            iter: done,
            events: vec![Event { clock: 0, seq: 0, kind: merge }],
        });
    }
    *shared.snapshot.lock().unwrap() = Arc::new(state.corpus.entries().to_vec());
    let failed = shared.error.lock().unwrap().is_some();
    if failed || done >= config.campaign.iterations {
        shared.stop.store(true, Ordering::SeqCst);
    } else {
        shared.next_iter.store(done, Ordering::SeqCst);
        shared
            .epoch_end
            .store((done + config.epoch_len).min(config.campaign.iterations), Ordering::SeqCst);
    }
}

/// Brings up worker `worker`'s session: canonical dedup happens at merge
/// time, so the runtime must report every occurrence, or finding sets
/// would depend on which worker saw a bug first. Returns the session and
/// whether it runs on the shared base image.
fn worker_session<F>(
    worker: usize,
    factory: &F,
    config: &ParallelConfig,
    shared: &Shared,
) -> Result<(Session, bool), CampaignError>
where
    F: Fn(usize) -> Result<Session, CampaignError> + Sync,
{
    let mut session = factory(worker)?;
    session.runtime_mut().dedup_enabled = false;
    session.enable_block_coverage();
    if config.trace {
        // Enabled after the factory's boot so spans hold only iteration
        // events; the deterministic preset skips cache events, whose
        // timing depends on per-worker warmth.
        session.enable_tracing(TraceConfig::deterministic());
    }
    // Findings are unaffected by sharing: an adopted base is bit-identical
    // to the private one by construction.
    let shares_base = share_base(&mut session, &mut shared.base.lock().unwrap())?;
    Ok((session, shares_base))
}

/// One worker thread: claim chunks, execute, publish, synchronize.
fn worker_loop<F>(
    worker: usize,
    factory: &F,
    mutator: &Mutator,
    config: &ParallelConfig,
    shared: &Shared,
) where
    F: Fn(usize) -> Result<Session, CampaignError> + Sync,
{
    let (mut session, shares_base) = match worker_session(worker, factory, config, shared) {
        Ok((session, shares_base)) => (Some(session), shares_base),
        Err(e) => {
            shared.fail(e);
            (None, false)
        }
    };
    let mut coverage = CoverageMap::new();
    // Peak private overlay across the worker's schedule, sampled after
    // each iteration (a reset frees the overlay again, so end-of-run
    // sampling would always read ~0).
    let mut peak_overlay: usize = 0;

    if shared.barrier.wait().is_leader() {
        *shared.fuzz_start.lock().unwrap() = Some(Instant::now());
    }
    loop {
        let end = shared.epoch_end.load(Ordering::SeqCst);
        let snapshot = Arc::clone(&shared.snapshot.lock().unwrap());
        let mut batch = Vec::new();
        if let Some(session) = session.as_mut() {
            'claim: while !shared.stop.load(Ordering::Relaxed) {
                let start = shared.next_iter.fetch_add(CHUNK, Ordering::SeqCst);
                if start >= end {
                    break;
                }
                for iter in start..(start + CHUNK).min(end) {
                    match run_iteration(session, &mut coverage, mutator, &snapshot, config, iter) {
                        Ok(result) => {
                            peak_overlay = peak_overlay.max(session.overlay_bytes());
                            batch.push(result);
                        }
                        Err(e) => {
                            // Re-derive the failing program (pure function
                            // of seed and iteration) for the error context.
                            let program = derive_program(mutator, &snapshot, config, iter);
                            shared.fail(CampaignError::from(e).context(iter, &program));
                            break 'claim;
                        }
                    }
                }
            }
        }
        shared.results.lock().unwrap().extend(batch);
        if shared.barrier.wait().is_leader() {
            merge_epoch(shared, config);
        }
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    if let Some(session) = &session {
        shared.worker_stats.lock().unwrap().push(WorkerExit {
            cache: session.cache_stats(),
            slow_path_checks: session.runtime().slow_path_checks(),
            peak_overlay_bytes: peak_overlay as u64,
            base_bytes: session.base_bytes() as u64,
            base_resident_bytes: session
                .base()
                .map_or(0, |base| (base.resident_pages() * embsan_emu::cow::PAGE_SIZE) as u64),
            shares_base,
        });
    }
}

/// Runs a parallel fuzzing campaign over sessions produced by `factory`,
/// directed when `dict` carries harvested wide operands
/// ([`Dictionary::with_wide`]).
///
/// `factory(worker_index)` must return a *ready* session (already past
/// `run_to_ready`); it is called once per worker, on that worker's thread,
/// because sessions are thread-affine. Every worker must get an
/// identically-behaving session (same firmware, same configuration) or the
/// determinism contract is void.
///
/// # Errors
///
/// Returns the first harness-level failure in canonical order of
/// discovery (session build or execution failures; guest crashes are
/// findings, not errors).
///
/// # Panics
///
/// Panics if `workers` or `epoch_len` is 0, or a worker thread panics.
pub fn run_parallel<F>(
    factory: F,
    descs: &[SyscallDesc],
    dict: &Dictionary,
    strategy: Strategy,
    config: &ParallelConfig,
) -> Result<ParallelOutcome, CampaignError>
where
    F: Fn(usize) -> Result<Session, CampaignError> + Sync,
{
    assert!(config.workers > 0, "need at least one worker");
    assert!(config.epoch_len > 0, "need at least one iteration per epoch");
    let mutator = Mutator::new(descs.to_vec(), dict.clone(), strategy);
    let shared = Shared {
        stop: AtomicBool::new(config.campaign.iterations == 0),
        next_iter: AtomicU64::new(0),
        epoch_end: AtomicU64::new(config.epoch_len.min(config.campaign.iterations)),
        snapshot: Mutex::new(Arc::new(Vec::new())),
        results: Mutex::new(Vec::new()),
        merge: Mutex::new(MergeState {
            corpus: Corpus::new(),
            findings: Vec::new(),
            seen: HashSet::new(),
            execs: 0,
            epochs: 0,
            trace: config.trace.then(MergedTrace::default),
        }),
        error: Mutex::new(None),
        barrier: Barrier::new(config.workers),
        fuzz_start: Mutex::new(None),
        worker_stats: Mutex::new(Vec::new()),
        base: Mutex::new(None),
    };

    std::thread::scope(|scope| {
        for worker in 0..config.workers {
            let (shared, factory, mutator) = (&shared, &factory, &mutator);
            scope.spawn(move || worker_loop(worker, factory, mutator, config, shared));
        }
    });

    if let Some(error) = shared.error.lock().unwrap().take() {
        return Err(error);
    }
    let fuzz_wall =
        shared.fuzz_start.lock().unwrap().map(|start| start.elapsed()).unwrap_or_default();
    let workers = shared.worker_stats.into_inner().unwrap();
    let max = |field: fn(&WorkerExit) -> u64| workers.iter().map(field).max().unwrap_or(0);
    let state = shared.merge.into_inner().unwrap();
    let stats = ParallelStats {
        workers: config.workers,
        execs: state.execs,
        corpus: state.corpus.len(),
        coverage: state.corpus.coverage_buckets(),
        findings: state.findings.len(),
        epochs: state.epochs,
        fuzz_wall,
        cache: workers.iter().fold(CacheStats::default(), |cache, w| cache.merged(w.cache)),
        slow_path_checks: workers.iter().map(|w| w.slow_path_checks).sum(),
        base_bytes: max(|w| w.base_bytes),
        base_resident_bytes: max(|w| w.base_resident_bytes),
        max_worker_overlay_bytes: max(|w| w.peak_overlay_bytes),
        workers_sharing_base: workers.iter().filter(|w| w.shares_base).count(),
    };
    Ok(ParallelOutcome {
        findings: state.findings,
        corpus: state.corpus.entries().to_vec(),
        stats,
        trace: state.trace,
    })
}

/// Runs the parallel engine for one firmware in its Table-1 configuration
/// (the undirected `embsan fuzz --workers N` path).
///
/// # Errors
///
/// See [`CampaignError`].
pub fn run_parallel_campaign(
    spec: &FirmwareSpec,
    config: &ParallelConfig,
) -> Result<(CampaignResult, ParallelOutcome), CampaignError> {
    let image = spec
        .build(spec.default_san_mode())
        .map_err(|e| CampaignError::from(e).with_firmware(spec.name))?;
    let dict = Dictionary::extract(&image);
    let descs = descriptions_for(spec);
    let outcome = run_parallel(
        |_worker| prepare_session(spec, &config.campaign).map(|(session, _)| session),
        &descs,
        &dict,
        paper_strategy(spec),
        config,
    )
    .map_err(|e| e.with_firmware(spec.name))?;
    let found = attribute_findings(spec, &outcome.findings);
    let result = CampaignResult { firmware: spec.name, found, stats: outcome.stats.fuzzer_stats() };
    Ok((result, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsan_guestos::firmware_by_name;

    fn small_config(workers: usize, iterations: u64) -> ParallelConfig {
        ParallelConfig {
            workers,
            epoch_len: 32,
            campaign: CampaignConfig { iterations, seed: 17, ..CampaignConfig::default() },
            ..ParallelConfig::default()
        }
    }

    fn run(workers: usize) -> (Vec<usize>, usize, usize, u64) {
        let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
        let (result, outcome) = run_parallel_campaign(spec, &small_config(workers, 96)).unwrap();
        (
            result.found.iter().map(|f| f.latent_index).collect(),
            outcome.stats.corpus,
            outcome.stats.coverage,
            outcome.stats.execs,
        )
    }

    #[test]
    fn two_workers_match_one_worker() {
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn zero_iterations_is_a_clean_noop() {
        let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
        let (result, outcome) = run_parallel_campaign(spec, &small_config(2, 0)).unwrap();
        assert_eq!(outcome.stats.execs, 0);
        assert!(result.found.is_empty());
    }

    #[test]
    fn tracing_yields_spans_without_changing_results() {
        let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
        let plain = run_parallel_campaign(spec, &small_config(1, 48)).unwrap();
        let mut traced_config = small_config(1, 48);
        traced_config.trace = true;
        let traced = run_parallel_campaign(spec, &traced_config).unwrap();
        assert_eq!(plain.1.stats.coverage, traced.1.stats.coverage);
        assert_eq!(plain.1.stats.corpus, traced.1.stats.corpus);
        assert_eq!(plain.1.stats.findings, traced.1.stats.findings);
        assert!(plain.1.trace.is_none());
        let trace = traced.1.trace.expect("trace requested");
        assert!(trace.event_count() > 0);
        let merges = trace
            .spans
            .iter()
            .flat_map(|s| &s.events)
            .filter(|e| matches!(e.kind, EventKind::EpochMerge { .. }))
            .count();
        assert_eq!(merges as u64, traced.1.stats.epochs);
    }

    #[test]
    fn iteration_rng_is_schedule_independent() {
        // Same (seed, iter) → same stream regardless of anything else.
        let mut a = iter_rng(42, 7);
        let mut b = iter_rng(42, 7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = iter_rng(42, 8);
        assert_ne!(iter_rng(42, 7).next_u64(), c.next_u64());
    }
}
