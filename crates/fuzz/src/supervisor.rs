//! Resilient campaign supervision: watchdogs, recovery, quarantine, resume.
//!
//! Long campaigns die in ways that are not the target's fault: a fault-plan
//! (or a real bug) live-locks the guest, a transient harness error aborts an
//! iteration, the host kills the process. The supervisor wraps the fuzzing
//! loop so none of these ends the campaign:
//!
//! - **watchdog** — a program that exhausts its instruction budget is
//!   classified via retired-instruction slicing
//!   ([`Machine::classify_hang`]): WFI-idle guests are merely asleep,
//!   live-locked guests are wedged;
//! - **snapshot-restore recovery** — a wedged guest is recovered by the
//!   session's post-ready snapshot restore and the input retried a bounded
//!   number of times;
//! - **quarantine** — inputs that wedge on every retry are removed from the
//!   corpus and mutation queue and never scheduled again;
//! - **bounded retry** — transient harness errors are retried a bounded
//!   number of times before failing the campaign with full context
//!   (deterministic emulation has no time-based backoff to wait out, so the
//!   bound *is* the backoff);
//! - **journal + resume** — durable events stream to an append-only
//!   [`Journal`]; a killed campaign resumed from its newest checkpoint
//!   produces bit-identical results to one that was never killed, because
//!   checkpoints carry the complete mutable state ([`FuzzerState`]) and the
//!   per-program session reset makes iteration replay exact.
//!
//! The supervised path is deliberately **single-threaded**: the journal's
//! bit-identical-replay guarantee is defined over the sequential iteration
//! order. Parallel throughput lives in [`crate::parallel`], whose engine is
//! deterministic across worker counts but journals nothing; the CLI's
//! `--workers` flag therefore falls back to one thread whenever a journal,
//! fault plan or kill-after drill is requested.
//!
//! [`Machine::classify_hang`]: embsan_emu::machine::Machine::classify_hang

use std::path::{Path, PathBuf};

use embsan_emu::fault::{FaultPlan, HangClass, InjectionStats};
use embsan_emu::hash::fnv1a;
use embsan_emu::machine::RunExit;
use embsan_guestos::executor::ExecProgram;
use embsan_guestos::{firmware_by_name, FirmwareSpec};
use embsan_obs::{
    EventKind, MergedTrace, MetricClass, MetricsRegistry, MetricsSnapshot, TraceConfig, TraceSpan,
};

use crate::campaign::{
    attribute_findings, paper_strategy, prepare_session, CampaignConfig, CampaignError,
    CampaignResult,
};
use crate::descs::{descriptions_for, SyscallDesc};
use crate::dictionary::Dictionary;
use crate::fuzzer::{Finding, Fuzzer, FuzzerConfig, FuzzerState, FuzzerStats};
use crate::journal::{
    Checkpoint, Journal, JournalError, LoadedJournal, Record, StartInfo, SupervisorHealth,
    SupervisorState,
};
use embsan_core::session::Session;

/// Supervisor policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The campaign [`run_supervised`] journals (iterations, seed,
    /// budgets). Every other entry point takes it from a [`StartInfo`].
    pub campaign: CampaignConfig,
    /// Checkpoint cadence in iterations [`run_supervised`] journals.
    pub checkpoint_interval: u64,
    /// Retries (after snapshot-restore recovery) before a wedging input is
    /// quarantined.
    pub max_wedge_retries: u32,
    /// Bounded retries for transient harness errors before the campaign
    /// fails with context.
    pub max_transient_retries: u32,
    /// Resilience drill: stop (as if killed) after this many iterations.
    /// The journal then resumes the campaign. `None` runs to completion.
    pub kill_after: Option<u64>,
    /// Deterministic fault plan armed on the machine before fuzzing
    /// (fault-injection campaigns).
    pub fault_plan: Option<FaultPlan>,
    /// Retirement slices used by hang classification.
    pub hang_slices: u32,
    /// Instruction budget per classification slice.
    pub hang_slice_budget: u64,
    /// Records a merged event trace ([`TraceConfig::deterministic`]
    /// preset). Per-iteration spans are clock-rebased, so the concatenation
    /// of a killed run's spans (up to its resume checkpoint) with the
    /// resumed run's spans equals the uninterrupted run's trace.
    pub trace: bool,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            campaign: CampaignConfig::default(),
            checkpoint_interval: 500,
            max_wedge_retries: 2,
            max_transient_retries: 3,
            kill_after: None,
            fault_plan: None,
            hang_slices: 3,
            hang_slice_budget: 10_000,
            trace: false,
        }
    }
}

/// The raw supervised outcome (strategy-agnostic; campaign wrappers
/// attribute findings to Table-4 rows on top).
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// Triaged findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Fuzzer statistics.
    pub stats: FuzzerStats,
    /// Supervisor health counters.
    pub health: SupervisorHealth,
    /// FNV-1a hashes of quarantined inputs, sorted.
    pub quarantined: Vec<u64>,
    /// Iterations actually completed.
    pub iterations_done: u64,
    /// `false` when `kill_after` stopped the run early (resume from the
    /// journal to continue).
    pub completed: bool,
    /// Fault-injection statistics from the machine (all zero when no fault
    /// plan was armed).
    pub injection: InjectionStats,
    /// Merged event trace with one span per iteration executed by *this*
    /// process (a resumed run's trace starts at its checkpoint). `None`
    /// unless [`SupervisorConfig::trace`] was set.
    pub trace: Option<MergedTrace>,
    /// Transient journal-IO retries absorbed during this process's run.
    /// Host-IO telemetry: never journaled, excluded from deterministic
    /// metric snapshots.
    pub journal_retries: u64,
}

/// A supervised Table-3/4 campaign result.
#[derive(Debug)]
pub struct SupervisedResult {
    /// The attributed campaign result (identical in shape to
    /// [`crate::campaign::run_campaign`]'s).
    pub result: CampaignResult,
    /// Supervisor health counters.
    pub health: SupervisorHealth,
    /// Fault-injection statistics.
    pub injection: InjectionStats,
    /// Whether the campaign ran to completion (vs. a `kill_after` drill).
    pub completed: bool,
    /// Merged event trace (see [`SupervisedOutcome::trace`]).
    pub trace: Option<MergedTrace>,
    /// Transient journal-IO retries (see [`SupervisedOutcome::journal_retries`]).
    pub journal_retries: u64,
}

impl SupervisedOutcome {
    /// Copies the run's counters into `registry` under the `fuzzer`,
    /// `supervisor` and `injection` subsystems. The supervised path is
    /// single-threaded and seed-deterministic, so every entry but the
    /// journal-IO retry count is [`MetricClass::Deterministic`].
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        use MetricClass::Deterministic;
        // Journal-IO retry counts reflect host filesystem behaviour, not
        // guest execution, so they ride in the Telemetry class and never
        // appear in `to_json(false)` deterministic artifacts.
        let retries = self.journal_retries;
        registry.counter("supervisor", "journal_io_retries", MetricClass::Telemetry, retries);
        self.stats.record_into(registry, "fuzzer", Deterministic);
        self.health.record_into(registry, Deterministic);
        self.injection.record_into(registry, Deterministic);
    }

    /// A metrics snapshot of this outcome (see
    /// [`SupervisedOutcome::collect_metrics`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut registry = MetricsRegistry::new();
        self.collect_metrics(&mut registry);
        registry.snapshot()
    }
}

/// A resume/continuation point for the supervised loop: everything a
/// process (or a daemon scheduler slice) needs to continue a campaign
/// without re-deriving state.
///
/// Built either from a journal ([`ResumePoint::from_journal`]) after a
/// kill, or returned in-memory by [`run_supervised_span`] at a slice
/// boundary so the next slice continues without touching disk. The
/// default point restarts from iteration 0 (a journal with no checkpoint).
#[derive(Debug, Clone, Default)]
pub struct ResumePoint {
    /// Iterations completed before this point.
    pub iteration: u64,
    /// Complete mutable state, or `None` when the journal holds a `Start`
    /// record but no checkpoint yet: the run restarts from iteration 0
    /// with fresh state, but must *not* re-append `Start` and must dedupe
    /// the records the killed process already journaled.
    pub state: Option<(FuzzerState, SupervisorState)>,
    /// Multiset of findings already journaled at or after this point,
    /// keyed by (input-hash, bug-class code). Replay regenerates these
    /// deterministically; matching appends are suppressed so journal
    /// consumers (the daemon findings store) never see duplicates.
    pub journaled_findings: Vec<(u64, u8)>,
    /// Multiset of corpus additions already journaled at or after this
    /// point, keyed by input-hash (same suppression).
    pub journaled_corpus: Vec<u64>,
}

impl ResumePoint {
    /// Builds the resume point from a loaded journal: the newest
    /// checkpoint (if any) plus the dedupe multisets of records the killed
    /// process journaled after it — replay will regenerate exactly those,
    /// and re-appending them would hand duplicates to whoever consumes the
    /// journal's record stream.
    pub fn from_journal(loaded: &LoadedJournal) -> ResumePoint {
        let cp_index = loaded.records.iter().rposition(|r| matches!(r, Record::Checkpoint(_)));
        let mut point = ResumePoint::default();
        if let Some(Record::Checkpoint(cp)) = cp_index.map(|index| &loaded.records[index]) {
            point.iteration = cp.iteration;
            point.state = Some((cp.fuzzer.clone(), cp.supervisor.clone()));
        }
        let tail = &loaded.records[cp_index.map_or(0, |i| i + 1)..];
        for record in tail {
            match record {
                Record::Finding { finding, .. } => point
                    .journaled_findings
                    .push((program_hash(&finding.program), finding.report.class.code())),
                Record::CorpusAdd { program, .. } => {
                    point.journaled_corpus.push(program_hash(program));
                }
                _ => {}
            }
        }
        point
    }
}

/// Removes one occurrence of `key` from the multiset; `true` if present.
fn consume<T: PartialEq>(set: &mut Vec<T>, key: &T) -> bool {
    match set.iter().position(|k| k == key) {
        Some(pos) => {
            set.swap_remove(pos);
            true
        }
        None => false,
    }
}

/// FNV-1a hash of a program's wire encoding (quarantine identity).
pub fn program_hash(program: &ExecProgram) -> u64 {
    fnv1a(&program.encode())
}

/// FNV-1a hash of a syscall-description set ([`StartInfo::descs_hash`]).
fn descriptions_hash(descs: &[SyscallDesc]) -> u64 {
    let mut bytes = Vec::new();
    for desc in descs {
        bytes.push(desc.nr);
        bytes.push(desc.args.len() as u8);
        bytes.extend(desc.args.iter().map(|&kind| kind as u8));
    }
    fnv1a(&bytes)
}

/// Stamps a fresh campaign's identity hash (`journaled == 0`) or verifies
/// that a resumed run reproduces the journaled one.
fn stamp(journaled: &mut u64, live: u64, what: &'static str) -> Result<(), JournalError> {
    if *journaled == 0 {
        *journaled = live;
    } else if *journaled != live {
        return Err(JournalError::Mismatch { what, journal: *journaled, live });
    }
    Ok(())
}

/// Runs a supervised campaign for one firmware, optionally journaled.
///
/// # Errors
///
/// See [`CampaignError`]; supervised errors carry firmware, iteration and
/// program context.
pub fn run_supervised(
    spec: &FirmwareSpec,
    config: &SupervisorConfig,
    journal_path: Option<&Path>,
) -> Result<SupervisedResult, CampaignError> {
    let start = StartInfo::new(
        spec.name.to_string(),
        paper_strategy(spec),
        &config.campaign,
        config.checkpoint_interval,
    );
    supervise_firmware(spec, SupervisedRun::fresh(start, journal_path), config)
}

/// Resumes a supervised campaign from its journal. The journal alone
/// identifies the firmware, campaign and newest checkpoint (`policy`'s
/// `campaign` and `checkpoint_interval` are not read); the supervisor
/// re-prepares the session deterministically, imports the checkpointed
/// state, and continues — appending to the same journal.
///
/// # Errors
///
/// [`CampaignError`] with a [`JournalError`] kind when the journal is
/// unreadable, corrupt, already ended, or names an unknown firmware.
pub fn resume_supervised(
    journal_path: &Path,
    policy: &SupervisorConfig,
) -> Result<SupervisedResult, CampaignError> {
    let run = SupervisedRun::resume(journal_path)?;
    let spec = firmware_by_name(&run.start.firmware).ok_or_else(|| {
        let unknown = format!("unknown firmware `{}`", run.start.firmware);
        CampaignError::from(JournalError::NotResumable(unknown)).with_firmware(&run.start.firmware)
    })?;
    supervise_firmware(spec, run, policy)
}

/// The one body behind [`run_supervised`] and [`resume_supervised`].
fn supervise_firmware(
    spec: &FirmwareSpec,
    run: SupervisedRun,
    policy: &SupervisorConfig,
) -> Result<SupervisedResult, CampaignError> {
    let (mut session, dict) =
        prepare_session(spec, &run.start.campaign()).map_err(|e| e.with_firmware(spec.name))?;
    let outcome = run
        .run(&mut session, descriptions_for(spec), dict, policy)
        .map_err(|e| e.with_firmware(spec.name))?;
    let found = attribute_findings(spec, &outcome.findings);
    Ok(SupervisedResult {
        result: CampaignResult { firmware: spec.name, found, stats: outcome.stats },
        health: outcome.health,
        injection: outcome.injection,
        completed: outcome.completed,
        trace: outcome.trace,
        journal_retries: outcome.journal_retries,
    })
}

/// A supervised campaign before its session boots: its journaled identity
/// and, for a killed campaign, where it continues. Fresh and resumed runs,
/// library and CLI alike, differ only in how this is built; each then
/// boots a session from [`StartInfo::campaign`] and calls
/// [`SupervisedRun::run`].
#[derive(Debug)]
pub struct SupervisedRun {
    /// The campaign identity: the caller's, or the journal's `Start`.
    pub start: StartInfo,
    /// Where a resumed run continues; `None` for a fresh one.
    pub resume: Option<ResumePoint>,
    /// Whether loading the journal discarded a torn tail.
    pub truncated: bool,
    /// The journal and, when resuming, the intact length to reopen it at
    /// (a fresh run creates it).
    journal: Option<(PathBuf, Option<u64>)>,
}

impl SupervisedRun {
    /// A fresh campaign, journaled to a new file when `journal` is given.
    pub fn fresh(start: StartInfo, journal: Option<&Path>) -> SupervisedRun {
        let journal = journal.map(|path| (path.to_path_buf(), None));
        SupervisedRun { start, resume: None, truncated: false, journal }
    }

    /// A killed campaign, continued from its journal.
    ///
    /// # Errors
    ///
    /// [`CampaignError`] with a [`JournalError`] kind when the journal is
    /// unreadable, corrupt, has no `Start` record or already ended.
    pub fn resume(journal: &Path) -> Result<SupervisedRun, CampaignError> {
        let loaded = Journal::load(journal)?;
        let start = loaded.start()?.clone();
        if loaded.ended() {
            return Err(CampaignError::from(JournalError::NotResumable(
                "campaign already completed".to_string(),
            )));
        }
        Ok(SupervisedRun {
            start,
            // Even without a checkpoint, a resume point carries the dedupe
            // multisets of already-journaled records (and suppresses the
            // duplicate `Start` a fresh restart would otherwise append).
            resume: Some(ResumePoint::from_journal(&loaded)),
            truncated: loaded.truncated,
            journal: Some((journal.to_path_buf(), Some(loaded.valid_len))),
        })
    }

    /// Opens the journal and runs the supervised loop on `session`, which
    /// the caller booted from [`StartInfo::campaign`]; `policy` supplies
    /// everything else (see [`run_supervised_span`]).
    ///
    /// # Errors
    ///
    /// [`CampaignError`] carrying iteration and program context.
    pub fn run(
        self,
        session: &mut Session,
        descs: Vec<SyscallDesc>,
        dict: Dictionary,
        policy: &SupervisorConfig,
    ) -> Result<SupervisedOutcome, CampaignError> {
        let mut journal = match &self.journal {
            None => None,
            Some((path, None)) => Some(Journal::create(path)?),
            Some((path, Some(len))) => Some(Journal::reopen(path, *len)?),
        };
        run_supervised_span(session, descs, dict, policy, self.start, self.resume, journal.as_mut())
            .map(|(outcome, _)| outcome)
    }
}

/// The supervised loop on a booted session. Every campaign parameter,
/// checkpoint cadence included, comes from `start`; `config` supplies only
/// the supervisor policy (its `campaign` and `checkpoint_interval` are not
/// read). Besides the outcome it returns an in-memory [`ResumePoint`] when
/// the run stopped early (`kill_after`), so a scheduler running a campaign
/// in fair-share slices can continue the next slice on the same warm
/// session without a journal round-trip. The journal stays the source of
/// truth — the continuation is a pure optimization and can always be
/// dropped in favour of [`ResumePoint::from_journal`].
///
/// # Errors
///
/// [`CampaignError`] carrying iteration and program context.
pub fn run_supervised_span(
    session: &mut Session,
    descs: Vec<SyscallDesc>,
    dict: Dictionary,
    config: &SupervisorConfig,
    mut start: StartInfo,
    resume: Option<ResumePoint>,
    mut journal: Option<&mut Journal>,
) -> Result<(SupervisedOutcome, Option<ResumePoint>), CampaignError> {
    if let Some(plan) = &config.fault_plan {
        session.machine_mut().set_fault_plan(plan);
    }
    if config.trace {
        // Enabled after boot (prepare_session ran `run_to_ready`), so spans
        // hold only iteration events. The deterministic preset skips cache
        // events, whose timing depends on where a resumed replay starts.
        session.enable_tracing(TraceConfig::deterministic());
    }
    let mut trace = config.trace.then(MergedTrace::default);
    // Stamp or verify the campaign identity before the fuzzer borrows the
    // session. A fresh campaign records the live hashes in its Start
    // record; a resume insists the freshly prepared session reached a
    // bit-identical ready state and generates from the same descriptions —
    // the journal stores only these hashes and the campaign's dirty state,
    // never a RAM image, so drift between kill and resume must be caught
    // here rather than by silent replay divergence.
    stamp(&mut start.base_hash, session.base_hash().unwrap_or(0), "base image")?;
    stamp(&mut start.descs_hash, descriptions_hash(&descs), "syscall descriptions")?;
    let mut fuzzer_config = FuzzerConfig::new(start.strategy, start.seed);
    fuzzer_config.program_budget = start.program_budget;
    let mut fuzzer = Fuzzer::new(session, descs, dict, fuzzer_config);
    // Only a fresh run appends Start. A resume point without state (a
    // journal with a Start record but no checkpoint) restarts from
    // scratch, still deduping whatever the killed process journaled.
    if resume.is_none() {
        if let Some(journal) = journal.as_deref_mut() {
            journal.append(&Record::Start(start.clone()))?;
        }
    }
    let ResumePoint { mut iteration, state, mut journaled_findings, mut journaled_corpus } =
        resume.unwrap_or_default();
    let mut sup = match state {
        Some((fuzzer_state, sup)) => {
            fuzzer.import_state(fuzzer_state);
            sup
        }
        None => SupervisorState::default(),
    };

    let total = start.iterations;
    let mut completed = true;
    while iteration < total {
        if config.kill_after.is_some_and(|k| iteration >= k) {
            completed = false;
            break;
        }
        let mark = fuzzer.session_mut().trace_mark();
        let program = fuzzer.next_program();
        let outcome = execute_with_watchdog(&mut fuzzer, config, &program, &mut sup, iteration)?;
        if let Some(outcome) = outcome {
            let summary = fuzzer
                .commit(&program, outcome)
                .map_err(|e| CampaignError::from(e).context(iteration, &program))?;
            if let Some(journal) = journal.as_deref_mut() {
                // Replayed iterations regenerate records the pre-kill
                // process already journaled; consuming them from the
                // dedupe multisets instead of re-appending keeps the
                // record stream duplicate-free for downstream consumers.
                if summary.retained && !consume(&mut journaled_corpus, &program_hash(&program)) {
                    journal.append(&Record::CorpusAdd { iteration, program: program.clone() })?;
                }
                for finding in &fuzzer.findings()[summary.new_findings] {
                    let key = (program_hash(&finding.program), finding.report.class.code());
                    if !consume(&mut journaled_findings, &key) {
                        journal.append(&Record::Finding { iteration, finding: finding.clone() })?;
                    }
                }
            }
        }
        if let Some(trace) = &mut trace {
            // Drained after commit so minimization re-executions are part
            // of the iteration's span (they are deterministic replays).
            let events = fuzzer.session_mut().drain_trace(mark);
            trace.push_span(TraceSpan { iter: iteration, events });
        }
        iteration += 1;
        if start.checkpoint_interval > 0
            && iteration % start.checkpoint_interval == 0
            && iteration < total
        {
            if let Some(journal) = journal.as_deref_mut() {
                sup.health.checkpoints += 1;
                journal.append(&Record::Checkpoint(Checkpoint {
                    iteration,
                    fuzzer: fuzzer.export_state(),
                    supervisor: sup.clone(),
                }))?;
            }
        }
    }
    if completed {
        if let Some(journal) = journal.as_deref_mut() {
            // A final checkpoint ahead of `End` lets a restarted daemon
            // recover a completed job's full end state (stats, corpus,
            // findings) from the journal alone. Ended journals are never
            // resumed, so mid-campaign resume points are unaffected.
            if start.checkpoint_interval > 0 {
                sup.health.checkpoints += 1;
                journal.append(&Record::Checkpoint(Checkpoint {
                    iteration,
                    fuzzer: fuzzer.export_state(),
                    supervisor: sup.clone(),
                }))?;
            }
            journal.append(&Record::End { iterations: iteration })?;
        }
    }
    let continuation = (!completed).then(|| ResumePoint {
        iteration,
        state: Some((fuzzer.export_state(), sup.clone())),
        journaled_findings,
        journaled_corpus,
    });
    let stats = fuzzer.stats();
    let injection = fuzzer.session_mut().machine_mut().injection_stats();
    let journal_retries = journal.as_deref().map_or(0, |j| j.io_retries());
    Ok((
        SupervisedOutcome {
            findings: fuzzer.into_findings(),
            stats,
            health: sup.health,
            quarantined: sup.quarantined,
            iterations_done: iteration,
            completed,
            injection,
            trace,
            journal_retries,
        },
        continuation,
    ))
}

/// Executes one program under the watchdog. Returns `Ok(None)` when the
/// input wedged through all retries and was quarantined.
fn execute_with_watchdog(
    fuzzer: &mut Fuzzer<'_>,
    config: &SupervisorConfig,
    program: &ExecProgram,
    sup: &mut SupervisorState,
    iteration: u64,
) -> Result<Option<embsan_core::session::ExecOutcome>, CampaignError> {
    let mut transient: u32 = 0;
    let mut wedges: u32 = 0;
    loop {
        let outcome = match fuzzer.run_raw(program) {
            Ok(outcome) => outcome,
            Err(err) => {
                // Transient harness error: bounded retry. The next run_raw
                // starts from a snapshot restore, which is the recovery.
                transient += 1;
                sup.health.transient_retries += 1;
                if transient > config.max_transient_retries {
                    return Err(CampaignError::from(err).context(iteration, program));
                }
                continue;
            }
        };
        if fuzzer.session_mut().mmio_withheld() && outcome.exit == RunExit::BudgetExhausted {
            // Withheld MMIO: the guest's result writes are absorbed by the
            // model-free region, so programs run to their fixed time slice
            // — budget exhaustion is the normal end of an iteration, not a
            // hang to classify.
            return Ok(Some(outcome));
        }
        // Any other exit ends the iteration normally: `AllIdle` or, on SMP
        // firmware whose secondary vCPU never idles, `ProgramDone` once every
        // call is answered; a fault or halt is a finding for the fuzzer.
        if outcome.exit != RunExit::BudgetExhausted {
            if outcome.exit == RunExit::AllIdle && outcome.results.len() < program.calls.len() {
                // Guest parked mid-program: asleep, not spinning. Nothing to
                // recover — the next reset unsticks it.
                sup.health.wfi_hangs += 1;
            }
            return Ok(Some(outcome));
        }
        // Budget exhausted: ask the hang classifier whether the guest is
        // idle, responsive-but-slow, or live-locked.
        let class = fuzzer
            .session_mut()
            .machine_mut()
            .classify_hang(&mut embsan_emu::NullHook, config.hang_slices, config.hang_slice_budget)
            .map_err(|e| {
                CampaignError::from(embsan_core::session::SessionError::Emu(e))
                    .context(iteration, program)
            })?;
        let trip = match class {
            HangClass::WfiIdle => "wfi-idle",
            HangClass::Responsive => "responsive",
            HangClass::LiveLock => "live-lock",
        };
        fuzzer.session_mut().tracer().record(EventKind::WatchdogTrip { class: trip });
        match class {
            HangClass::WfiIdle => {
                sup.health.wfi_hangs += 1;
                return Ok(Some(outcome));
            }
            HangClass::Responsive => return Ok(Some(outcome)),
            HangClass::LiveLock => {
                sup.health.wedges += 1;
                wedges += 1;
                if wedges > config.max_wedge_retries {
                    fuzzer.quarantine(program);
                    let hash = program_hash(program);
                    if let Err(index) = sup.quarantined.binary_search(&hash) {
                        sup.quarantined.insert(index, hash);
                    }
                    sup.health.quarantined += 1;
                    return Ok(None);
                }
                // Snapshot-restore recovery happens in run_raw's reset on
                // the retry; count it as such.
                sup.health.recoveries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_hash_is_stable_and_content_sensitive() {
        let mut a = ExecProgram::new();
        a.push(2, &[64, 0]);
        let mut b = ExecProgram::new();
        b.push(2, &[64, 1]);
        assert_eq!(program_hash(&a), program_hash(&a));
        assert_ne!(program_hash(&a), program_hash(&b));
        assert_ne!(program_hash(&a), program_hash(&ExecProgram::new()));
    }
}
