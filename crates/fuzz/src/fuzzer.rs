//! The inline fuzzing driver and the types every driver shares.

use embsan_core::report::{BugClass, Report};
use embsan_core::session::{ExecOutcome, Session, SessionError};
use embsan_guestos::executor::ExecProgram;
use embsan_obs::{MetricClass, MetricsRegistry};

use crate::cover::{buckets_set, CoverageMap};
use crate::descs::SyscallDesc;
use crate::dictionary::Dictionary;
use crate::epoch::{execute, triage_new, Admit, Campaign};

/// Where execution coverage comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageSource {
    /// OS-agnostic edge coverage from the emulator's translation-block
    /// events (the Tardis mechanism; the default).
    Emulator,
    /// kcov-style guest-assisted coverage from the firmware's coverage-port
    /// beacons (requires a build with `BuildOptions::kcov`). Function-entry
    /// granular — too coarse to climb intra-function branch stages, which
    /// is exactly what the coverage-source ablation demonstrates.
    Guest,
}

/// Fuzzing strategy (which paper fuzzer is modelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Syzkaller-style: typed syscall descriptions.
    Syz,
    /// Tardis-style: interface shape only, emulator-side coverage.
    Tardis,
}

/// Fuzzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzerConfig {
    /// RNG seed (runs are fully deterministic under a seed).
    pub seed: u64,
    /// Strategy.
    pub strategy: Strategy,
    /// Instruction budget per program execution.
    pub program_budget: u64,
    /// Run the deterministic dictionary stage on new corpus entries
    /// (disable for ablation studies).
    pub deterministic_stage: bool,
    /// Coverage collection mechanism.
    pub coverage_source: CoverageSource,
}

impl FuzzerConfig {
    /// Defaults for a strategy.
    pub fn new(strategy: Strategy, seed: u64) -> FuzzerConfig {
        FuzzerConfig {
            seed,
            strategy,
            program_budget: 3_000_000,
            deterministic_stage: true,
            coverage_source: CoverageSource::Emulator,
        }
    }
}

/// Aggregate fuzzing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzerStats {
    /// Iterations run (minimization re-executions and watchdog retries
    /// are not counted).
    pub execs: u64,
    /// Corpus entries retained.
    pub corpus: usize,
    /// Coverage buckets reached.
    pub coverage: usize,
    /// Findings (deduplicated, minimized).
    pub findings: usize,
}

impl FuzzerStats {
    /// Copies these stats into `registry` under `subsystem`: `execs` as a
    /// counter, `corpus`, `coverage` and `findings` as gauges.
    pub fn record_into(&self, registry: &mut MetricsRegistry, subsystem: &str, class: MetricClass) {
        registry.counter(subsystem, "execs", class, self.execs);
        registry.gauge(subsystem, "corpus", class, self.corpus as i64);
        registry.gauge(subsystem, "coverage", class, self.coverage as i64);
        registry.gauge(subsystem, "findings", class, self.findings as i64);
    }
}

/// One triaged finding: a sanitizer report with its minimized reproducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The sanitizer report.
    pub report: Report,
    /// The minimized reproducer program.
    pub program: ExecProgram,
    /// Bug-syscall numbers remaining in the reproducer (attribution).
    pub bug_syscalls: Vec<u8>,
}

/// What a [`Fuzzer::commit`] did, for supervisor journaling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitSummary {
    /// Whether the program was retained in the corpus (novel coverage).
    pub retained: bool,
    /// Index range of findings appended by this commit.
    pub new_findings: std::ops::Range<usize>,
}

/// The complete mutable fuzzer state, exported for campaign journaling:
/// everything that influences future iterations (each iteration's RNG is a
/// pure function of its index and the seed), so a killed campaign resumed
/// from a checkpoint continues bit-identically to one never killed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzerState {
    /// Iterations run so far (the next iteration's index).
    pub execs: u64,
    /// Corpus programs in retention order.
    pub corpus_entries: Vec<ExecProgram>,
    /// Global classified coverage map (MAP_SIZE bytes).
    pub global_map: Vec<u8>,
    /// Pending dictionary-stage candidates, oldest first.
    pub det_pending: Vec<ExecProgram>,
    /// Dictionary-stage sites already enumerated, sorted canonically.
    pub det_seen: Vec<(u8, u32, u32)>,
    /// Triaged findings so far.
    pub findings: Vec<Finding>,
    /// The findings' [`Report::dedup_key`]s, sorted canonically.
    pub dedup_keys: Vec<(BugClass, u32, u64)>,
}

impl FuzzerState {
    /// The statistics of the campaign at this state.
    pub fn stats(&self) -> FuzzerStats {
        FuzzerStats {
            execs: self.execs,
            corpus: self.corpus_entries.len(),
            coverage: buckets_set(&self.global_map),
            findings: self.findings.len(),
        }
    }
}

/// A coverage-guided fuzzer bound to a sanitized session: the inline
/// driver of the [`crate::epoch`] algorithm, one iteration per epoch, on
/// the caller's session. [`crate::parallel::run_parallel`] with
/// `epoch_len: 1` reports exactly what [`Fuzzer::run`] does.
pub struct Fuzzer<'s> {
    session: &'s mut Session,
    campaign: Campaign,
    coverage: CoverageMap,
    config: FuzzerConfig,
}

impl std::fmt::Debug for Fuzzer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fuzzer").field("stats", &self.stats()).finish_non_exhaustive()
    }
}

impl<'s> Fuzzer<'s> {
    /// Creates a fuzzer over a ready session.
    ///
    /// The session must already have passed [`Session::run_to_ready`];
    /// coverage collection is armed here, and the runtime's report dedup is
    /// switched off (the fuzzer dedups findings itself, on
    /// [`Report::dedup_key`], and triage must see repeats).
    pub fn new(
        session: &'s mut Session,
        descs: Vec<SyscallDesc>,
        dict: Dictionary,
        config: FuzzerConfig,
    ) -> Fuzzer<'s> {
        match config.coverage_source {
            CoverageSource::Emulator => session.enable_block_coverage(),
            CoverageSource::Guest => {
                session.machine_mut().bus_mut().devices.cov.set_enabled(true);
            }
        }
        session.runtime_mut().dedup_enabled = false;
        let FuzzerConfig { strategy, seed, deterministic_stage, .. } = config;
        let campaign = Campaign::new(descs, dict, strategy, seed, deterministic_stage);
        Fuzzer { session, campaign, coverage: CoverageMap::new(), config }
    }

    /// Current statistics.
    pub fn stats(&self) -> FuzzerStats {
        self.campaign.stats()
    }

    /// The triaged findings so far.
    pub fn findings(&self) -> &[Finding] {
        &self.campaign.findings
    }

    /// Consumes the fuzzer, returning its findings.
    pub fn into_findings(self) -> Vec<Finding> {
        self.campaign.findings
    }

    /// Runs `iterations` fuzzing iterations.
    ///
    /// # Errors
    ///
    /// Propagates session failures (which indicate harness bugs, not
    /// guest crashes — guest faults are findings).
    pub fn run(&mut self, iterations: u64) -> Result<(), SessionError> {
        for _ in 0..iterations {
            let program = self.next_program();
            self.execute_one(&program)?;
        }
        Ok(())
    }

    /// Starts the next iteration and returns its program: the newest
    /// pending dictionary-stage candidate, else a program drawn from the
    /// iteration's RNG and the corpus (see [`crate::epoch`]).
    pub fn next_program(&mut self) -> ExecProgram {
        let program = self.campaign.program(self.campaign.execs);
        self.campaign.advance(1);
        program
    }

    /// Runs and commits `program` ([`Fuzzer::run_raw`], [`Fuzzer::commit`]).
    /// Outside [`Fuzzer::run`] (say, to seed the corpus) it starts no
    /// iteration: the schedule and the iteration count stay where they are.
    ///
    /// # Errors
    ///
    /// Propagates session failures.
    pub fn execute_one(&mut self, program: &ExecProgram) -> Result<(), SessionError> {
        let outcome = self.run_raw(program)?;
        self.commit(program, outcome)?;
        Ok(())
    }

    /// Resets the session and runs `program` once, collecting coverage into
    /// the per-run map, *without* committing anything to the corpus or the
    /// findings. Supervisors use this to inspect the outcome (wedged? slow?)
    /// before deciding whether to [`Fuzzer::commit`], retry, or quarantine.
    ///
    /// # Errors
    ///
    /// Propagates session failures.
    pub fn run_raw(&mut self, program: &ExecProgram) -> Result<ExecOutcome, SessionError> {
        let FuzzerConfig { program_budget, coverage_source, .. } = self.config;
        execute(self.session, &mut self.coverage, program, program_budget, coverage_source)
    }

    /// Commits a [`Fuzzer::run_raw`] outcome: triage of the reports not
    /// seen before, then the one-iteration merge (corpus novelty gating,
    /// finding dedup, dictionary-stage expansion). Returns whether the
    /// program was retained and which findings it produced (so a supervisor
    /// can journal both).
    ///
    /// # Errors
    ///
    /// Propagates session failures from reproducer minimization.
    pub fn commit(
        &mut self,
        program: &ExecProgram,
        outcome: ExecOutcome,
    ) -> Result<CommitSummary, SessionError> {
        let budget = self.config.program_budget;
        let findings =
            triage_new(self.session, program, outcome.reports, budget, &self.campaign.seen)?;
        let cover = &self.coverage.classified_sparse();
        Ok(self.campaign.merge([Admit { program, cover, findings }]))
    }

    /// The session driving this fuzzer (supervisors need machine access for
    /// hang classification and snapshot-restore recovery).
    pub fn session_mut(&mut self) -> &mut Session {
        self.session
    }

    /// Removes every copy of `program` from the corpus and the
    /// dictionary-stage candidates (input quarantine: the input repeatedly
    /// wedged the guest, so it must never be scheduled or mutated again).
    /// The coverage it contributed stays — the coverage was real.
    pub fn quarantine(&mut self, program: &ExecProgram) {
        self.campaign.quarantine(program);
    }

    /// Exports the complete mutable fuzzer state for journaling. Together
    /// with a deterministically rebuilt session, importing this state
    /// resumes the campaign bit-identically.
    pub fn export_state(&self) -> FuzzerState {
        self.campaign.export()
    }

    /// Restores state exported by [`Fuzzer::export_state`].
    pub fn import_state(&mut self, state: FuzzerState) {
        self.campaign.import(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsan_core::probe::{probe, ProbeMode};
    use embsan_core::reference_specs;
    use embsan_core::report::BugClass;
    use embsan_emu::profile::Arch;
    use embsan_guestos::bugs::{BugKind, BugSpec};
    use embsan_guestos::executor::sys;
    use embsan_guestos::{os, BuildOptions, SanMode};

    fn ready_session(bugs: &[BugSpec]) -> (Session, embsan_asm::FirmwareImage) {
        ready_session_opts(BuildOptions::new(Arch::Armv).san(SanMode::SanCall), bugs)
    }

    fn ready_session_opts(
        opts: BuildOptions,
        bugs: &[BugSpec],
    ) -> (Session, embsan_asm::FirmwareImage) {
        let image = os::emblinux::build(&opts, bugs).unwrap();
        let specs = reference_specs().unwrap();
        let artifacts = probe(&image, ProbeMode::CompileTime, None).unwrap();
        let mut session = Session::new(&image, &specs, &artifacts).unwrap();
        session.run_to_ready(100_000_000).unwrap();
        (session, image)
    }

    fn descs_with_bugs(n: usize) -> Vec<SyscallDesc> {
        let mut descs = crate::descs::base_descriptions();
        for i in 0..n {
            descs.push(SyscallDesc {
                nr: sys::BUG_BASE + i as u8,
                args: vec![crate::descs::ArgKind::Key],
            });
        }
        descs
    }

    /// The headline capability test: a coverage-guided fuzzer with a
    /// binary-extracted dictionary finds a staged magic-gated bug that
    /// blind generation cannot hit, and EMBSAN reports it.
    #[test]
    fn fuzzer_finds_gated_bug_with_dictionary() {
        let bug = BugSpec::new("fuzz/target", BugKind::OobWrite);
        let (mut session, image) = ready_session(std::slice::from_ref(&bug));
        let dict = Dictionary::extract(&image);
        let config = FuzzerConfig::new(Strategy::Syz, 42);
        let mut fuzzer = Fuzzer::new(&mut session, descs_with_bugs(1), dict, config);
        // Generous but bounded budget; the staged gates need coverage
        // feedback to climb.
        let mut found = false;
        for _ in 0..60 {
            fuzzer.run(250).unwrap();
            if !fuzzer.findings().is_empty() {
                found = true;
                break;
            }
        }
        assert!(found, "stats: {:?}", fuzzer.stats());
        let finding = &fuzzer.findings()[0];
        assert_eq!(finding.report.class, BugClass::HeapOob);
        // Triage minimized the reproducer down to the trigger call.
        assert_eq!(finding.program.calls.len(), 1);
        assert_eq!(finding.bug_syscalls, vec![sys::BUG_BASE]);
    }

    /// The directed-fuzzing capability test: a wide (single-comparison,
    /// multi-byte) gate has no intermediate stages for coverage feedback to
    /// climb, so the staged-dictionary fuzzer stays blind — but the
    /// analysis artifact's harvested comparison operand opens it.
    #[test]
    fn fuzzer_finds_gated_bug_with_harvested_operand() {
        let bug = BugSpec::new("fuzz/wide", BugKind::OobWrite);
        let opts = BuildOptions::new(Arch::Armv).san(SanMode::SanCall).wide_gates(true);
        let (mut session, image) = ready_session_opts(opts, std::slice::from_ref(&bug));
        let operands = embsan_analysis::AnalysisArtifact::from_image(&image).operands();
        let key = embsan_guestos::bugs::wide_trigger_key("fuzz/wide");
        assert!(operands.contains(&key), "wide key must be harvested");

        let dict = Dictionary::extract(&image);
        let config = FuzzerConfig::new(Strategy::Syz, 42);
        let wide = dict.clone().with_wide(&operands);
        let mut fuzzer = Fuzzer::new(&mut session, descs_with_bugs(1), wide, config);
        let mut found = false;
        for _ in 0..60 {
            fuzzer.run(250).unwrap();
            if !fuzzer.findings().is_empty() {
                found = true;
                break;
            }
        }
        assert!(found, "directed stats: {:?}", fuzzer.stats());
        let finding = &fuzzer.findings()[0];
        assert_eq!(finding.report.class, BugClass::HeapOob);
        assert_eq!(finding.bug_syscalls, vec![sys::BUG_BASE]);

        // Control: the immediate-only dictionary never reassembles the
        // 4-byte key (both halves require a lui+ori pair), so an undirected
        // fuzzer with the same budget finds nothing behind the wide gate.
        let mut control = Fuzzer::new(
            &mut session,
            descs_with_bugs(1),
            dict,
            FuzzerConfig::new(Strategy::Syz, 42),
        );
        control.run(4000).unwrap();
        assert!(
            control.findings().is_empty(),
            "undirected fuzzer should not pass the wide gate: {:?}",
            control.stats()
        );
    }

    #[test]
    fn fuzzing_is_deterministic_under_a_seed() {
        let bug = BugSpec::new("fuzz/det", BugKind::Uaf);
        let run = || {
            let (mut session, image) = ready_session(std::slice::from_ref(&bug));
            let dict = Dictionary::extract(&image);
            let config = FuzzerConfig::new(Strategy::Tardis, 7);
            let mut fuzzer = Fuzzer::new(&mut session, descs_with_bugs(1), dict, config);
            fuzzer.run(300).unwrap();
            (fuzzer.stats(), fuzzer.campaign.corpus.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corpus_grows_on_clean_firmware() {
        let (mut session, image) = ready_session(&[]);
        let dict = Dictionary::extract(&image);
        let config = FuzzerConfig::new(Strategy::Syz, 3);
        let mut fuzzer = Fuzzer::new(&mut session, descs_with_bugs(0), dict, config);
        fuzzer.run(120).unwrap();
        let stats = fuzzer.stats();
        assert_eq!(stats.execs, 120);
        assert!(stats.corpus > 3, "coverage-novel inputs retained: {stats:?}");
        assert!(stats.findings == 0);
    }
}
