//! The coverage-guided fuzzing loop with crash triage.

use embsan_core::report::{BugClass, Report};
use embsan_core::session::{ExecOutcome, Session, SessionError};
use embsan_guestos::executor::{sys, ExecProgram};
use embsan_obs::{MetricClass, MetricsRegistry};

use crate::corpus::Corpus;
use crate::cover::{buckets_set, CoverageMap, MAP_SIZE};
use crate::descs::SyscallDesc;
use crate::dictionary::Dictionary;
use crate::mutate::Mutator;
use crate::rng::SplitMix64;

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
    /// Programs executed.
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

/// The complete mutable fuzzer state, exported for campaign journaling.
///
/// Everything that influences future iterations is here — RNG state, the
/// corpus with its global coverage map, the deterministic-stage queue and
/// its dedup set, findings, and the session runtime's report-dedup keys —
/// so a killed campaign resumed from a checkpoint continues bit-identically
/// to one that was never killed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzerState {
    /// Raw SplitMix64 state.
    pub rng_state: u64,
    /// Programs executed so far.
    pub execs: u64,
    /// Corpus programs in retention order.
    pub corpus_entries: Vec<ExecProgram>,
    /// Global classified coverage map (MAP_SIZE bytes).
    pub global_map: Vec<u8>,
    /// Pending deterministic-stage candidates (popped from the back).
    pub det_pending: Vec<ExecProgram>,
    /// Deterministic-stage sites already enumerated, sorted canonically.
    pub det_seen: Vec<(u8, u32, u32)>,
    /// Triaged findings so far.
    pub findings: Vec<Finding>,
    /// Session-runtime report-dedup keys, sorted canonically.
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

/// Triages one sanitizer report of `program` into a [`Finding`] ("all found
/// bugs are reproducible", §4.2): greedily drops calls while the report's
/// class still fires from the pristine snapshot, then collects the bug
/// syscalls left in the reproducer. A pure function of the program and the
/// report. The session's report dedup must be off, or a repeat of an
/// already-reported bug would not show.
///
/// # Errors
///
/// Propagates session failures from the reproduction runs.
pub fn triage(
    session: &mut Session,
    program: &ExecProgram,
    report: Report,
    budget: u64,
) -> Result<Finding, SessionError> {
    let mut current = program.clone();
    let mut index = 0;
    while current.calls.len() > 1 && index < current.calls.len() {
        let mut candidate = current.clone();
        candidate.calls.remove(index);
        session.reset()?;
        let outcome = session.run_program(&candidate, budget)?;
        if outcome.reports.iter().any(|r| r.class == report.class) {
            current = candidate;
        } else {
            index += 1;
        }
    }
    let bug_syscalls =
        current.calls.iter().map(|c| c.nr).filter(|&nr| nr >= sys::BUG_BASE).collect();
    Ok(Finding { report, program: current, bug_syscalls })
}

/// A coverage-guided fuzzer bound to a sanitized session.
pub struct Fuzzer<'s> {
    session: &'s mut Session,
    mutator: Mutator,
    corpus: Corpus,
    coverage: CoverageMap,
    rng: SplitMix64,
    config: FuzzerConfig,
    findings: Vec<Finding>,
    execs: u64,
    dict_bytes: Vec<u8>,
    /// Harvested wide operands the deterministic stage substitutes whole
    /// (empty unless the dictionary carries an analysis harvest).
    wide: Vec<u32>,
    /// Syscall numbers carrying `Key` arguments (deterministic-stage focus
    /// under the Syz strategy).
    key_nrs: Vec<u8>,
    /// Pending deterministic-stage candidates (expanded from newly
    /// retained corpus entries).
    det_pending: Vec<ExecProgram>,
    /// Sites already enumerated by the deterministic stage, keyed by
    /// `(syscall, argument index, current value)`: corpus entries that
    /// differ only in coverage counts would otherwise re-expand identical
    /// candidate sets and starve the queue.
    det_seen: std::collections::HashSet<(u8, usize, u32)>,
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
    /// block-coverage probes are armed here.
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
        let dict_bytes = dict.bytes();
        let wide = dict.wide().to_vec();
        let key_nrs: Vec<u8> = descs
            .iter()
            .filter(|d| d.args.contains(&crate::descs::ArgKind::Key))
            .map(|d| d.nr)
            .collect();
        Fuzzer {
            session,
            mutator: Mutator::new(descs, dict, config.strategy),
            corpus: Corpus::new(),
            coverage: CoverageMap::new(),
            rng: SplitMix64::seed_from_u64(config.seed),
            config,
            findings: Vec::new(),
            execs: 0,
            dict_bytes,
            wide,
            key_nrs,
            det_pending: Vec::new(),
            det_seen: std::collections::HashSet::new(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> FuzzerStats {
        FuzzerStats {
            execs: self.execs,
            corpus: self.corpus.len(),
            coverage: self.corpus.coverage_buckets(),
            findings: self.findings.len(),
        }
    }

    /// The triaged findings so far.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Consumes the fuzzer, returning its findings.
    pub fn into_findings(self) -> Vec<Finding> {
        self.findings
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

    /// Chooses the next program to execute. Deterministic given the fuzzer
    /// state: the deterministic-stage queue is drained first (AFL's
    /// deterministic phase — bounded, systematically enumerating dictionary
    /// bytes over the new seed's arguments), then generation vs. corpus
    /// mutation is an RNG draw.
    pub fn next_program(&mut self) -> ExecProgram {
        if let Some(candidate) = self.det_pending.pop() {
            candidate
        } else if self.corpus.is_empty() || self.rng.gen_bool(0.2) {
            self.mutator.generate(&mut self.rng)
        } else {
            let pick = self.rng.gen_usize();
            // Infallible: this branch is only reached when `corpus.is_empty()`
            // was false, and nothing in between mutates the corpus.
            let seed = self.corpus.pick(pick).expect("non-empty corpus").clone();
            self.mutator.mutate(&seed, &mut self.rng)
        }
    }

    /// Expands the deterministic dictionary stage for a newly retained
    /// seed: every dictionary byte substituted into the low two byte
    /// positions of every eligible argument. Under the Syz strategy only
    /// `Key`-carrying syscalls are eligible (the descriptions say where
    /// magic values live); Tardis enumerates every argument.
    fn expand_deterministic(&mut self, seed: &ExecProgram) {
        for (call_index, call) in seed.calls.iter().enumerate() {
            if self.config.strategy == Strategy::Syz && !self.key_nrs.contains(&call.nr) {
                continue;
            }
            for arg_index in 0..call.args.len() {
                if !self.det_seen.insert((call.nr, arg_index, call.args[arg_index])) {
                    continue; // this site/value was already enumerated
                }
                for shift in [0u32, 8] {
                    for &byte in &self.dict_bytes {
                        let mut candidate = seed.clone();
                        let arg = &mut candidate.calls[call_index].args[arg_index];
                        *arg = (*arg & !(0xFF << shift)) | (u32::from(byte) << shift);
                        self.det_pending.push(candidate);
                    }
                }
                // Harvested wide operands are substituted whole — byte-wise
                // splicing cannot build a multi-piece constant one stage at
                // a time because a wide gate has no intermediate stages to
                // reward.
                for &operand in &self.wide {
                    let mut candidate = seed.clone();
                    candidate.calls[call_index].args[arg_index] = operand;
                    self.det_pending.push(candidate);
                }
            }
        }
        // Bound the queue: drop the oldest work beyond a generous cap
        // (newest candidates are popped first — depth-first behaviour).
        const DET_CAP: usize = 16384;
        if self.det_pending.len() > DET_CAP {
            let excess = self.det_pending.len() - DET_CAP;
            self.det_pending.drain(..excess);
        }
    }

    /// Executes one program end to end: raw run, then commit. The plain
    /// (unsupervised) iteration step.
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
        self.coverage.reset();
        self.session.reset()?;
        // Model-free MMIO stream installation happens inside
        // `run_program_observed` — the stream is a pure function of the
        // program, so refinement depends only on (firmware, seed).
        let Fuzzer { session, coverage, .. } = self;
        let outcome =
            session.run_program_observed(program, self.config.program_budget, coverage)?;
        if self.config.coverage_source == CoverageSource::Guest {
            for id in self.session.machine_mut().bus_mut().devices.cov.take_edges() {
                self.coverage.record_id(id);
            }
        }
        self.execs += 1;
        Ok(outcome)
    }

    /// Commits a [`Fuzzer::run_raw`] outcome: corpus novelty gating,
    /// deterministic-stage expansion, and crash triage with minimization.
    /// Returns whether the program was retained and how many findings it
    /// produced (so a supervisor can journal both).
    ///
    /// # Errors
    ///
    /// Propagates session failures from reproducer minimization.
    pub fn commit(
        &mut self,
        program: &ExecProgram,
        outcome: ExecOutcome,
    ) -> Result<CommitSummary, SessionError> {
        let retained = self.corpus.add_if_novel(program, &self.coverage);
        if retained && self.config.deterministic_stage {
            self.expand_deterministic(program);
        }
        let first_finding = self.findings.len();
        let (session, budget) = (&mut *self.session, self.config.program_budget);
        let dedup = std::mem::replace(&mut session.runtime_mut().dedup_enabled, false);
        let triaged: Result<Vec<Finding>, SessionError> = outcome
            .reports
            .into_iter()
            .map(|report| triage(session, program, report, budget))
            .collect();
        session.runtime_mut().dedup_enabled = dedup;
        self.findings.extend(triaged?);
        Ok(CommitSummary { retained, new_findings: first_finding..self.findings.len() })
    }

    /// The session driving this fuzzer (supervisors need machine access for
    /// hang classification and snapshot-restore recovery).
    pub fn session_mut(&mut self) -> &mut Session {
        self.session
    }

    /// Removes every copy of `program` from the corpus and the
    /// deterministic-stage queue (input quarantine: the input repeatedly
    /// wedged the guest, so it must never be scheduled or mutated again).
    /// The coverage it contributed stays — the coverage was real.
    pub fn quarantine(&mut self, program: &ExecProgram) {
        self.corpus.retain(|entry| entry != program);
        self.det_pending.retain(|entry| entry != program);
    }

    /// Exports the complete mutable fuzzer state for journaling. Together
    /// with a deterministically rebuilt session, importing this state
    /// resumes the campaign bit-identically.
    pub fn export_state(&self) -> FuzzerState {
        let mut det_seen: Vec<(u8, u32, u32)> =
            self.det_seen.iter().map(|&(nr, idx, val)| (nr, idx as u32, val)).collect();
        det_seen.sort_unstable();
        FuzzerState {
            rng_state: self.rng.state(),
            execs: self.execs,
            corpus_entries: self.corpus.entries().to_vec(),
            global_map: self.corpus.global_map().to_vec(),
            det_pending: self.det_pending.clone(),
            det_seen,
            findings: self.findings.clone(),
            dedup_keys: self.session.runtime().dedup_keys(),
        }
    }

    /// Restores state exported by [`Fuzzer::export_state`], including
    /// re-seeding the session runtime's report deduplication.
    ///
    /// Silently ignores a wrong-sized coverage map (it only costs novelty
    /// precision, never correctness).
    pub fn import_state(&mut self, state: FuzzerState) {
        self.rng = SplitMix64::seed_from_u64(state.rng_state);
        self.execs = state.execs;
        let mut global = Box::new([0u8; MAP_SIZE]);
        if state.global_map.len() == MAP_SIZE {
            global.copy_from_slice(&state.global_map);
        }
        self.corpus = Corpus::from_parts(state.corpus_entries, global);
        self.det_pending = state.det_pending;
        self.det_seen =
            state.det_seen.into_iter().map(|(nr, idx, val)| (nr, idx as usize, val)).collect();
        self.findings = state.findings;
        self.session.runtime_mut().seed_dedup(state.dedup_keys);
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
            (fuzzer.stats(), fuzzer.corpus.coverage_buckets())
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
