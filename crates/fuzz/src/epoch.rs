//! The fuzzing algorithm: one iteration step, one dictionary schedule and
//! one canonical merge.
//!
//! Two drivers run it, and they differ only in how they run iterations:
//! [`crate::fuzzer::Fuzzer`] runs one iteration per epoch inline on the
//! caller's session, and [`crate::parallel::run_parallel`] runs each
//! epoch's iterations on N worker sessions.
//!
//! # Determinism argument
//!
//! The iteration space is cut into epochs. Iteration `i`, `k` iterations
//! into its epoch, is a pure function of the campaign seed, `i`, `k` and
//! the campaign state at the epoch start ([`Campaign`]). Nothing it
//! computes depends on which worker ran it or when:
//!
//! 1. **Program.** The deterministic dictionary stage is a schedule over
//!    iteration indices: offset `k` runs the `k`-th newest pending
//!    candidate while any are left. Every other iteration derives its
//!    program from [`iter_rng`]`(seed, i)` and the epoch-start corpus.
//! 2. **Step.** The session resets to the ready-point snapshot, so an
//!    execution's coverage and reports are a pure function of its program.
//!    Only reports whose dedup key the epoch start has not seen are
//!    triaged, each key once per execution ([`triage_new`]).
//! 3. **Merge.** At the epoch's end the candidates it ran are dropped
//!    ([`Campaign::advance`]) and the results are admitted in iteration
//!    order ([`Campaign::merge`]): coverage novelty gates the corpus,
//!    findings dedup on [`Report::dedup_key`], and every admitted entry
//!    expands new candidates.
//!
//! At one iteration per epoch this is the classic sequential loop: pop the
//! newest candidate, run it, expand what it retained.

use std::collections::HashSet;

use embsan_core::report::{BugClass, Report};
use embsan_core::session::{ExecOutcome, Session, SessionError};
use embsan_guestos::executor::{sys, ExecProgram};

use crate::cover::{buckets_set, CoverageMap, MAP_SIZE};
use crate::descs::{ArgKind, SyscallDesc};
use crate::dictionary::Dictionary;
use crate::fuzzer::{CommitSummary, CoverageSource, Finding, FuzzerState, FuzzerStats, Strategy};
use crate::mutate::Mutator;
use crate::rng::{SplitMix64, GOLDEN};

/// A report's dedup identity ([`Report::dedup_key`]).
type DedupKey = (BugClass, u32, u64);

/// Bound on the pending dictionary-stage candidates: expansion drops the
/// oldest beyond it (the newest run first — depth-first behaviour).
const DET_CAP: usize = 16384;

/// The RNG for iteration `iter`: a pure function of the campaign seed and
/// the iteration index, independent of scheduling. Iteration `i` draws
/// from the seed's own SplitMix64 sequence, starting `i * 2^32` draws in
/// (a jump-ahead is one multiply), so iterations draw from disjoint
/// blocks and iteration 0 draws what a single-stream fuzzer would.
pub(crate) fn iter_rng(seed: u64, iter: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed.wrapping_add((iter << 32).wrapping_mul(GOLDEN)))
}

/// Resets `session` and runs `program` once, collecting its coverage into
/// `coverage`.
///
/// # Errors
///
/// Propagates session failures.
pub(crate) fn execute(
    session: &mut Session,
    coverage: &mut CoverageMap,
    program: &ExecProgram,
    budget: u64,
    source: CoverageSource,
) -> Result<ExecOutcome, SessionError> {
    coverage.reset();
    session.reset()?;
    // Model-free MMIO stream installation happens inside
    // `run_program_observed` — the stream is a pure function of the
    // program, so refinement depends only on (firmware, seed).
    let outcome = session.run_program_observed(program, budget, coverage)?;
    if source == CoverageSource::Guest {
        for id in session.machine_mut().bus_mut().devices.cov.take_edges() {
            coverage.record_id(id);
        }
    }
    Ok(outcome)
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

/// Triages the reports of one execution of `program` whose key `seen`
/// lacks, each key once.
///
/// # Errors
///
/// Propagates session failures from the reproduction runs.
pub(crate) fn triage_new(
    session: &mut Session,
    program: &ExecProgram,
    reports: Vec<Report>,
    budget: u64,
    seen: &HashSet<DedupKey>,
) -> Result<Vec<Finding>, SessionError> {
    let mut findings: Vec<Finding> = Vec::new();
    for report in reports {
        let key = report.dedup_key();
        if !seen.contains(&key) && findings.iter().all(|f| f.report.dedup_key() != key) {
            findings.push(triage(session, program, report, budget)?);
        }
    }
    Ok(findings)
}

/// One iteration's result, as the merge admits it.
pub(crate) struct Admit<'a> {
    pub program: &'a ExecProgram,
    /// The execution's [`CoverageMap::classified_sparse`] export.
    pub cover: &'a [(u32, u8)],
    pub findings: Vec<Finding>,
}

/// The deterministic dictionary stage: AFL's deterministic phase, bounded,
/// enumerating dictionary bytes over each new corpus entry's arguments.
struct DictionaryStage {
    enabled: bool,
    strategy: Strategy,
    /// Syscall numbers carrying `Key` arguments (the stage's focus under
    /// the Syz strategy).
    key_nrs: Vec<u8>,
    bytes: Vec<u8>,
    /// Harvested wide operands, substituted whole (empty unless the
    /// dictionary carries an analysis harvest).
    wide: Vec<u32>,
    /// Pending candidates, oldest first.
    pending: Vec<ExecProgram>,
    /// Sites already enumerated, keyed by `(syscall, argument index,
    /// current value)`: corpus entries that differ only in coverage counts
    /// would otherwise re-expand identical candidate sets and starve the
    /// queue.
    expanded: HashSet<(u8, usize, u32)>,
}

impl DictionaryStage {
    /// Expands the candidates of a newly retained seed: every dictionary
    /// byte substituted into the low two byte positions of every eligible
    /// argument. Under the Syz strategy only `Key`-carrying syscalls are
    /// eligible (the descriptions say where magic values live); Tardis
    /// enumerates every argument.
    fn expand(&mut self, seed: &ExecProgram) {
        for (call_index, call) in seed.calls.iter().enumerate() {
            if self.strategy == Strategy::Syz && !self.key_nrs.contains(&call.nr) {
                continue;
            }
            for arg_index in 0..call.args.len() {
                if !self.expanded.insert((call.nr, arg_index, call.args[arg_index])) {
                    continue; // this site/value was already enumerated
                }
                for shift in [0u32, 8] {
                    for &byte in &self.bytes {
                        let mut candidate = seed.clone();
                        let arg = &mut candidate.calls[call_index].args[arg_index];
                        *arg = (*arg & !(0xFF << shift)) | (u32::from(byte) << shift);
                        self.pending.push(candidate);
                    }
                }
                // Harvested wide operands are substituted whole — byte-wise
                // splicing cannot build a multi-piece constant one stage at
                // a time because a wide gate has no intermediate stages to
                // reward.
                for &operand in &self.wide {
                    let mut candidate = seed.clone();
                    candidate.calls[call_index].args[arg_index] = operand;
                    self.pending.push(candidate);
                }
            }
        }
        let excess = self.pending.len().saturating_sub(DET_CAP);
        self.pending.drain(..excess);
    }
}

/// The campaign state the merge owns: the epoch start, the coverage-gated
/// corpus, findings with their dedup keys, and the dictionary stage.
pub(crate) struct Campaign {
    /// Iterations merged: the current epoch's first index.
    pub execs: u64,
    /// Retained programs, in admission order.
    pub corpus: Vec<ExecProgram>,
    /// The global classified coverage map admissions merge into.
    global: Box<[u8; MAP_SIZE]>,
    pub findings: Vec<Finding>,
    pub seen: HashSet<DedupKey>,
    seed: u64,
    mutator: Mutator,
    stage: DictionaryStage,
}

impl Campaign {
    /// An empty campaign; `deterministic_stage: false` never schedules a
    /// candidate (ablation studies).
    pub fn new(
        descs: Vec<SyscallDesc>,
        dict: Dictionary,
        strategy: Strategy,
        seed: u64,
        deterministic_stage: bool,
    ) -> Campaign {
        let key_nrs =
            descs.iter().filter(|d| d.args.contains(&ArgKind::Key)).map(|d| d.nr).collect();
        let stage = DictionaryStage {
            enabled: deterministic_stage,
            strategy,
            key_nrs,
            bytes: dict.bytes(),
            wide: dict.wide().to_vec(),
            pending: Vec::new(),
            expanded: HashSet::new(),
        };
        Campaign {
            execs: 0,
            corpus: Vec::new(),
            global: Box::new([0; MAP_SIZE]),
            findings: Vec::new(),
            seen: HashSet::new(),
            seed,
            mutator: Mutator::new(descs, dict, strategy),
            stage,
        }
    }

    /// Ends the current epoch after `iterations` iterations: drops the
    /// pending candidates they ran (the newest `iterations`, or all of
    /// them) and moves the epoch start past them.
    pub fn advance(&mut self, iterations: u64) {
        let pending = &mut self.stage.pending;
        pending.truncate(pending.len().saturating_sub(iterations as usize));
        self.execs += iterations;
    }

    /// The program of iteration `iter`, `k` iterations into the current
    /// epoch: the `k`-th newest pending candidate while any are left, else
    /// generation (probability 0.2, or an empty corpus) or a mutation of a
    /// corpus entry, drawn from [`iter_rng`].
    pub fn program(&self, iter: u64) -> ExecProgram {
        let pending = &self.stage.pending;
        if let Some(index) = pending.len().checked_sub((iter - self.execs) as usize + 1) {
            return pending[index].clone();
        }
        let corpus = &self.corpus;
        let mut rng = iter_rng(self.seed, iter);
        if corpus.is_empty() || rng.gen_bool(0.2) {
            self.mutator.generate(&mut rng)
        } else {
            self.mutator.mutate(&corpus[rng.gen_usize() % corpus.len()], &mut rng)
        }
    }

    /// The campaign totals.
    pub fn stats(&self) -> FuzzerStats {
        FuzzerStats {
            execs: self.execs,
            corpus: self.corpus.len(),
            coverage: buckets_set(&self.global[..]),
            findings: self.findings.len(),
        }
    }

    /// The canonical merge of one epoch, after [`Campaign::advance`]:
    /// admits `results` in iteration order (coverage novelty gates the
    /// corpus, findings dedup on their key), then expands every admitted
    /// entry. Returns whether anything was retained and the range of new
    /// findings.
    pub fn merge<'a>(&mut self, results: impl IntoIterator<Item = Admit<'a>>) -> CommitSummary {
        let (first_entry, first_finding) = (self.corpus.len(), self.findings.len());
        for Admit { program, cover, findings } in results {
            if CoverageMap::merge_classified(&mut self.global, cover) > 0 {
                self.corpus.push(program.clone());
            }
            for finding in findings {
                if self.seen.insert(finding.report.dedup_key()) {
                    self.findings.push(finding);
                }
            }
        }
        if self.stage.enabled {
            for seed in &self.corpus[first_entry..] {
                self.stage.expand(seed);
            }
        }
        CommitSummary {
            retained: self.corpus.len() > first_entry,
            new_findings: first_finding..self.findings.len(),
        }
    }

    /// Removes every copy of `program` from the corpus and the pending
    /// candidates. The coverage it contributed stays.
    pub fn quarantine(&mut self, program: &ExecProgram) {
        self.corpus.retain(|entry| entry != program);
        self.stage.pending.retain(|entry| entry != program);
    }

    /// The journaled form of this state.
    pub fn export(&self) -> FuzzerState {
        let mut det_seen: Vec<(u8, u32, u32)> =
            self.stage.expanded.iter().map(|&(nr, idx, val)| (nr, idx as u32, val)).collect();
        det_seen.sort_unstable();
        let mut dedup_keys: Vec<DedupKey> = self.seen.iter().copied().collect();
        dedup_keys.sort_by_key(|&(class, pc, site)| (class.code(), pc, site));
        FuzzerState {
            execs: self.execs,
            corpus_entries: self.corpus.clone(),
            global_map: self.global.to_vec(),
            det_pending: self.stage.pending.clone(),
            det_seen,
            findings: self.findings.clone(),
            dedup_keys,
        }
    }

    /// Restores state exported by [`Campaign::export`]. A wrong-sized
    /// coverage map is ignored (it only costs novelty precision, never
    /// correctness).
    pub fn import(&mut self, state: FuzzerState) {
        self.execs = state.execs;
        *self.global = state.global_map.try_into().unwrap_or([0; MAP_SIZE]);
        self.corpus = state.corpus_entries;
        self.stage.pending = state.det_pending;
        self.stage.expanded =
            state.det_seen.into_iter().map(|(nr, idx, val)| (nr, idx as usize, val)).collect();
        self.findings = state.findings;
        self.seen = state.dedup_keys.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(nr: u8, arg: u32) -> ExecProgram {
        let mut program = ExecProgram::new();
        program.push(nr, &[arg]);
        program
    }

    fn campaign() -> Campaign {
        let descs = vec![SyscallDesc { nr: 16, args: vec![ArgKind::Key] }];
        Campaign::new(descs, Dictionary::from_values(&[0xAB]), Strategy::Tardis, 1, true)
    }

    #[test]
    fn iteration_rng_is_schedule_independent() {
        // Same (seed, iter) → same stream regardless of anything else.
        let mut a = iter_rng(42, 7);
        let mut b = iter_rng(42, 7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = iter_rng(42, 8);
        assert_ne!(iter_rng(42, 7).next_u64(), c.next_u64());
        assert_eq!(iter_rng(42, 0), SplitMix64::seed_from_u64(42));
    }

    fn admit<'a>(program: &'a ExecProgram, cover: &'a [(u32, u8)]) -> Admit<'a> {
        Admit { program, cover, findings: Vec::new() }
    }

    #[test]
    fn merge_retains_only_novel_inputs() {
        let mut campaign = campaign();
        let mut cov = CoverageMap::new();
        cov.record(0, 0x1000);
        let program = program(0, 0);
        assert!(campaign.merge([admit(&program, &cov.classified_sparse())]).retained);
        let again = campaign.merge([admit(&program, &cov.classified_sparse())]);
        assert!(!again.retained, "same coverage is not novel");
        cov.record(0, 0x9000);
        assert!(campaign.merge([admit(&program, &cov.classified_sparse())]).retained);
        assert_eq!(campaign.corpus.len(), 2);
        assert!(campaign.stats().coverage >= 2);
    }

    #[test]
    fn quarantine_drops_entries_but_keeps_coverage() {
        let mut campaign = campaign();
        let mut cov = CoverageMap::new();
        for i in 0..3u8 {
            cov.reset();
            cov.record(0, 0x1000 * (u32::from(i) + 1));
            assert!(campaign.merge([admit(&program(i, 0), &cov.classified_sparse())]).retained);
        }
        let coverage = campaign.stats().coverage;
        campaign.quarantine(&program(1, 0));
        let kept: Vec<u8> = campaign.corpus.iter().map(|p| p.calls[0].nr).collect();
        assert_eq!(kept, [0, 2]);
        assert_eq!(campaign.stats().coverage, coverage);
    }

    /// Offset `k` of an epoch runs the `k`-th newest candidate, and
    /// advancing past the epoch drops exactly those.
    #[test]
    fn the_schedule_runs_the_newest_candidates_first() {
        let mut campaign = campaign();
        let seed = program(16, 0);
        let mut cover = CoverageMap::new();
        cover.record(0, 0x1000);
        assert!(campaign.merge([admit(&seed, &cover.classified_sparse())]).retained);
        let pending = campaign.stage.pending.clone();
        assert!(!pending.is_empty(), "a retained entry expands candidates");

        assert_eq!(campaign.program(0), pending[pending.len() - 1]);
        assert_eq!(campaign.program(1), pending[pending.len() - 2]);
        campaign.advance(2);
        assert_eq!(campaign.stage.pending, pending[..pending.len() - 2]);
        assert_eq!(campaign.execs, 2);
    }
}
