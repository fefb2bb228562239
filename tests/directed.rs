//! Directed campaigns on the epoch engine, on the wide-gated emblinux
//! image (`embsan build emblinux --san c --bug fuzz/wide:oob-write
//! --wide-gates`). Its bug sits behind one 32-bit comparison whose key the
//! extracted dictionary holds only as `lui`/`ori` halves, so the harvested
//! operand is what opens it. With a fixed seed and artifact, an N-worker
//! directed campaign must report exactly what the 1-worker run reports —
//! the contract `tests/parallel_determinism.rs` pins for the undirected
//! engine.

use embsan::analysis::AnalysisArtifact;
use embsan::asm::FirmwareImage;
use embsan::core::probe::{probe, ProbeArtifacts, ProbeMode};
use embsan::emu::profile::Arch;
use embsan::fuzz::campaign::{boot_session, CampaignConfig};
use embsan::fuzz::descs::base_descriptions;
use embsan::fuzz::parallel::{run_parallel, ParallelConfig, ParallelOutcome};
use embsan::fuzz::{ArgKind, Dictionary, Strategy, SyscallDesc};
use embsan::guestos::bugs::{BugKind, BugSpec};
use embsan::guestos::executor::{sys, ExecProgram};
use embsan::guestos::{os, BuildOptions, SanMode};

/// The CI directed-smoke seed. Its harvest run first finds the bug in the
/// epoch ending at iteration 360 (the dictionary stage runs first); the
/// undirected run finds nothing within 8,000 iterations.
const SEED: u64 = 9;
const ITERATIONS: u64 = 400;

struct Wide {
    image: FirmwareImage,
    artifacts: ProbeArtifacts,
    descs: Vec<SyscallDesc>,
}

fn wide() -> Wide {
    let bug = BugSpec::new("fuzz/wide", BugKind::OobWrite);
    let opts = BuildOptions::new(Arch::Armv).san(SanMode::SanCall).wide_gates(true);
    let image = os::emblinux::build(&opts, &[bug]).unwrap();
    let artifacts = probe(&image, ProbeMode::CompileTime, None).unwrap();
    let mut descs = base_descriptions();
    descs.push(SyscallDesc { nr: sys::BUG_BASE, args: vec![ArgKind::Key] });
    Wide { image, artifacts, descs }
}

impl Wide {
    /// The dictionary of `embsan fuzz --analysis`: extracted constants plus
    /// the image's harvested operands.
    fn harvest(&self) -> Dictionary {
        let operands = AnalysisArtifact::from_image(&self.image).operands();
        Dictionary::extract(&self.image).with_wide(&operands)
    }

    fn run(&self, dict: &Dictionary, workers: usize) -> ParallelOutcome {
        let config = ParallelConfig {
            workers,
            epoch_len: 40,
            campaign: CampaignConfig { iterations: ITERATIONS, seed: SEED, ..Default::default() },
            ..ParallelConfig::default()
        };
        let factory =
            |_worker: usize| boot_session(&self.image, &self.artifacts, 1, &config.campaign);
        run_parallel(factory, &self.descs, dict, Strategy::Tardis, &config).unwrap()
    }
}

/// Everything observable about a run's results, in canonical order.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    findings: Vec<(String, u32, ExecProgram)>,
    corpus: Vec<ExecProgram>,
    coverage: usize,
    execs: u64,
}

fn observe(outcome: ParallelOutcome) -> Observed {
    Observed {
        findings: outcome
            .findings
            .iter()
            .map(|f| (f.report.class.to_string(), f.report.pc, f.program.clone()))
            .collect(),
        corpus: outcome.corpus,
        coverage: outcome.stats.coverage,
        execs: outcome.stats.execs,
    }
}

/// The harvest is what finds the bug: the same campaign without it does
/// not get past the wide gate.
#[test]
fn the_harvest_finds_the_wide_gate_bug_and_undirected_does_not() {
    let wide = wide();
    let directed = observe(wide.run(&wide.harvest(), 1));
    assert_eq!(directed.findings.len(), 1, "{directed:?}");
    assert_eq!(directed.findings[0].0, "slab-out-of-bounds");
    let undirected = observe(wide.run(&Dictionary::extract(&wide.image), 1));
    assert!(undirected.findings.is_empty(), "{undirected:?}");
}

/// The acceptance property: fixed seed + artifact is deterministic across
/// N ∈ {1, 2, 4} workers.
#[test]
fn directed_results_identical_across_worker_counts() {
    let wide = wide();
    let dict = wide.harvest();
    let one = observe(wide.run(&dict, 1));
    assert_eq!(one.execs, ITERATIONS);
    assert!(!one.findings.is_empty(), "the determinism check must cover a finding");
    for workers in [2usize, 4] {
        assert_eq!(one, observe(wide.run(&dict, workers)), "x{workers}");
    }
}

/// Passing no artifact must be *the* undirected engine: an empty harvest
/// leaves the dictionary, and so every result, exactly as extracted.
#[test]
fn no_artifact_is_exactly_the_undirected_engine() {
    let wide = wide();
    let extracted = Dictionary::extract(&wide.image);
    let empty_harvest = extracted.clone().with_wide(&[]);
    assert_eq!(observe(wide.run(&extracted, 2)), observe(wide.run(&empty_harvest, 2)));
}

/// A directed run's deterministic metrics are byte-identical for every
/// worker count.
#[test]
fn directed_metrics_are_identical_across_worker_counts() {
    let wide = wide();
    let dict = wide.harvest();
    let one = wide.run(&dict, 1).stats.metrics_snapshot();
    assert_eq!(one.value("scheduler", "findings"), Some(1));
    let two = wide.run(&dict, 2).stats.metrics_snapshot();
    assert_eq!(one.to_json(false), two.to_json(false));
}
