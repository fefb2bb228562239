//! Directed-campaign determinism: with a fixed seed and a fixed
//! `embsan-analysis-v1` artifact, an N-worker directed campaign must report
//! exactly the same findings, corpus, coverage and frontier distance as the
//! 1-worker run — the same contract `tests/parallel_determinism.rs` pins
//! for the undirected engine, extended by the distance-scheduling layer.

use embsan::analysis::AnalysisArtifact;
use embsan::fuzz::campaign::CampaignConfig;
use embsan::fuzz::parallel::{run_parallel_campaign, ParallelConfig};
use embsan::fuzz::Direction;
use embsan::guestos::executor::ExecProgram;
use embsan::guestos::firmware_by_name;

fn config(workers: usize, seed: u64, iterations: u64) -> ParallelConfig<'static> {
    ParallelConfig {
        workers,
        epoch_len: 40,
        trace: false,
        direction: None,
        campaign: CampaignConfig { iterations, seed, ..CampaignConfig::default() },
    }
}

/// Builds steering for a firmware spec: race-candidate default targets when
/// the analysis finds any, otherwise an arbitrary-but-deterministic
/// function entry (the determinism property holds for any target set).
fn direction_for(firmware: &str) -> Direction {
    let spec = firmware_by_name(firmware).unwrap();
    let image = spec.build(spec.default_san_mode()).unwrap();
    let artifact = AnalysisArtifact::from_image(&image);
    let targets = if artifact.default_targets.is_empty() {
        vec![*artifact.graph.fn_entries.last().unwrap()]
    } else {
        Vec::new()
    };
    Direction::from_artifact(&artifact, &targets).unwrap()
}

/// Everything observable about a directed run, in canonical order.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    findings: Vec<(String, u32, ExecProgram)>,
    corpus: Vec<ExecProgram>,
    coverage: usize,
    execs: u64,
    frontier: Option<(u32, u32)>,
    found: Vec<usize>,
}

fn observe(firmware: &str, direction: Option<&Direction>, workers: usize, seed: u64) -> Observed {
    let spec = firmware_by_name(firmware).unwrap();
    let (result, outcome) =
        run_parallel_campaign(spec, &ParallelConfig { direction, ..config(workers, seed, 96) })
            .unwrap();
    Observed {
        findings: outcome
            .findings
            .iter()
            .map(|f| (f.report.class.to_string(), f.report.pc, f.program.clone()))
            .collect(),
        corpus: outcome.corpus,
        coverage: outcome.stats.coverage,
        execs: outcome.stats.execs,
        frontier: outcome.stats.frontier,
        found: result.found.iter().map(|f| f.latent_index).collect(),
    }
}

/// The acceptance property: fixed seed + artifact is deterministic across
/// N ∈ {1, 2, 4} workers, including the frontier distance.
#[test]
fn directed_results_identical_across_worker_counts() {
    let firmware = "TP-Link WDR-7660";
    let direction = direction_for(firmware);
    let one = observe(firmware, Some(&direction), 1, 17);
    assert_eq!(one.execs, 96);
    // Non-vacuous: the directed run scored something, so the frontier is
    // live and the distance layer is genuinely exercised.
    assert!(one.frontier.is_some(), "no corpus entry covered a scored edge");
    for workers in [2usize, 4] {
        let many = observe(firmware, Some(&direction), workers, 17);
        assert_eq!(one, many, "x{workers}");
    }
}

/// Passing no artifact must be *the* undirected engine, not a directed
/// engine with neutral inputs — the two entry points share one code path.
#[test]
fn no_artifact_is_exactly_the_undirected_engine() {
    let firmware = "TP-Link WDR-7660";
    let spec = firmware_by_name(firmware).unwrap();
    let none = observe(firmware, None, 2, 23);
    assert_eq!(none.frontier, None, "undirected runs never score");
    let (result, outcome) = run_parallel_campaign(spec, &config(2, 23, 96)).unwrap();
    assert_eq!(none.corpus, outcome.corpus);
    assert_eq!(none.coverage, outcome.stats.coverage);
    assert_eq!(none.findings.len(), outcome.findings.len());
    assert_eq!(none.found, result.found.iter().map(|f| f.latent_index).collect::<Vec<_>>());
}

/// The frontier gauges surface through the deterministic metrics class and
/// are byte-identical for every worker count.
#[test]
fn frontier_metrics_are_deterministic_across_worker_counts() {
    let firmware = "TP-Link WDR-7660";
    let direction = direction_for(firmware);
    let spec = firmware_by_name(firmware).unwrap();
    let mut baseline: Option<String> = None;
    for workers in [1usize, 2] {
        let directed = ParallelConfig { direction: Some(&direction), ..config(workers, 17, 96) };
        let (_, outcome) = run_parallel_campaign(spec, &directed).unwrap();
        let snapshot = outcome.stats.metrics_snapshot();
        let (min, mean) = outcome.stats.frontier.expect("directed run scored nothing");
        assert_eq!(snapshot.value("directed", "frontier_min_milli"), Some(i64::from(min)));
        assert_eq!(snapshot.value("directed", "frontier_mean_milli"), Some(i64::from(mean)));
        let json = snapshot.to_json(false);
        match &baseline {
            None => baseline = Some(json),
            Some(one) => assert_eq!(one, &json, "metric snapshot differs at x{workers}"),
        }
    }
}
