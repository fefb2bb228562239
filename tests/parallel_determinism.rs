//! Parallel-engine determinism: an N-worker campaign must report exactly
//! the same findings, corpus and coverage as the 1-worker run — the
//! contract that makes `--workers` safe to use for real campaigns (any
//! scheduling dependence would make parallel results unreproducible).

use embsan::fuzz::campaign::CampaignConfig;
use embsan::fuzz::parallel::{run_parallel_campaign, ParallelConfig, ParallelOutcome};
use embsan::guestos::executor::ExecProgram;
use embsan::guestos::firmware_by_name;

fn config(workers: usize, seed: u64, iterations: u64) -> ParallelConfig {
    ParallelConfig {
        workers,
        epoch_len: 40,
        trace: false,
        campaign: CampaignConfig { iterations, seed, ..CampaignConfig::default() },
    }
}

/// Everything observable about a run, in canonical order.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    findings: Vec<(String, u32, ExecProgram)>,
    corpus: Vec<ExecProgram>,
    coverage: usize,
    execs: u64,
    found: Vec<usize>,
}

fn observe(firmware: &str, workers: usize, seed: u64, iterations: u64) -> Observed {
    let spec = firmware_by_name(firmware).unwrap();
    let (result, outcome): (_, ParallelOutcome) =
        run_parallel_campaign(spec, &config(workers, seed, iterations)).unwrap();
    Observed {
        findings: outcome
            .findings
            .iter()
            .map(|f| (f.report.class.to_string(), f.report.pc, f.program.clone()))
            .collect(),
        corpus: outcome.corpus,
        coverage: outcome.stats.coverage,
        execs: outcome.stats.execs,
        found: result.found.iter().map(|f| f.latent_index).collect(),
    }
}

/// The tentpole property across two firmwares and two seeds: N ∈ {2, 4}
/// equals N = 1 in findings (including minimized reproducers), corpus
/// contents and coverage.
#[test]
fn worker_count_does_not_change_results() {
    for (firmware, iterations) in [("TP-Link WDR-7660", 120), ("OpenHarmony-stm32mp1", 80)] {
        for seed in [17u64, 99] {
            let one = observe(firmware, 1, seed, iterations);
            assert_eq!(one.execs, iterations, "{firmware} seed {seed}");
            for workers in [2usize, 4] {
                let many = observe(firmware, workers, seed, iterations);
                assert_eq!(one, many, "{firmware} seed {seed} x{workers}");
            }
        }
    }
}

/// Repeatability: the same parallel configuration run twice is identical
/// (no hidden dependence on thread timing).
#[test]
fn parallel_runs_are_repeatable() {
    let a = observe("TP-Link WDR-7660", 2, 23, 120);
    let b = observe("TP-Link WDR-7660", 2, 23, 120);
    assert_eq!(a, b);
}

/// Observability extension of the tentpole property: with tracing on, the
/// merged trace JSONL and the deterministic metrics snapshot are
/// byte-identical for 1, 2 and 4 workers — and tracing itself never
/// perturbs findings, corpus or coverage.
#[test]
fn traces_and_metrics_identical_across_worker_counts() {
    let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
    let untraced = observe("TP-Link WDR-7660", 1, 17, 120);
    let meta = [("engine", "parallel"), ("seed", "17"), ("iterations", "120")];
    let mut baseline: Option<(String, String)> = None;
    for workers in [1usize, 2, 4] {
        let mut cfg = config(workers, 17, 120);
        cfg.trace = true;
        let (_, outcome): (_, ParallelOutcome) = run_parallel_campaign(spec, &cfg).unwrap();

        // Tracing must be observationally neutral.
        assert_eq!(outcome.stats.coverage, untraced.coverage, "coverage at x{workers}");
        assert_eq!(outcome.corpus, untraced.corpus, "corpus at x{workers}");
        assert_eq!(outcome.findings.len(), untraced.findings.len(), "findings at x{workers}");

        let trace = outcome.trace.as_ref().expect("tracing was enabled");
        assert!(trace.event_count() > 0, "trace empty at x{workers}");
        let jsonl = trace.to_jsonl(&meta);
        let metrics = outcome.stats.metrics_snapshot().to_json(false);
        match &baseline {
            None => baseline = Some((jsonl, metrics)),
            Some((trace_1w, metrics_1w)) => {
                assert_eq!(trace_1w, &jsonl, "merged trace differs at x{workers}");
                assert_eq!(metrics_1w, &metrics, "metric snapshot differs at x{workers}");
            }
        }
    }
}

/// A firmware that actually yields findings at small budgets must yield
/// the *same* findings in parallel — guards against the trivial pass where
/// every run finds nothing.
#[test]
fn determinism_check_is_not_vacuous() {
    // The seeds below reach coverage quickly; corpus must be non-empty so
    // the snapshot/merge machinery is genuinely exercised.
    let one = observe("TP-Link WDR-7660", 1, 17, 120);
    assert!(!one.corpus.is_empty(), "corpus empty — test would be vacuous");
    assert!(one.coverage > 0);
}

/// Per-worker memory gate: a worker's copy-on-write overlay stays an order
/// of magnitude below the shared ready-point base (O(pages touched), not
/// O(RAM)), and every worker forks from that base. Reset frees the overlay
/// and each iteration's program is a pure function of (seed, iteration),
/// so the peak over all workers is exact and independent of the worker
/// count and the schedule. A change that moves it says so and re-blesses
/// the pinned value.
#[test]
fn worker_overlay_stays_a_tenth_of_the_shared_base() {
    let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
    for workers in [1usize, 2] {
        let config = ParallelConfig {
            workers,
            campaign: CampaignConfig { iterations: 400, seed: 17, ..CampaignConfig::default() },
            ..ParallelConfig::default()
        };
        let (_, outcome) = run_parallel_campaign(spec, &config).unwrap();
        let stats = outcome.stats;
        assert_eq!(stats.base_bytes, 4_718_592, "base image at x{workers}");
        assert_eq!(stats.max_worker_overlay_bytes, 16_384, "peak overlay at x{workers}");
        assert!(
            stats.max_worker_overlay_bytes * 10 <= stats.base_bytes,
            "overlay above a tenth of the base at x{workers}"
        );
        assert_eq!(stats.workers_sharing_base, workers, "workers forked from the base");
    }
}
