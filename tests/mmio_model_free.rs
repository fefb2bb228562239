//! Determinism-first lockdown of the model-free MMIO layer.
//!
//! The model-free region answers guest MMIO reads from a fuzzer-controlled
//! response stream with Ember-IO-style per-(pc, addr) refinement, so a
//! firmware can boot and fuzz with its MMIO map *withheld* — no peripheral
//! models at all. That only earns its keep if the usual contracts survive:
//! N workers must equal 1 worker byte-for-byte, a killed campaign must
//! resume bit-identically from its journal, and refinement itself must be
//! a pure function of (program, stream). This suite pins all three, plus
//! the interrupt-rich companion firmware's ISR/mainloop data race that
//! syscall-only workloads cannot exhibit.

use std::path::PathBuf;

use embsan::emu::profile::ArchProfile;
use embsan::fuzz::campaign::{prepare_session, run_campaign, CampaignConfig};
use embsan::fuzz::parallel::{run_parallel_campaign, ParallelConfig, ParallelOutcome};
use embsan::fuzz::{
    descriptions_for, resume_supervised, run_supervised, Fuzzer, FuzzerConfig, Journal, Strategy,
    SupervisorConfig,
};
use embsan::guestos::executor::{sys, ExecProgram};
use embsan::guestos::{firmware_by_name, workload, FirmwareSpec};

fn tmp_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

/// A campaign with the firmware's whole platform MMIO window withheld and
/// served model-free. Programs end on stream exhaustion or budget (result
/// writes are absorbed by the region), so the per-program budget is kept
/// small — the paper's fixed-time-slice execution model.
fn withheld_campaign(spec: &FirmwareSpec, iterations: u64, seed: u64) -> CampaignConfig {
    let profile = ArchProfile::for_arch(spec.arch);
    CampaignConfig {
        iterations,
        seed,
        program_budget: 120_000,
        model_free: Some((profile.mmio_base, profile.mmio_size)),
        mmio_withheld: true,
        ..CampaignConfig::default()
    }
}

/// All four OS flavours boot to their ready point with the MMIO map
/// withheld: boot-time device traffic (UART banners, timer pokes) is
/// absorbed or answered by the model-free region. This is the matrix
/// recorded in EXPERIMENTS.md — update both together.
#[test]
fn all_os_flavours_boot_with_mmio_withheld() {
    for name in ["OpenWRT-armvirt", "OpenHarmony-stm32mp1", "InfiniTime", "TP-Link WDR-7660"] {
        let spec = firmware_by_name(name).unwrap();
        let config = withheld_campaign(spec, 0, 0);
        let (session, _) = prepare_session(spec, &config)
            .unwrap_or_else(|e| panic!("{name} must boot with MMIO withheld: {e}"));
        let stats = session.model_free_stats().expect("model-free region is enabled");
        // Boot traffic is write-heavy (UART banners); some flavours never
        // read the window before ready. Either direction proves the
        // withheld window was really routed through the region.
        assert!(stats.reads + stats.writes > 0, "{name}: boot must exercise the model-free region");
    }
}

/// Withheld-mode fuzzing is not vacuous: the executor receives programs
/// through the model-free response stream (the mailbox lives inside the
/// withheld window), so execs complete, coverage accumulates and the
/// corpus grows — all without a single modeled peripheral.
#[test]
fn withheld_fuzzing_makes_progress() {
    let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
    let result = run_campaign(spec, &withheld_campaign(spec, 30, 17)).unwrap();
    assert_eq!(result.stats.execs, 30);
    assert!(result.stats.coverage > 0, "withheld run must still produce coverage");
    assert!(result.stats.corpus > 0, "withheld run must retain at least one program");
}

/// Everything observable about a parallel run, in canonical order.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    findings: Vec<(String, u32, ExecProgram)>,
    corpus: Vec<ExecProgram>,
    coverage: usize,
    execs: u64,
}

fn observe_withheld(spec: &FirmwareSpec, workers: usize, seed: u64, iterations: u64) -> Observed {
    let config = ParallelConfig {
        workers,
        epoch_len: 16,
        trace: false,
        campaign: withheld_campaign(spec, iterations, seed),
    };
    let (_, outcome): (_, ParallelOutcome) = run_parallel_campaign(spec, &config).unwrap();
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

/// The parallel-determinism contract holds with the MMIO map withheld:
/// N ∈ {2, 4} workers produce byte-identical findings, corpus and coverage
/// to the 1-worker run. Each worker refines its own per-(pc, addr) cache,
/// so any leakage of refinement state across worker boundaries — or any
/// dependence on scheduling — would break this equality.
#[test]
fn worker_count_does_not_change_results_with_model_free() {
    let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
    for seed in [17u64, 99] {
        let one = observe_withheld(spec, 1, seed, 48);
        assert_eq!(one.execs, 48, "seed {seed}");
        // Non-vacuity: equality of *empty* runs would prove nothing. The
        // stream must actually reach the executor through the withheld
        // window, producing real coverage and a retained corpus.
        assert!(
            one.coverage > 10,
            "seed {seed}: withheld run must cover code, got {}",
            one.coverage
        );
        assert!(!one.corpus.is_empty(), "seed {seed}: withheld run must retain programs");
        for workers in [2usize, 4] {
            let many = observe_withheld(spec, workers, seed, 48);
            assert_eq!(one, many, "seed {seed} x{workers}");
        }
    }
}

/// A model-free campaign killed mid-flight resumes bit-identically from
/// its journal: the Start record carries the model-free configuration
/// (journal format v2), the resumed session re-enables the region before
/// boot, and replay from the newest checkpoint reproduces the
/// uninterrupted run exactly.
#[test]
fn killed_and_resumed_model_free_campaign_is_bit_identical() {
    let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
    let campaign = withheld_campaign(spec, 160, 99);
    let baseline = run_campaign(spec, &campaign).unwrap();

    let journal = tmp_path("model_free_kill_resume.journal");
    let mut config = SupervisorConfig {
        campaign,
        checkpoint_interval: 40,
        // A non-checkpoint kill point forces re-execution of the
        // iterations after the newest checkpoint on resume.
        kill_after: Some(90),
        ..SupervisorConfig::default()
    };
    let first = run_supervised(spec, &config, Some(&journal)).unwrap();
    assert!(!first.completed, "kill_after must stop the campaign early");

    // The journal's Start record must round-trip the model-free identity —
    // resuming under a different MMIO configuration would silently diverge.
    let loaded = Journal::load(&journal).unwrap();
    let start = loaded.start().unwrap();
    assert_eq!(start.model_free, campaign.model_free);
    assert!(start.mmio_withheld);

    config.kill_after = None;
    let resumed = resume_supervised(&journal, &config).unwrap();
    assert!(resumed.completed);
    assert_eq!(resumed.result.stats, baseline.stats, "stats must match uninterrupted run");
    assert_eq!(resumed.result.found.len(), baseline.found.len());
}

/// Refinement is a pure function of (firmware, program sequence): two
/// independently prepared sessions fed the same programs report identical
/// model-free statistics — reads, cache hits, stream draws, commits,
/// invalidations — and identical program outcomes at every step.
#[test]
fn refinement_is_a_pure_function_of_the_program_sequence() {
    let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
    let config = withheld_campaign(spec, 0, 0);
    let programs = workload::merged_corpus(7, 3, 6);

    let observe = |config: &CampaignConfig| {
        let (mut session, _) = prepare_session(spec, config).unwrap();
        let mut seen = Vec::new();
        for program in &programs {
            session.reset().unwrap();
            session.set_model_free_stream(&program.model_free_stream());
            let outcome = session.run_program(program, config.program_budget).unwrap();
            seen.push((outcome.exit, outcome.results, session.model_free_stats().unwrap()));
        }
        seen
    };
    let first = observe(&config);
    let second = observe(&config);
    assert_eq!(first, second, "identical inputs must refine identically");
    let final_stats = first.last().expect("non-empty workload").2;
    assert!(final_stats.stream_draws > 0, "programs must be served from the stream");
    assert!(final_stats.writes > 0, "guest result writes must be absorbed by the region");
}

/// The interrupt-rich companion firmware produces a KCSAN-observable
/// ISR/mainloop data race — the ISR on the secondary vCPU and the
/// `irq_load` mainloop both hit the unsynchronized shared counter — and
/// the minimized reproducer is exactly the interrupt surface (`irq_setup`
/// then `irq_load`). The base InfiniTime build, fuzzed with the same
/// budget, cannot produce any data race: this bug family is reachable
/// only through interrupts.
#[test]
fn interrupt_rich_firmware_yields_isr_mainloop_race() {
    let race_findings = |name: &str| {
        let spec = firmware_by_name(name).unwrap();
        let config = CampaignConfig { iterations: 20, seed: 5, ..CampaignConfig::default() };
        let (mut session, dict) = prepare_session(spec, &config).unwrap();
        let mut fuzzer = Fuzzer::new(
            &mut session,
            descriptions_for(spec),
            dict,
            FuzzerConfig::new(Strategy::Tardis, config.seed),
        );
        if spec.irq {
            // Seed the corpus from the interrupt workload generator — the
            // same role dictionary seeds play for magic-gated syscalls.
            for program in workload::irq_corpus(5, 4, 10) {
                fuzzer.execute_one(&program).unwrap();
            }
        }
        fuzzer.run(config.iterations).unwrap();
        fuzzer
            .into_findings()
            .into_iter()
            .filter(|f| f.report.class.to_string() == "data-race")
            .collect::<Vec<_>>()
    };

    let races = race_findings("InfiniTime-sensor");
    assert!(!races.is_empty(), "interrupt surface must yield a data race");
    let minimized = races.iter().any(|f| {
        let nrs: Vec<u8> = f.program.calls.iter().map(|c| c.nr).collect();
        nrs.contains(&sys::IRQ_SETUP) && nrs.contains(&sys::IRQ_LOAD)
    });
    assert!(minimized, "a reproducer must consist of the interrupt syscalls: {races:?}");

    let control = race_findings("InfiniTime");
    assert!(control.is_empty(), "syscall-only firmware must not race: {control:?}");
}
