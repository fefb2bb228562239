//! Work-count pin: a fixed-seed short campaign per OS flavour must do
//! exactly the same simulated work, count for count.
//!
//! Wall time on a shared host moves by several percent between runs, so a
//! speed change to the emulator or the runtime cannot prove by timing alone
//! that it left the guest's work alone. These counts can: the ready-point
//! hash, retired guest instructions, translations and translation-cache
//! traffic, shadow checks (and how many fell to the slow path) and the
//! fuzzer's outcome are pure functions of (firmware, seed). A change that
//! moves one of them says so and re-blesses it; a change that only makes
//! the same work faster leaves every value below untouched.
//!
//! Cache hits and chained dispatches describe how the dispatcher reached
//! the translated code, not what the guest did: a change to dispatch alone
//! may move those two and re-bless them. Every other count is guest work
//! and may not move without a change in guest behaviour.

use embsan::analysis::AnalysisArtifact;
use embsan::core::probe::{probe, ProbeMode};
use embsan::core::session::Session;
use embsan::emu::hash::fnv1a;
use embsan::emu::hook::HookConfig;
use embsan::emu::profile::Arch;
use embsan::fuzz::campaign::{boot_session, paper_strategy, prepare_session, CampaignConfig};
use embsan::fuzz::descs::base_descriptions;
use embsan::fuzz::parallel::run_parallel;
use embsan::fuzz::{
    descriptions_for, ArgKind, Dictionary, Fuzzer, FuzzerConfig, ParallelConfig, ParallelOutcome,
    Strategy, SyscallDesc,
};
use embsan::guestos::bugs::{BugKind, BugSpec};
use embsan::guestos::executor::sys;
use embsan::guestos::workload::merged_corpus;
use embsan::guestos::{firmware_by_name, os, BuildOptions, SanMode};

/// Iterations per campaign: enough to pass boot, grow a corpus and reach
/// the seeded bugs' neighbourhood, small enough for a debug test build.
const ITERATIONS: u64 = 400;
const SEED: u64 = 0x00C0_FFEE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    base_hash: u64,
    /// 4 KiB pages the ready-point base image holds (RAM plus sanitizer
    /// planes): the pages with data. Setting up a session is proportional
    /// to these, so a return to O(RAM) set-up moves this count.
    resident_pages: usize,
    /// Guest instructions retired by the campaign (after the ready point).
    retired: u64,
    /// Translation-cache counters since session creation (boot included).
    translations: u64,
    hits: u64,
    chained_dispatches: u64,
    superblocks_formed: u64,
    /// Shadow checks since session creation, and those on the slow path.
    checks: u64,
    slow_path_checks: u64,
    execs: u64,
    corpus: usize,
    coverage: usize,
    findings: usize,
}

fn measure(firmware: &str) -> Counts {
    let spec = firmware_by_name(firmware).unwrap();
    let (mut session, dict) = prepare_session(spec, &CampaignConfig::default()).unwrap();
    let base_hash = session.base_hash().unwrap();
    let resident_pages = session.base().unwrap().resident_pages();
    let before = session.machine().lifetime_retired();
    let mut config = FuzzerConfig::new(paper_strategy(spec), SEED);
    config.program_budget = CampaignConfig::default().program_budget;
    let mut fuzzer = Fuzzer::new(&mut session, descriptions_for(spec), dict, config);
    fuzzer.run(ITERATIONS).unwrap();
    let stats = fuzzer.stats();
    drop(fuzzer);
    let cache = session.cache_stats();
    Counts {
        base_hash,
        resident_pages,
        retired: session.machine().lifetime_retired() - before,
        translations: cache.translations,
        hits: cache.hits,
        chained_dispatches: cache.chained_dispatches,
        superblocks_formed: cache.superblocks_formed,
        checks: session.runtime().checks_performed(),
        slow_path_checks: session.runtime().slow_path_checks(),
        execs: stats.execs,
        corpus: stats.corpus,
        coverage: stats.coverage,
        findings: stats.findings,
    }
}

fn check(firmware: &str, expected: Counts) {
    let actual = measure(firmware);
    assert_eq!(actual, expected, "{firmware}: work counts moved (blessed value on the right)");
}

#[test]
fn openwrt_armvirt_work_counts() {
    check(
        "OpenWRT-armvirt",
        Counts {
            base_hash: 0x4CB2B85955064684,
            resident_pages: 36,
            retired: 385_318,
            translations: 126,
            hits: 114_803,
            chained_dispatches: 89_128,
            superblocks_formed: 6,
            checks: 10_594,
            slow_path_checks: 838,
            execs: 400,
            corpus: 5,
            coverage: 115,
            findings: 2,
        },
    );
}

#[test]
fn openharmony_stm32mp1_work_counts() {
    check(
        "OpenHarmony-stm32mp1",
        Counts {
            base_hash: 0x269C8A6E24652542,
            resident_pages: 51,
            retired: 12_126_140,
            translations: 79,
            hits: 3_792_416,
            chained_dispatches: 3_764_438,
            superblocks_formed: 14,
            checks: 44_000,
            slow_path_checks: 0,
            execs: 400,
            corpus: 10,
            coverage: 58,
            findings: 0,
        },
    );
}

#[test]
fn infinitime_work_counts() {
    check(
        "InfiniTime",
        Counts {
            base_hash: 0xE51B5D4D23352AD6,
            resident_pages: 36,
            retired: 5_382_434,
            translations: 91,
            hits: 1_533_613,
            chained_dispatches: 1_512_317,
            superblocks_formed: 13,
            checks: 47_234,
            slow_path_checks: 9,
            execs: 400,
            corpus: 10,
            coverage: 69,
            findings: 1,
        },
    );
}

#[test]
fn tp_link_wdr7660_work_counts() {
    check(
        "TP-Link WDR-7660",
        Counts {
            base_hash: 0x5417961E8FD4CD3B,
            resident_pages: 4,
            retired: 9_167_892,
            translations: 67,
            hits: 2_800_242,
            chained_dispatches: 2_770_646,
            superblocks_formed: 11,
            checks: 46_800,
            slow_path_checks: 0,
            execs: 400,
            corpus: 6,
            coverage: 48,
            findings: 0,
        },
    );
}

/// The 2-vCPU firmware: KCSAN stall windows and round-robin quanta.
#[test]
fn openwrt_x86_64_smp_work_counts() {
    check(
        "OpenWRT-x86_64",
        Counts {
            base_hash: 0x694ED7809003CCC3,
            resident_pages: 36,
            retired: 392_381,
            translations: 129,
            hits: 116_865,
            chained_dispatches: 90_376,
            superblocks_formed: 6,
            checks: 11_008,
            slow_path_checks: 838,
            execs: 400,
            corpus: 5,
            coverage: 112,
            findings: 2,
        },
    );
}

/// Translation-cache generations: toggling the block probes between two
/// hook configurations translates each configuration once. Every later
/// toggle reactivates a retained generation and retranslates nothing.
#[test]
fn cache_toggles_stop_retranslating_after_first_pass() {
    const TOGGLES: u64 = 6;
    let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
    let campaign = CampaignConfig::default();
    let (mut session, _dict) = prepare_session(spec, &campaign).unwrap();
    let corpus = merged_corpus(0xF16, 4, 24);
    let base = session.runtime().hook_config();
    let armed = HookConfig { blocks: true, ..base };
    let cycle = |session: &mut Session| {
        for config in [armed, base] {
            session.machine_mut().set_hook_config(config);
            for program in &corpus {
                session.reset().unwrap();
                session.run_program(program, campaign.program_budget).unwrap();
            }
        }
    };

    let before = session.cache_stats();
    cycle(&mut session);
    let first_pass = session.cache_stats();
    for _ in 0..TOGGLES {
        cycle(&mut session);
    }
    let steady = session.cache_stats();
    assert!(first_pass.translations > before.translations, "first pass translates the image");
    assert_eq!(
        steady.translations, first_pass.translations,
        "retained generations make toggles free"
    );
    // Each toggle cycle reactivates both generations, plus the two
    // first-pass switches.
    assert_eq!(steady.generation_hits - before.generation_hits, 2 * TOGGLES + 1);
}

/// What the epoch engine reports, pinned exactly: the N workers ≡ 1
/// worker contract alone would still pass a change that moved every worker
/// count alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EpochCounts {
    execs: u64,
    corpus: usize,
    coverage: usize,
    findings: usize,
    epochs: u64,
    /// FNV-1a of the findings (minimized reproducers included) and the
    /// corpus, both in canonical order.
    fingerprint: u64,
}

fn epoch_counts(outcome: &ParallelOutcome) -> EpochCounts {
    let stats = outcome.stats;
    EpochCounts {
        execs: stats.execs,
        corpus: stats.corpus,
        coverage: stats.coverage,
        findings: stats.findings,
        epochs: stats.epochs,
        fingerprint: fnv1a(format!("{:?} {:?}", outcome.findings, outcome.corpus).as_bytes()),
    }
}

fn epoch_config(workers: usize, iterations: u64, seed: u64) -> ParallelConfig {
    ParallelConfig {
        workers,
        campaign: CampaignConfig { iterations, seed, ..CampaignConfig::default() },
        ..ParallelConfig::default()
    }
}

/// Runs `firmware`'s Table-1 campaign on the epoch engine at 1 and 2
/// workers, with the analysis harvest in the dictionary when `harvest`;
/// both must report `expected`.
fn check_epochs(firmware: &str, harvest: bool, expected: EpochCounts) {
    let spec = firmware_by_name(firmware).unwrap();
    let image = spec.build(spec.default_san_mode()).unwrap();
    let mut dict = Dictionary::extract(&image);
    if harvest {
        dict = dict.with_wide(&AnalysisArtifact::from_image(&image).operands());
    }
    for workers in [1, 2] {
        let config = epoch_config(workers, ITERATIONS, SEED);
        let factory = |_worker: usize| prepare_session(spec, &config.campaign).map(|(s, _)| s);
        let outcome =
            run_parallel(factory, &descriptions_for(spec), &dict, paper_strategy(spec), &config)
                .unwrap();
        let actual = epoch_counts(&outcome);
        assert_eq!(actual, expected, "{firmware} x{workers}: epoch-engine results moved");
    }
}

#[test]
fn epoch_engine_undirected_counts() {
    check_epochs(
        "TP-Link WDR-7660",
        false,
        EpochCounts {
            execs: 400,
            corpus: 94,
            coverage: 155,
            findings: 0,
            epochs: 7,
            fingerprint: 0x88CC_DCB5_C4DB_FAA3,
        },
    );
}

/// The same campaign with TP-Link WDR-7660's own harvest in the
/// dictionary. Its image has no wide gate, and this short campaign's
/// results equal the undirected ones.
#[test]
fn epoch_engine_directed_counts() {
    check_epochs(
        "TP-Link WDR-7660",
        true,
        EpochCounts {
            execs: 400,
            corpus: 94,
            coverage: 155,
            findings: 0,
            epochs: 7,
            fingerprint: 0x88CC_DCB5_C4DB_FAA3,
        },
    );
}

/// The `embsan fuzz --workers N --analysis` route on a wide-gated image:
/// the harvested operand opens the gate and the finding goes through
/// triage.
#[test]
fn epoch_engine_wide_gate_counts() {
    let bug = BugSpec::new("fuzz/wide", BugKind::OobWrite);
    let opts = BuildOptions::new(Arch::Armv).san(SanMode::SanCall).wide_gates(true);
    let image = os::emblinux::build(&opts, &[bug]).unwrap();
    let artifacts = probe(&image, ProbeMode::CompileTime, None).unwrap();
    let mut descs = base_descriptions();
    descs.push(SyscallDesc { nr: sys::BUG_BASE, args: vec![ArgKind::Key] });
    let operands = AnalysisArtifact::from_image(&image).operands();
    let dict = Dictionary::extract(&image).with_wide(&operands);
    for workers in [1, 2] {
        let config = epoch_config(workers, 3000, 9);
        let factory = |_worker: usize| boot_session(&image, &artifacts, 1, &config.campaign);
        let outcome = run_parallel(factory, &descs, &dict, Strategy::Tardis, &config).unwrap();
        assert_eq!(
            epoch_counts(&outcome),
            EpochCounts {
                execs: 3_000,
                corpus: 222,
                coverage: 351,
                findings: 1,
                epochs: 47,
                fingerprint: 0xEF9E_3558_F45D_6ADC,
            },
            "wide gate x{workers}: epoch-engine results moved"
        );
    }
}
