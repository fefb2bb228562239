//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Six studies, each isolating one mechanism:
//!
//! 1. **Quarantine capacity** ([`quarantine_ablation`]): EMBSAN's
//!    quarantine is observational (it cannot delay reuse like in-kernel
//!    KASAN), so its size controls *classification quality* — evicted
//!    chunks lose their alloc/free context, degrading use-after-free and
//!    double-free reports into generic heap-OOB / invalid-free ones.
//! 2. **KCSAN sampling/window** ([`kcsan_ablation`]): race-detection rate
//!    and virtual-time cost as functions of the sample interval and the
//!    stall window.
//! 3. **Fuzzer dictionary & deterministic stage** ([`fuzzer_ablation`]):
//!    bugs found under a fixed budget with the binary dictionary and the
//!    deterministic stage individually removed.
//! 4. **Heap pre-poisoning** ([`prepoison_ablation`]): with heap bounds
//!    (source probing) far out-of-bounds writes land in pre-poisoned
//!    heap; binary-only probing's per-allocation tail redzones catch only
//!    near overflows.
//! 5. **Coverage source** ([`coverage_source_ablation`]): emulator edge
//!    coverage vs kcov-style guest function beacons on staged gates.
//! 6. **Directed fuzzing** ([`directed_ablation`]): time to a bug behind
//!    one wide comparison, with and without the analysis crate's harvested
//!    operands in the dictionary, over a fixed seed set.

use embsan_analysis::AnalysisArtifact;
use embsan_core::probe::{probe, ProbeMode};
use embsan_core::report::BugClass;
use embsan_core::runtime::kasan::{KasanConfig, KasanEngine};
use embsan_core::runtime::shadow::{code, ShadowMemory};
use embsan_core::session::Session;
use embsan_dsl::SanitizerSpec;
use embsan_emu::profile::Arch;
use embsan_fuzz::campaign::boot_session;
use embsan_fuzz::{
    descriptions_for, CampaignConfig, CoverageSource, Dictionary, Fuzzer, FuzzerConfig, Strategy,
};
use embsan_guestos::bugs::{trigger_key, BugKind, BugSpec};
use embsan_guestos::executor::{sys, ExecProgram};
use embsan_guestos::{os, BuildOptions, SanMode};

/// Outcome of one quarantine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineRow {
    /// Quarantine capacity in bytes.
    pub capacity: u64,
    /// Of `trials` delayed use-after-free accesses, how many were
    /// classified as UAF (vs degraded to plain heap-OOB).
    pub uaf_classified: usize,
    /// How many delayed double frees kept their DoubleFree class.
    pub double_free_classified: usize,
    /// Number of trials per class.
    pub trials: usize,
}

/// Quarantine ablation: allocate/free `trials` victim chunks, churn the
/// quarantine with `churn_bytes` of other frees, then touch each victim.
pub fn quarantine_ablation(capacity: u64) -> QuarantineRow {
    let trials = 8usize;
    let churn_per_victim = 16 * 1024u32; // bytes of other frees in between
    let mut shadow = ShadowMemory::new(0x10_0000, 0x80_0000);
    shadow.poison(0x10_1000, 0x80_0000, code::HEAP);
    let mut engine =
        KasanEngine::new(KasanConfig { quarantine_bytes: capacity, heap_prepoison: true });

    let victim = |i: usize| 0x10_1000 + 0x40 + (i as u32) * 0x10_000;
    let mut uaf = 0;
    let mut dfree = 0;
    for i in 0..trials {
        let addr = victim(i);
        engine.on_alloc(&mut shadow, addr, 48, 0xA110C);
        assert!(engine.on_free(&mut shadow, addr, 0xF4EE, 0).is_none());
        // Churn: other chunks come and go, pushing the victim out of a
        // small quarantine.
        for c in 0..(churn_per_victim / 512) {
            let churn_addr = addr + 0x1000 + c * 0x400;
            engine.on_alloc(&mut shadow, churn_addr, 512, 0xC);
            let _ = engine.on_free(&mut shadow, churn_addr, 0xC, 0);
        }
        // Delayed UAF: is the access still classified with chunk context?
        if let Err(violation) = shadow.check(addr + 4, 4) {
            let report = engine.classify(violation.bad_addr, violation.code, 4, false, 0x1, 0);
            if report.class == BugClass::Uaf {
                uaf += 1;
            }
        }
        // Delayed double free.
        if let Some(report) = engine.on_free(&mut shadow, addr, 0xF4EE, 0) {
            if report.class == BugClass::DoubleFree {
                dfree += 1;
            }
        }
    }
    QuarantineRow { capacity, uaf_classified: uaf, double_free_classified: dfree, trials }
}

/// Outcome of one KCSAN parameter configuration.
#[derive(Debug, Clone, Copy)]
pub struct KcsanRow {
    /// Sampling interval (one watchpoint per `sample` accesses).
    pub sample: u64,
    /// Stall window in instructions.
    pub window: u64,
    /// Of `trials` race-trigger programs, how many produced a race report.
    pub detected: usize,
    /// Trials run.
    pub trials: usize,
    /// Virtual-time ratio vs the `sample=u64::MAX` (never-sample) run.
    pub virt_ratio: f64,
}

/// Builds a KCSAN-only spec with overridden watchpoint parameters.
fn kcsan_spec(sample: u64, window: u64) -> SanitizerSpec {
    let mut spec =
        embsan_core::distill::distill(embsan_core::distill::KCSAN_HEADER).expect("kcsan header");
    let wp = spec.resources.get_mut("watchpoints").expect("watchpoints resource");
    wp.insert("sample".to_string(), sample);
    wp.insert("window".to_string(), window);
    spec
}

/// KCSAN ablation: seeded race firmware, `trials` trigger programs per
/// configuration.
pub fn kcsan_ablation(sample: u64, window: u64, trials: usize) -> KcsanRow {
    let run = |sample: u64, window: u64| -> (usize, u64) {
        let bug = BugSpec::new("ablation/race", BugKind::Race);
        let opts = BuildOptions::new(Arch::X86v).san(SanMode::SanCall).cpus(2);
        let image = os::emblinux::build(&opts, std::slice::from_ref(&bug)).expect("build");
        let artifacts = probe(&image, ProbeMode::CompileTime, None).expect("probe");
        let mut session = Session::with_cpus(&image, &[kcsan_spec(sample, window)], &artifacts, 2)
            .expect("session");
        session.run_to_ready(400_000_000).expect("ready");
        let retired_start = session.machine().retired();
        let mut detected = 0;
        for trial in 0..trials {
            let mut program = ExecProgram::new();
            for _ in 0..4 {
                program.push(sys::BUG_BASE, &[trigger_key("ablation/race")]);
            }
            let outcome = session.run_program_fresh(&program, 50_000_000).expect("program");
            // Dedup would hide repeat detections across trials.
            if outcome.reports.iter().any(|r| r.class == BugClass::Race)
                || (trial > 0 && session.reports().iter().any(|r| r.class == BugClass::Race))
            {
                detected += 1;
            }
        }
        (detected, session.machine().retired() - retired_start)
    };
    // "Never samples" reference for the virtual-time ratio.
    let (_, base_retired) = run(u64::MAX, window);
    let (detected, retired) = run(sample, window);
    KcsanRow {
        sample,
        window,
        detected,
        trials,
        virt_ratio: retired as f64 / base_retired.max(1) as f64,
    }
}

/// Outcome of one fuzzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzerAblationRow {
    /// Binary dictionary enabled.
    pub dictionary: bool,
    /// Deterministic stage enabled.
    pub deterministic_stage: bool,
    /// Distinct seeded bugs found under the budget.
    pub bugs_found: usize,
    /// Fuzzing iterations spent.
    pub iterations: u64,
}

/// Fuzzer ablation: fixed budget on a two-bug firmware, toggling the
/// dictionary and the deterministic stage.
pub fn fuzzer_ablation(
    dictionary: bool,
    deterministic_stage: bool,
    iterations: u64,
) -> FuzzerAblationRow {
    let spec =
        embsan_guestos::firmware_by_name("OpenHarmony-stm32f407").expect("registered firmware");
    let image = spec.build(spec.default_san_mode()).expect("build");
    let artifacts =
        probe(&image, embsan_fuzz::campaign::probe_mode_for(spec), None).expect("probe");
    let ready = CampaignConfig { ready_budget: 400_000_000, ..CampaignConfig::default() };
    let mut session = boot_session(&image, &artifacts, 1, &ready).expect("ready");
    let dict = if dictionary { Dictionary::extract(&image) } else { Dictionary::default() };
    let mut config = FuzzerConfig::new(Strategy::Tardis, 0xAB1A);
    config.deterministic_stage = deterministic_stage;
    let mut fuzzer = Fuzzer::new(&mut session, descriptions_for(spec), dict, config);
    fuzzer.run(iterations).expect("fuzzing runs");
    let mut nrs: Vec<u8> =
        fuzzer.findings().iter().flat_map(|f| f.bug_syscalls.iter().copied()).collect();
    nrs.sort_unstable();
    nrs.dedup();
    FuzzerAblationRow { dictionary, deterministic_stage, bugs_found: nrs.len(), iterations }
}

/// Outcome of the heap pre-poisoning ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepoisonRow {
    /// Probing mode (pre-poisoning possible only with heap bounds).
    pub prepoisoned: bool,
    /// Near overflow (within the tail redzone) detected.
    pub near_detected: bool,
    /// Far overflow (past the tail redzone) detected.
    pub far_detected: bool,
}

/// Heap pre-poisoning ablation on VxWorks-style firmware: probed from
/// source (heap bounds known → whole heap pre-poisoned) vs binary-only
/// (tail redzones only).
pub fn prepoison_ablation(prepoisoned: bool) -> PrepoisonRow {
    let bugs = [
        BugSpec::new("ablation/near", BugKind::OobWrite),
        BugSpec::new("ablation/far", BugKind::OobWriteFar),
    ];
    let opts = BuildOptions::new(Arch::Armv);
    let (image, mode) = if prepoisoned {
        (os::vxworks::build_unstripped(&opts, &bugs).expect("build"), ProbeMode::DynamicSource)
    } else {
        (os::vxworks::build(&opts, &bugs).expect("build"), ProbeMode::DynamicBinary)
    };
    let artifacts = probe(&image, mode, None).expect("probe");
    let ready = CampaignConfig { ready_budget: 400_000_000, ..CampaignConfig::default() };
    let mut session = boot_session(&image, &artifacts, 1, &ready).expect("ready");
    let mut detect = |nr: u8, location: &str| -> bool {
        let mut program = ExecProgram::new();
        program.push(nr, &[trigger_key(location)]);
        let outcome = session.run_program_fresh(&program, 20_000_000).expect("program");
        outcome.reports.iter().any(|r| r.class == BugClass::HeapOob)
    };
    PrepoisonRow {
        prepoisoned,
        near_detected: detect(sys::BUG_BASE, "ablation/near"),
        far_detected: detect(sys::BUG_BASE + 1, "ablation/far"),
    }
}

/// Outcome of one coverage-source configuration.
#[derive(Debug, Clone, Copy)]
pub struct CoverageSourceRow {
    /// Collection mechanism.
    pub source: CoverageSource,
    /// Whether the staged-gate bug was found under the budget.
    pub bug_found: bool,
    /// Coverage buckets reached.
    pub coverage: usize,
    /// Corpus entries retained.
    pub corpus: usize,
}

/// Coverage-source ablation: the same firmware (built with both kcov
/// beacons and EMBSAN-C instrumentation), the same budget and seed, fuzzed
/// once with emulator edge coverage (the Tardis/EMBSAN mechanism) and once
/// with guest kcov-style function coverage. The staged byte gates are
/// intra-function branches — invisible to function-granular coverage, so
/// the guest source cannot retain stage-1 progress.
pub fn coverage_source_ablation(source: CoverageSource, iterations: u64) -> CoverageSourceRow {
    let bug = BugSpec::new("ablation/covsrc", BugKind::OobWrite);
    let opts = BuildOptions::new(Arch::Armv).san(SanMode::SanCall).kcov(true);
    let image = os::emblinux::build(&opts, std::slice::from_ref(&bug)).expect("build");
    let artifacts = probe(&image, ProbeMode::CompileTime, None).expect("probe");
    let ready = CampaignConfig { ready_budget: 400_000_000, ..CampaignConfig::default() };
    let mut session = boot_session(&image, &artifacts, 1, &ready).expect("ready");
    let mut config = FuzzerConfig::new(Strategy::Syz, 0xC0DE);
    config.coverage_source = source;
    let mut descs = embsan_fuzz::descs::base_descriptions();
    descs.push(embsan_fuzz::SyscallDesc {
        nr: sys::BUG_BASE,
        args: vec![embsan_fuzz::ArgKind::Key],
    });
    let dict = Dictionary::extract(&image);
    let mut fuzzer = Fuzzer::new(&mut session, descs, dict, config);
    fuzzer.run(iterations).expect("fuzzing runs");
    let stats = fuzzer.stats();
    CoverageSourceRow {
        source,
        bug_found: stats.findings > 0,
        coverage: stats.coverage,
        corpus: stats.corpus,
    }
}

/// Outcome of one directed-fuzzing arm on one OS flavour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectedRow {
    /// OS flavour of the wide-gated image.
    pub os: &'static str,
    /// Whether the dictionary carried the harvested wide operands.
    pub harvest: bool,
    /// Per seed, in order: the iteration whose execution produced the
    /// first finding, or `None` when the budget ran out first.
    pub first_finding: Vec<Option<u64>>,
}

impl DirectedRow {
    /// Runs whose first finding came within `iterations` (the sequential
    /// engine is deterministic per iteration, so this is the k of a
    /// shorter campaign at the same seed).
    pub fn found_within(&self, iterations: u64) -> usize {
        self.first_finding.iter().flatten().filter(|&&at| at <= iterations).count()
    }

    /// Median iteration of the first finding over the runs that found it.
    pub fn median_first_finding(&self) -> Option<f64> {
        let mut found: Vec<u64> = self.first_finding.iter().flatten().copied().collect();
        found.sort_unstable();
        let n = found.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(found[n / 2] as f64),
            _ => Some((found[n / 2 - 1] + found[n / 2]) as f64 / 2.0),
        }
    }
}

/// Directed-fuzzing ablation: `os`'s image with the `fuzz/wide:oob-write`
/// bug behind one 32-bit comparison (`embsan build OS --san c --wide-gates`),
/// fuzzed sequentially (Tardis, one bug syscall) for `iterations` at each
/// seed, with the analysis harvest in the dictionary (`harvest`) or
/// without it. Each run boots a fresh session, so report dedup does not
/// carry over between seeds.
///
/// # Panics
///
/// Panics on an unknown OS flavour or a harness failure.
pub fn directed_ablation(
    os: &'static str,
    harvest: bool,
    seeds: &[u64],
    iterations: u64,
) -> DirectedRow {
    let bug = BugSpec::new("fuzz/wide", BugKind::OobWrite);
    let opts = BuildOptions::new(Arch::Armv).san(SanMode::SanCall).wide_gates(true);
    let bugs = std::slice::from_ref(&bug);
    let image = match os {
        "emblinux" => os::emblinux::build(&opts, bugs),
        "freertos" => os::freertos::build(&opts, bugs),
        "liteos" => os::liteos::build(&opts, bugs),
        "vxworks" => os::vxworks::build_unstripped(&opts, bugs),
        other => panic!("unknown OS flavour {other}"),
    }
    .expect("build");
    let artifacts = probe(&image, ProbeMode::CompileTime, None).expect("probe");
    let ready = CampaignConfig { ready_budget: 400_000_000, ..CampaignConfig::default() };
    let mut dict = Dictionary::extract(&image);
    if harvest {
        dict = dict.with_wide(&AnalysisArtifact::from_image(&image).operands());
    }
    let mut descs = embsan_fuzz::descs::base_descriptions();
    descs.push(embsan_fuzz::SyscallDesc {
        nr: sys::BUG_BASE,
        args: vec![embsan_fuzz::ArgKind::Key],
    });
    let first_finding = seeds
        .iter()
        .map(|&seed| {
            let mut session = boot_session(&image, &artifacts, 1, &ready).expect("ready");
            let config = FuzzerConfig::new(Strategy::Tardis, seed);
            let mut fuzzer = Fuzzer::new(&mut session, descs.clone(), dict.clone(), config);
            (1..=iterations).find(|_| {
                fuzzer.run(1).expect("fuzzing runs");
                !fuzzer.findings().is_empty()
            })
        })
        .collect();
    DirectedRow { os, harvest, first_finding }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quarantine's classification-quality effect has the right
    /// direction: a large quarantine keeps every delayed UAF/double-free
    /// correctly classified; a tiny one degrades them.
    #[test]
    fn quarantine_direction() {
        let large = quarantine_ablation(1 << 20);
        assert_eq!(large.uaf_classified, large.trials);
        assert_eq!(large.double_free_classified, large.trials);
        let tiny = quarantine_ablation(1024);
        assert!(
            tiny.uaf_classified < large.uaf_classified,
            "tiny quarantine must lose UAF context: {tiny:?}"
        );
        assert!(tiny.double_free_classified < large.double_free_classified);
    }

    /// Pre-poisoning catches far overflows; tail redzones alone do not.
    /// Near overflows are caught either way.
    #[test]
    fn prepoison_direction() {
        let with = prepoison_ablation(true);
        assert!(with.near_detected && with.far_detected, "{with:?}");
        let without = prepoison_ablation(false);
        assert!(without.near_detected, "{without:?}");
        assert!(!without.far_detected, "{without:?}");
    }

    /// Emulator edge coverage climbs the staged gates; kcov-style guest
    /// function coverage cannot (stage branches create no new functions).
    #[test]
    fn coverage_source_direction() {
        let emulator = coverage_source_ablation(CoverageSource::Emulator, 4000);
        assert!(emulator.bug_found, "{emulator:?}");
        let guest = coverage_source_ablation(CoverageSource::Guest, 4000);
        assert!(!guest.bug_found, "{guest:?}");
        assert!(guest.coverage < emulator.coverage);
    }

    /// The full fuzzer beats the no-dictionary configuration under the
    /// same small budget.
    #[test]
    fn fuzzer_dictionary_direction() {
        let full = fuzzer_ablation(true, true, 2500);
        let no_dict = fuzzer_ablation(false, true, 2500);
        assert!(full.bugs_found >= 1, "{full:?}");
        assert!(full.bugs_found > no_dict.bugs_found, "full {full:?} vs no-dict {no_dict:?}");
    }

    /// The harvested operand opens the wide gate; the extracted dictionary
    /// alone sees only its `lui`/`ori` halves and stays out.
    #[test]
    fn directed_harvest_direction() {
        let harvest = directed_ablation("emblinux", true, &[8], 400);
        assert_eq!(harvest.found_within(400), 1, "{harvest:?}");
        let undirected = directed_ablation("emblinux", false, &[8], 400);
        assert_eq!(undirected.first_finding, [None]);
    }
}
