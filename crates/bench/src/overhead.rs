//! Figure 2: runtime overhead of EMBSAN vs native sanitizers.
//!
//! §4.3's methodology: the firmware replays a merged corpus; the slowdown
//! is the ratio of sanitized to unsanitized execution. Configurations:
//!
//! - **Baseline**: uninstrumented firmware, no hooks;
//! - **EMBSAN-C**: instrumented firmware + on-host runtime via hypercalls;
//! - **EMBSAN-D**: uninstrumented firmware + translation-spliced probes;
//! - **Native**: firmware carrying a guest-resident KASAN/KCSAN, no host
//!   runtime (the sanitizer's own routines are translated guest code —
//!   the paper's explanation for why EMBSAN can beat it).
//!
//! Both wall-clock and retired-guest-instruction counts are captured; the
//! wall ratio is the figure's metric (EMBSAN-D adds *host* work per access
//! that guest instruction counts cannot see).

use std::time::{Duration, Instant};

use embsan_core::probe::{probe, ProbeMode};
use embsan_core::session::Session;
use embsan_dsl::SanitizerSpec;
use embsan_emu::hook::NullHook;
use embsan_emu::machine::{Machine, RunExit};
use embsan_guestos::executor::ExecProgram;
use embsan_guestos::workload::merged_corpus;
use embsan_guestos::{FirmwareSpec, SanMode};

/// Which sanitizer functionality is being measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizerChoice {
    /// KASAN-equivalent functionality.
    Kasan,
    /// KCSAN-equivalent functionality.
    Kcsan,
}

impl SanitizerChoice {
    /// The single-sanitizer reference spec for this choice.
    pub fn specs(self) -> Vec<SanitizerSpec> {
        let header = match self {
            SanitizerChoice::Kasan => embsan_core::distill::KASAN_HEADER,
            SanitizerChoice::Kcsan => embsan_core::distill::KCSAN_HEADER,
        };
        vec![embsan_core::distill::distill(header).expect("reference header distills")]
    }

    /// The guest-native build mode for this choice.
    pub fn native_mode(self) -> SanMode {
        match self {
            SanitizerChoice::Kasan => SanMode::NativeKasan,
            SanitizerChoice::Kcsan => SanMode::NativeKcsan,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SanitizerChoice::Kasan => "KASAN",
            SanitizerChoice::Kcsan => "KCSAN",
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadConfig {
    /// Unsanitized reference run.
    Baseline,
    /// EMBSAN with compile-time instrumentation.
    EmbsanC(SanitizerChoice),
    /// EMBSAN with dynamic instrumentation.
    EmbsanD(SanitizerChoice),
    /// Guest-native sanitizer baseline.
    Native(SanitizerChoice),
}

impl OverheadConfig {
    /// Display label (matches the figure's series names).
    pub fn label(self) -> String {
        match self {
            OverheadConfig::Baseline => "baseline".to_string(),
            OverheadConfig::EmbsanC(c) => format!("EmbSan-C {}", c.label()),
            OverheadConfig::EmbsanD(c) => format!("EmbSan-D {}", c.label()),
            OverheadConfig::Native(c) => format!("native {}", c.label()),
        }
    }

    /// Whether this configuration can be built for closed-source firmware
    /// (recompilation-based configs cannot).
    pub fn possible_for(self, spec: &FirmwareSpec) -> bool {
        match self {
            OverheadConfig::Baseline | OverheadConfig::EmbsanD(_) => true,
            OverheadConfig::EmbsanC(_) | OverheadConfig::Native(_) => spec.open_source,
        }
    }
}

/// One measurement.
#[derive(Debug, Clone, Copy)]
pub struct OverheadRow {
    /// Measured configuration.
    pub config: OverheadConfig,
    /// Wall-clock time replaying the corpus.
    pub wall: Duration,
    /// Guest instructions retired during the replay.
    pub retired: u64,
    /// Sanitizer checks performed (0 for baseline/native).
    pub checks: u64,
}

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct OverheadWorkload {
    /// Corpus seed.
    pub seed: u32,
    /// Number of programs.
    pub programs: usize,
    /// Calls per program.
    pub calls: usize,
    /// Times the whole corpus is replayed (stabilizes wall-clock).
    pub repeats: usize,
}

impl Default for OverheadWorkload {
    fn default() -> OverheadWorkload {
        OverheadWorkload { seed: 0xF16, programs: 20, calls: 56, repeats: 6 }
    }
}

const READY_BUDGET: u64 = 400_000_000;
const PROGRAM_BUDGET: u64 = 50_000_000;

/// Replays the corpus on a raw machine (baseline / native configs).
fn run_corpus_raw(
    machine: &mut Machine,
    corpus: &[ExecProgram],
    repeats: usize,
) -> (Duration, u64) {
    let retired_before = machine.retired();
    let start = Instant::now();
    for program in corpus.iter().cycle().take(corpus.len() * repeats) {
        machine.bus_mut().devices.mailbox.host_load(&program.encode());
        let mut spent = 0u64;
        loop {
            let exit = machine.run(&mut NullHook, 500_000).expect("machine runs");
            spent += 500_000;
            // The overhead workload is clean: any fault or halt means the
            // harness (or a guest runtime) is broken, not the workload.
            assert!(
                !matches!(exit, RunExit::Halted { .. } | RunExit::Faulted { .. }),
                "clean workload must not crash: {exit:?}"
            );
            let done = machine.bus().devices.mailbox.answered();
            if done || spent >= PROGRAM_BUDGET {
                break;
            }
        }
        machine.bus_mut().devices.mailbox.host_take_results();
    }
    (start.elapsed(), machine.retired() - retired_before)
}

/// Replays the corpus through a sanitized session.
fn run_corpus_session(
    session: &mut Session,
    corpus: &[ExecProgram],
    repeats: usize,
) -> (Duration, u64) {
    let retired_before = session.machine().retired();
    let start = Instant::now();
    for program in corpus.iter().cycle().take(corpus.len() * repeats) {
        session.run_program(program, PROGRAM_BUDGET).expect("workload program runs");
    }
    (start.elapsed(), session.machine().retired() - retired_before)
}

/// Measures one configuration on one firmware.
///
/// # Panics
///
/// Panics on harness failures (builds and boots must succeed) and if a
/// sanitized run reports a bug on the clean workload (a false positive
/// would invalidate the overhead comparison).
pub fn measure_configuration(
    spec: &FirmwareSpec,
    config: OverheadConfig,
    workload: &OverheadWorkload,
) -> OverheadRow {
    assert!(config.possible_for(spec), "{:?} impossible for {}", config, spec.name);
    let corpus = merged_corpus(workload.seed, workload.programs, workload.calls);
    match config {
        OverheadConfig::Baseline => {
            let image = spec.build(SanMode::None).expect("baseline build");
            let mut machine = image.boot_machine(1).expect("baseline machine");
            let exit = machine.run(&mut NullHook, READY_BUDGET).expect("boot");
            assert_eq!(exit, RunExit::AllIdle);
            let (wall, retired) = run_corpus_raw(&mut machine, &corpus, workload.repeats);
            OverheadRow { config, wall, retired, checks: 0 }
        }
        OverheadConfig::Native(choice) => {
            let image = spec.build(choice.native_mode()).expect("native build");
            let mut machine = image.boot_machine(1).expect("native machine");
            let exit = machine.run(&mut NullHook, READY_BUDGET).expect("boot");
            assert_eq!(exit, RunExit::AllIdle, "native boot is clean");
            machine.take_console();
            let (wall, retired) = run_corpus_raw(&mut machine, &corpus, workload.repeats);
            // The clean workload must stay clean: a native false positive
            // (console splat or report halt) would invalidate the ratio.
            let console = String::from_utf8_lossy(&machine.take_console()).to_string();
            assert!(
                !console.contains("KASAN") && !console.contains("KCSAN"),
                "native false positive on clean workload: {console}"
            );
            OverheadRow { config, wall, retired, checks: 0 }
        }
        OverheadConfig::EmbsanC(choice) | OverheadConfig::EmbsanD(choice) => {
            let is_c = matches!(config, OverheadConfig::EmbsanC(_));
            let san = if is_c { SanMode::SanCall } else { SanMode::None };
            let image = spec.build(san).expect("embsan build");
            let mode = if is_c {
                ProbeMode::CompileTime
            } else if image.has_symbols() {
                ProbeMode::DynamicSource
            } else {
                ProbeMode::DynamicBinary
            };
            let artifacts = probe(&image, mode, None).expect("probing");
            let mut session =
                Session::new(&image, &choice.specs(), &artifacts).expect("session constructs");
            session.run_to_ready(READY_BUDGET).expect("ready");
            let (wall, retired) = run_corpus_session(&mut session, &corpus, workload.repeats);
            assert!(
                session.reports().is_empty(),
                "false positive during overhead run: {:?}",
                session.reports()
            );
            OverheadRow { config, wall, retired, checks: session.runtime().checks_performed() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsan_guestos::firmware_by_name;

    /// The central Figure-2 shape assertions on one firmware: every
    /// sanitized configuration costs more than baseline, and EMBSAN-D
    /// (probing every access of every function) retires no extra guest
    /// work but performs more checks than EMBSAN-C (which skips
    /// `no_instrument` code).
    #[test]
    fn overhead_shape_on_one_firmware() {
        let spec = firmware_by_name("OpenWRT-armvirt").unwrap();
        let workload = OverheadWorkload { seed: 9, programs: 4, calls: 30, repeats: 1 };
        let baseline = measure_configuration(spec, OverheadConfig::Baseline, &workload);
        let c =
            measure_configuration(spec, OverheadConfig::EmbsanC(SanitizerChoice::Kasan), &workload);
        let d =
            measure_configuration(spec, OverheadConfig::EmbsanD(SanitizerChoice::Kasan), &workload);
        let native =
            measure_configuration(spec, OverheadConfig::Native(SanitizerChoice::Kasan), &workload);
        // Guest-instruction shape: instrumented builds retire more
        // instructions than the uninstrumented ones; native (in-guest
        // checks) retires the most by far.
        assert!(c.retired > baseline.retired);
        assert!(native.retired > c.retired);
        // EMBSAN-D adds no guest work (same binary as baseline); the two
        // runs may differ by a handful of boot-tail instructions because
        // the session stops at the ready breakpoint, the raw baseline at
        // first idle.
        assert!(
            d.retired.abs_diff(baseline.retired) < 64,
            "EMBSAN-D guest work {} vs baseline {}",
            d.retired,
            baseline.retired
        );
        // Check accounting: D probes everything, C only instrumented code.
        assert!(d.checks > c.checks);
        assert!(baseline.checks == 0 && native.checks == 0);
    }

    #[test]
    fn closed_firmware_rejects_recompilation_configs() {
        let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
        assert!(!OverheadConfig::EmbsanC(SanitizerChoice::Kasan).possible_for(spec));
        assert!(!OverheadConfig::Native(SanitizerChoice::Kasan).possible_for(spec));
        assert!(OverheadConfig::EmbsanD(SanitizerChoice::Kasan).possible_for(spec));
    }
}
