//! Microbenchmark behind Figure 2: corpus replay under each sanitizer
//! configuration on one representative firmware.
//!
//! Run with `cargo bench -p embsan-bench`. The full-figure harness (all
//! firmware, grouped facets) is the `figure2` binary; this bench gives
//! per-configuration replay timings on one target. It is a plain
//! `harness = false` binary with an in-tree timing loop because the
//! offline build environment cannot fetch `criterion`.

use std::time::{Duration, Instant};

use embsan_core::probe::{probe, ProbeMode};
use embsan_emu::hook::NullHook;
use embsan_emu::machine::{Machine, RunExit};
use embsan_fuzz::campaign::boot_session;
use embsan_fuzz::CampaignConfig;
use embsan_guestos::executor::ExecProgram;
use embsan_guestos::firmware_by_name;
use embsan_guestos::workload::merged_corpus;
use embsan_guestos::SanMode;

const SAMPLES: usize = 10;

fn corpus() -> Vec<ExecProgram> {
    merged_corpus(0xBE9C, 4, 32)
}

/// Times `iter` over `SAMPLES` runs (after one warm-up) and prints the
/// median, min and max — the numbers criterion would have characterized.
fn bench_function(name: &str, mut iter: impl FnMut()) {
    iter(); // warm-up: populate translation caches
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            iter();
            start.elapsed()
        })
        .collect();
    samples.sort();
    println!(
        "{name:<28} median {:>10.3?}  min {:>10.3?}  max {:>10.3?}  ({SAMPLES} samples)",
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
    );
}

/// Replays the corpus through the raw machine mailbox (no host runtime).
fn replay_raw(machine: &mut Machine, corpus: &[ExecProgram]) {
    for program in corpus {
        machine.bus_mut().devices.mailbox.host_load(&program.encode());
        loop {
            let exit = machine.run(&mut NullHook, 500_000).unwrap();
            if machine.bus().devices.mailbox.answered() || exit != RunExit::BudgetExhausted {
                break;
            }
        }
    }
}

/// Baseline: raw machine, no sanitizer.
fn bench_baseline() {
    let spec = firmware_by_name("OpenWRT-armvirt").unwrap();
    let image = spec.build(SanMode::None).unwrap();
    let mut machine = image.boot_machine(1).unwrap();
    machine.run(&mut NullHook, 400_000_000).unwrap();
    let snapshot = machine.snapshot();
    let corpus = corpus();
    bench_function("replay/baseline", || {
        machine.restore(&snapshot).unwrap();
        replay_raw(&mut machine, &corpus);
    });
}

fn bench_sanitized(name: &str, san: SanMode, mode: ProbeMode) {
    let spec = firmware_by_name("OpenWRT-armvirt").unwrap();
    let image = spec.build(san).unwrap();
    let artifacts = probe(&image, mode, None).unwrap();
    let ready = CampaignConfig { ready_budget: 400_000_000, ..CampaignConfig::default() };
    let mut session = boot_session(&image, &artifacts, 1, &ready).unwrap();
    let corpus = corpus();
    bench_function(name, || {
        session.reset().unwrap();
        for program in &corpus {
            session.run_program(program, 50_000_000).unwrap();
        }
    });
}

/// Native KASAN: guest-resident checks, no host runtime.
fn bench_native() {
    let spec = firmware_by_name("OpenWRT-armvirt").unwrap();
    let image = spec.build(SanMode::NativeKasan).unwrap();
    let mut machine = image.boot_machine(1).unwrap();
    machine.run(&mut NullHook, 400_000_000).unwrap();
    let snapshot = machine.snapshot();
    let corpus = corpus();
    bench_function("replay/native-kasan", || {
        machine.restore(&snapshot).unwrap();
        replay_raw(&mut machine, &corpus);
    });
}

fn main() {
    bench_baseline();
    bench_sanitized("replay/embsan-c-kasan+kcsan", SanMode::SanCall, ProbeMode::CompileTime);
    bench_sanitized("replay/embsan-d-kasan+kcsan", SanMode::None, ProbeMode::DynamicSource);
    bench_native();
}
