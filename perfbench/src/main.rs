//! EMBSAN end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fuzz-seq --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A run repeats passes over a fixed set of identical-work units until
//! `--seconds` have passed, checks every window's outputs, and prints one
//! JSON object as its last line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics (from alternate traced passes) with `--trace 1`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod fuzz;
mod parallel;
mod probe;
mod record;
mod replay;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use embsan_guestos::{firmware_by_name, FirmwareSpec};

use crate::fuzz::SeqWorkload;
use crate::parallel::ParWorkload;
use crate::probe::Probe;
use crate::record::{Layers, Recorder, Series};
use crate::replay::{ReplayWorkload, CONFIGS};
use crate::trace::Trace;

/// The seed used while the benchmark was tuned. Seed 1009 is held out:
/// a later claim is re-checked on it (see README.md).
const DEFAULT_SEED: u64 = 1;

/// Whole passes run even when `--seconds` is shorter: two windows per
/// unit, and in a traced run two traced and two untraced passes.
const MIN_PASSES: usize = 2;
const MIN_TRACED_PASSES: usize = 4;

/// The window quantile the throughput metrics report per unit: the
/// median, the steadiest across runs on a shared host (README.md).
const WINDOW_QUANTILE: f64 = 0.5;

/// Unit shapes: campaigns per firmware and iterations per campaign
/// (`fuzz-*`), corpora per configuration and their size (`replay-fig2`).
const SEQ_CAMPAIGNS: usize = 128;
const SEQ_ITERATIONS: u64 = 100;
const SMP_CAMPAIGNS: usize = 40;
const SMP_ITERATIONS: u64 = 2;
const PAR_CAMPAIGNS: usize = 24;
const PAR_ITERATIONS: u64 = 512;
const PAR_WORKERS: usize = 2;
const REPLAY_CORPORA: usize = 24;
const REPLAY_PROGRAMS: usize = 20;
const REPLAY_CALLS: usize = 56;

/// How strongly throughput follows host contention: across runs of
/// identical work, measured throughput went as the probe time to the power
/// −β, with β fitted between 1.8 and 2.2 on each workload (README.md,
/// "Host contention").
const CONTENTION_EXPONENT: f64 = 2.0;
/// The probe's median sample time at the reference contention level: the
/// median over runs on the 2-vCPU development VM (Xeon, 2.1 GHz).
const PROBE_REF_S: f64 = 0.0012;

const FUZZ_FIRMWARE: [&str; 4] =
    ["OpenWRT-armvirt", "OpenHarmony-stm32mp1", "InfiniTime", "TP-Link WDR-7660"];
const SMP_FIRMWARE: [&str; 2] = ["OpenWRT-x86_64", "InfiniTime-sensor"];
const WORKLOADS: [&str; 4] = ["fuzz-seq", "fuzz-par2", "fuzz-smp", "replay-fig2"];

/// One workload: a fixed list of units, each run once per pass with
/// identical work.
pub trait Workload {
    /// Units per group (a firmware's campaigns, a configuration's
    /// corpora); units are numbered group by group.
    fn group_size(&self) -> usize;
    /// Threads a window keeps busy; the contention probe reads as many.
    fn threads(&self) -> usize {
        1
    }
    /// Runs pass `index` (0 first) while `budget` allows more windows,
    /// recording into `ctx`.
    fn pass(&mut self, index: usize, budget: &Budget, ctx: &mut Pass);
}

/// What one pass records into.
pub struct Pass<'a> {
    pub trace: &'a mut Trace,
    pub rec: &'a mut Recorder,
    /// Per-layer counts of the pass.
    pub layers: Layers,
    /// Latent-bug indices attributed in the pass, repeats included.
    pub found: Vec<usize>,
}

/// When a run stops. Untraced runs stop starting windows at the deadline,
/// mid-pass; traced runs finish the pass, since layer values are per pass.
pub struct Budget {
    deadline: Instant,
    min_passes: usize,
    whole_passes: bool,
}

impl Budget {
    fn new(seconds: f64, traced: bool) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            min_passes: if traced { MIN_TRACED_PASSES } else { MIN_PASSES },
            whole_passes: traced,
        }
    }

    /// Whether pass `index` may start another window.
    pub fn more(&self, index: usize) -> bool {
        self.whole_passes || index < self.min_passes || Instant::now() < self.deadline
    }

    /// Whether the run ends after `passes` passes.
    fn spent(&self, passes: usize) -> bool {
        passes >= self.min_passes && Instant::now() >= self.deadline
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 25.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn firmware(names: &[&str]) -> Vec<&'static FirmwareSpec> {
    names.iter().map(|n| firmware_by_name(n).expect("registered firmware")).collect()
}

fn workload(args: &Args) -> Box<dyn Workload> {
    let seed = args.seed;
    match args.workload.as_str() {
        "fuzz-seq" => Box::new(SeqWorkload::new(
            firmware(&FUZZ_FIRMWARE),
            SEQ_CAMPAIGNS,
            SEQ_ITERATIONS,
            seed,
        )),
        "fuzz-smp" => {
            Box::new(SeqWorkload::new(firmware(&SMP_FIRMWARE), SMP_CAMPAIGNS, SMP_ITERATIONS, seed))
        }
        "fuzz-par2" => Box::new(ParWorkload::new(
            firmware(&FUZZ_FIRMWARE),
            PAR_CAMPAIGNS,
            PAR_ITERATIONS,
            PAR_WORKERS,
            seed,
        )),
        _ => Box::new(ReplayWorkload::new(
            firmware_by_name("OpenWRT-armvirt").expect("registered firmware"),
            REPLAY_CORPORA,
            REPLAY_PROGRAMS,
            REPLAY_CALLS,
            seed,
        )),
    }
}

/// Runs passes until `seconds` have elapsed (and at least
/// [`MIN_PASSES`], or [`MIN_TRACED_PASSES`] when traced). With `traced`,
/// every second pass records spans. Returns the spans of the last traced
/// pass.
fn run(
    workload: &mut dyn Workload,
    rec: &mut Recorder,
    seconds: f64,
    traced: bool,
) -> Vec<trace::Span> {
    let started = Instant::now();
    let budget = Budget::new(seconds, traced);
    let mut last_spans = Vec::new();
    for index in 0.. {
        let mut trace = Trace::new(traced && index % 2 == 1);
        let begin = Instant::now();
        trace.enter("pass");
        let mut ctx = Pass { trace: &mut trace, rec, layers: Layers::new(), found: Vec::new() };
        workload.pass(index, &budget, &mut ctx);
        let Pass { mut layers, mut found, .. } = ctx;
        trace.exit();
        let wall = begin.elapsed().as_secs_f64();
        if trace.enabled() {
            // Per-layer self times plus the pass's own (unattributed)
            // remainder must add up to the independently timed wall time.
            let own = trace.self_times();
            let total: f64 = own.values().sum();
            if (total - wall).abs() > 0.05 * wall {
                rec.mismatch(format!("pass {index}: self times sum to {total} s of {wall} s"));
            }
            for (name, secs) in own {
                let key =
                    if name == "pass" { "trace.unattributed".into() } else { name.to_string() };
                record::add(&mut layers, &format!("{key}_s"), secs);
            }
            record::add(&mut layers, "trace.pass_wall_s", wall);
            found.sort_unstable();
            found.dedup();
            record::add(&mut layers, "fuzz.bugs_found", found.len() as f64);
            rec.layer_passes.push(layers);
            last_spans = trace.into_spans();
        }
        if budget.spent(index + 1) {
            let elapsed = started.elapsed().as_secs_f64();
            eprintln!("perfbench: {} passes in {elapsed:.2} s", index + 1);
            break;
        }
    }
    last_spans
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not exercise).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

type Metric = (String, &'static str, f64);

/// The run's host-contention level: the probe's median sample time over
/// [`PROBE_REF_S`] (1 when the probe took no sample).
fn contention(rec: &Recorder) -> f64 {
    rec.probe.median().map_or(1.0, |secs| secs / PROBE_REF_S)
}

/// The run's throughput, measured, then scaled to the reference contention
/// level: multiplied by `contention^β` ([`CONTENTION_EXPONENT`]).
fn execs_per_sec(rec: &Recorder) -> f64 {
    let measured = rec.throughput(Series::Untraced, WINDOW_QUANTILE).unwrap_or(0.0);
    measured * contention(rec).powf(CONTENTION_EXPONENT)
}

fn end_to_end(rec: &Recorder) -> Vec<Metric> {
    vec![
        ("execs_per_sec".into(), "1/s", execs_per_sec(rec)),
        ("setup_s".into(), "s", rec.setup_s().unwrap_or(0.0)),
    ]
}

/// Per-layer metrics; `replay` is set on `replay-fig2`.
fn per_layer(rec: &Recorder, replay: bool) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let l = |name: &str| rec.layer(name);
    for name in [
        "guestos.build_s",
        "core.probe_s",
        "core.boot_s",
        "fuzz.next_program_s",
        "fuzz.commit_s",
        "core.reset_s",
        "core.exec_s",
        "replay.setup_s",
        "fuzz.parallel.loop_s",
        "trace.pass_wall_s",
        "trace.unattributed_s",
    ] {
        out.push((name.into(), "s", l(name)));
    }
    // The self time of the span around `run_parallel`: worker set-up,
    // epoch merges and thread start and join, all but the fuzzing loop.
    out.push(("fuzz.parallel.overhead_s".into(), "s", l("fuzz.parallel_s")));
    // Worker-thread times: they overlap `fuzz.parallel.overhead_s`, so
    // they are not part of the pass's wall-time sum.
    for name in [
        "fuzz.parallel.worker_setup_s",
        "fuzz.parallel.worker.build_s",
        "fuzz.parallel.worker.probe_s",
        "fuzz.parallel.worker.boot_s",
    ] {
        out.push((name.into(), "s", l(name)));
    }
    let execs = l("fuzz.execs");
    let insns = l("emu.exec_insns");
    out.push(("emu.guest_insns_per_exec".into(), "count", ratio(insns, execs)));
    out.push(("emu.guest_mips".into(), "MIPS", ratio(insns, l("core.exec_s")) / 1e6));
    out.push(("emu.translations".into(), "count", l("emu.translations")));
    out.push((
        "emu.chained_ratio".into(),
        "ratio",
        ratio(l("emu.chained_dispatches"), l("emu.cache_hits")),
    ));
    out.push(("emu.superblocks_formed".into(), "count", l("emu.superblocks_formed")));
    out.push(("core.checks_per_exec".into(), "count", ratio(l("core.checks"), execs)));
    out.push((
        "core.slow_path_ratio".into(),
        "ratio",
        ratio(l("core.slow_path_checks"), l("core.checks")),
    ));
    for spec in firmware(&FUZZ_FIRMWARE).into_iter().chain(firmware(&SMP_FIRMWARE)) {
        let name = fuzz::metric_name(spec);
        let slow = l(&format!("core.slow_path_checks.{name}"));
        let ratio = ratio(slow, l(&format!("core.checks.{name}")));
        out.push((format!("core.slow_path_ratio.{name}"), "ratio", ratio));
    }
    out.push(("fuzz.bugs_found".into(), "count", l("fuzz.bugs_found")));
    for spec in firmware(&FUZZ_FIRMWARE).into_iter().chain(firmware(&SMP_FIRMWARE)) {
        let name = fuzz::metric_name(spec);
        // Iterations of exposure per first finding over the pass's
        // campaigns (a mean-time-to-failure estimate).
        let exposure = l(&format!("fuzz.exposure.{name}"));
        let found = l(&format!("fuzz.first_bugs.{name}")).max(1.0);
        out.push((format!("fuzz.iters_to_first_bug.{name}"), "count", exposure / found));
    }
    let untraced = rec.throughput(Series::Untraced, WINDOW_QUANTILE).unwrap_or(0.0);
    let one_worker = rec.throughput(Series::OneWorker, WINDOW_QUANTILE).unwrap_or(0.0);
    out.push(("fuzz.parallel.efficiency".into(), "ratio", ratio(untraced, one_worker)));
    out.push(("fuzz.parallel.epochs".into(), "count", l("fuzz.parallel.epochs")));
    out.push(("emu.cow.peak_overlay_bytes".into(), "bytes", l("emu.cow.peak_overlay_bytes")));
    out.push(("emu.cow.workers_sharing_base".into(), "count", l("emu.cow.workers_sharing_base")));
    // Replay units are grouped by configuration, in `CONFIGS` order.
    let mut config_throughput = vec![0.0; CONFIGS.len()];
    if replay {
        for (slot, group) in config_throughput
            .iter_mut()
            .zip(rec.group_throughputs(Series::Untraced, WINDOW_QUANTILE))
        {
            *slot = group.unwrap_or(0.0);
        }
    }
    for (c, (name, _)) in CONFIGS.iter().enumerate() {
        out.push((format!("replay.execs_per_sec.{name}"), "1/s", config_throughput[c]));
    }
    for (c, (name, _)) in CONFIGS.iter().enumerate().skip(1) {
        // Slowdown against the unsanitized baseline (time ratio).
        let slowdown = ratio(config_throughput[0], config_throughput[c]);
        out.push((format!("bench.overhead_x.{name}"), "x", slowdown));
    }
    for (name, _) in CONFIGS {
        out.push((format!("core.checks.{name}"), "count", l(&format!("core.checks.{name}"))));
    }
    // The untraced throughput as measured, before the contention scaling
    // of `execs_per_sec`, and the contention level it was scaled by.
    out.push((
        "window_p50_execs_per_sec".into(),
        "1/s",
        rec.throughput(Series::Untraced, WINDOW_QUANTILE).unwrap_or(0.0),
    ));
    out.push(("host.contention".into(), "ratio", contention(rec)));
    // Each unit's fastest window: moves when a change speeds only some
    // windows, or when interference eases.
    out.push((
        "window_max_execs_per_sec".into(),
        "1/s",
        rec.throughput(Series::Untraced, 1.0).unwrap_or(0.0),
    ));
    // VmHWM: it depends on allocator state and on which corpus needs the
    // most memory, so it moves too much between seeds to gate on.
    out.push((
        "process.peak_rss_mib".into(),
        "MiB",
        embsan_bench::peak_rss_bytes() as f64 / 1048576.0,
    ));
    let traced = rec.throughput(Series::Traced, WINDOW_QUANTILE).unwrap_or(0.0);
    out.push(("trace.untraced_execs_per_sec".into(), "1/s", untraced));
    out.push(("trace.traced_execs_per_sec".into(), "1/s", traced));
    let overhead = if traced > 0.0 { untraced / traced - 1.0 } else { 0.0 };
    out.push(("trace.overhead".into(), "ratio", overhead));
    out
}

fn result_json(rec: &Recorder, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.correct(),
        rec.tally.attempted,
        rec.tally.failed,
        body.join(", ")
    )
}

fn write_spans(workload: &str, spans: &[trace::Span]) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let path = std::path::Path::new(&dir).join(format!("perfbench-spans-{workload}.jsonl"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_json_lines(spans)));
    match written {
        Ok(()) => eprintln!("perfbench: spans of the last traced pass in {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workload = workload(&args);
    let mut rec = Recorder::new(workload.group_size());
    rec.probe = Probe::new(workload.threads());
    let spans = run(workload.as_mut(), &mut rec, args.seconds, args.trace);
    let metrics = if args.trace {
        write_spans(&args.workload, &spans);
        per_layer(&rec, args.workload == "replay-fig2")
    } else {
        end_to_end(&rec)
    };
    eprintln!(
        "perfbench: measured {} execs/s at host contention {}",
        rec.throughput(Series::Untraced, WINDOW_QUANTILE).unwrap_or(0.0),
        contention(&rec)
    );
    for (name, unit, value) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let tally = rec.tally;
    println!(
        "failed {} of {} executions ({})",
        tally.failed,
        tally.attempted,
        tally.failure_ratio()
    );
    println!("{}", result_json(&rec, &metrics));
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let rest =
                &entry[entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
    }

    fn emitted(metrics: Vec<Metric>) -> Vec<(String, String)> {
        metrics.into_iter().map(|(name, unit, _)| (name, unit.to_string())).collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let rec = Recorder::new(1);
        assert_eq!(emitted(end_to_end(&rec)), declared("end_to_end"));
        assert_eq!(emitted(per_layer(&rec, false)), declared("per_layer"));
        assert_eq!(emitted(per_layer(&rec, true)), declared("per_layer"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut rec = Recorder::new(1);
        rec.window(Series::Untraced, 0, 4, 2.0, 1);
        let line =
            result_json(&rec, &[("execs_per_sec".into(), "1/s", 2.0), ("x".into(), "s", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"execs_per_sec\": \
             {\"value\": 2, \"unit\": \"1/s\"}, \"x\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
