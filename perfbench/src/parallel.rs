//! `fuzz-par2`: the epoch engine (`run_parallel`) with two workers.
//!
//! Each unit is one `run_parallel` call: a fresh campaign whose workers
//! each build, probe and boot their own session (sessions are
//! thread-affine, so nothing carries over between calls). In the first
//! pass the one-worker engine runs every unit too and must report the same
//! findings, corpus and coverage (the N workers ≡ 1 worker contract).

use std::sync::Mutex;
use std::time::Instant;

use embsan_fuzz::campaign::{attribute_findings, CampaignConfig};
use embsan_fuzz::{
    descriptions_for, run_parallel, Dictionary, ParallelConfig, ParallelOutcome, ParallelStats,
};
use embsan_guestos::FirmwareSpec;

use crate::fuzz::{prepare, strategy_for};
use crate::record::{self, Layers, Series};
use crate::stats::{fnv1a, mix};
use crate::trace::Trace;
use crate::{Budget, Pass, Workload};

pub struct ParWorkload {
    firmware: Vec<&'static FirmwareSpec>,
    campaigns: usize,
    iterations: u64,
    workers: usize,
    seed: u64,
}

impl ParWorkload {
    pub fn new(
        firmware: Vec<&'static FirmwareSpec>,
        campaigns: usize,
        iterations: u64,
        workers: usize,
        seed: u64,
    ) -> ParWorkload {
        ParWorkload { firmware, campaigns, iterations, workers, seed }
    }

    /// One `run_parallel` window. Returns the outcome and the set-up time:
    /// the main-thread build plus the fastest worker's session preparation.
    /// The workers prepare identical sessions side by side, so the fastest
    /// is the one the host disturbed least (two workers sharing one vCPU
    /// for a moment doubles the slowest one's). Traced windows add each worker's build, probe and boot
    /// seconds to `layers` under worker names: they run on the worker
    /// threads, inside the `fuzz.parallel` span.
    fn window(
        &self,
        spec: &'static FirmwareSpec,
        unit: usize,
        workers: usize,
        trace: &mut Trace,
        layers: &mut Layers,
    ) -> Result<(ParallelOutcome, f64), String> {
        let build = Instant::now();
        let image = trace
            .time("guestos.build", || spec.build(spec.default_san_mode()))
            .map_err(|e| format!("{}: build: {e}", spec.name))?;
        let build = build.elapsed().as_secs_f64();
        let dict = Dictionary::extract(&image);
        let descs = descriptions_for(spec);
        let config = ParallelConfig {
            workers,
            campaign: CampaignConfig {
                iterations: self.iterations,
                seed: mix(self.seed, unit as u64 + 1),
                ..CampaignConfig::default()
            },
            ..ParallelConfig::default()
        };
        let traced = trace.enabled();
        let worker_layers: Mutex<Vec<(f64, [f64; 3])>> = Mutex::new(Vec::new());
        // Wraps the factory `run_parallel_campaign` uses (`prepare_session`,
        // taken apart by `prepare`) to time each worker's set-up.
        let factory = |_worker: usize| {
            let begin = Instant::now();
            let mut local = Trace::new(traced);
            let (session, _) = prepare(spec, &mut local)?;
            let secs = begin.elapsed().as_secs_f64();
            let own = local.self_times();
            let parts = ["guestos.build", "core.probe", "core.boot"]
                .map(|name| own.get(name).copied().unwrap_or(0.0));
            worker_layers.lock().expect("no worker panicked").push((secs, parts));
            Ok(session)
        };
        trace.enter("fuzz.parallel");
        let outcome = run_parallel(factory, &descs, &dict, strategy_for(spec), &config)
            .map_err(|e| format!("{}: run_parallel: {e}", spec.name));
        if let Ok(outcome) = &outcome {
            trace.record_tail("fuzz.parallel.loop", outcome.stats.fuzz_wall.as_secs_f64());
        }
        trace.exit();
        let outcome = outcome?;
        let per_worker = worker_layers.into_inner().expect("no worker panicked");
        let slowest = per_worker.iter().map(|(secs, _)| *secs).fold(0.0, f64::max);
        let fastest = per_worker.iter().map(|(secs, _)| *secs).fold(f64::INFINITY, f64::min);
        let setup = build + fastest;
        record::add(layers, "fuzz.parallel.worker_setup_s", slowest);
        for (_, [build, probe, boot]) in per_worker {
            record::add(layers, "fuzz.parallel.worker.build_s", build);
            record::add(layers, "fuzz.parallel.worker.probe_s", probe);
            record::add(layers, "fuzz.parallel.worker.boot_s", boot);
        }
        Ok((outcome, setup))
    }
}

/// What the N ≡ 1 contract compares: findings, corpus and coverage.
fn fingerprint(outcome: &ParallelOutcome) -> u64 {
    let ParallelStats { execs, corpus, coverage, findings, .. } = outcome.stats;
    let text = format!(
        "{:?} {:?} {execs} {corpus} {coverage} {findings}",
        outcome.findings, outcome.corpus
    );
    fnv1a(text.as_bytes())
}

impl Workload for ParWorkload {
    fn group_size(&self) -> usize {
        self.campaigns
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn pass(&mut self, index: usize, budget: &Budget, ctx: &mut Pass) {
        // The first pass checks N ≡ 1, and its one-worker windows are the
        // base of the parallel efficiency.
        let one_worker = index == 0;
        let series = if ctx.trace.enabled() { Series::Traced } else { Series::Untraced };
        let (mut peak_overlay, mut sharing) = (0u64, usize::MAX);
        for (f, spec) in self.firmware.iter().copied().enumerate() {
            for j in 0..self.campaigns {
                if !budget.more(index) {
                    break;
                }
                let unit = f * self.campaigns + j;
                match self.window(spec, unit, self.workers, ctx.trace, &mut ctx.layers) {
                    Ok((outcome, setup)) => {
                        let stats = outcome.stats;
                        ctx.rec.setup(f, setup);
                        let secs = stats.fuzz_wall.as_secs_f64();
                        ctx.rec.window(series, unit, stats.execs, secs, fingerprint(&outcome));
                        ctx.found.extend(
                            attribute_findings(spec, &outcome.findings)
                                .iter()
                                .map(|b| b.latent_index),
                        );
                        peak_overlay = peak_overlay.max(stats.max_worker_overlay_bytes);
                        sharing = sharing.min(stats.workers_sharing_base);
                        let cache = stats.cache;
                        for (name, value) in [
                            ("fuzz.execs", stats.execs),
                            ("fuzz.parallel.epochs", stats.epochs),
                            ("core.slow_path_checks", stats.slow_path_checks),
                            ("emu.translations", cache.translations),
                            ("emu.cache_hits", cache.hits),
                            ("emu.chained_dispatches", cache.chained_dispatches),
                            ("emu.superblocks_formed", cache.superblocks_formed),
                        ] {
                            record::add(&mut ctx.layers, name, value as f64);
                        }
                    }
                    Err(why) => ctx.rec.fail(self.iterations, why),
                }
                if one_worker {
                    // Reference windows are neither traced nor counted in
                    // the pass's layer values.
                    let mut off = Trace::new(false);
                    match self.window(spec, unit, 1, &mut off, &mut Layers::new()) {
                        Ok((outcome, _)) => {
                            let secs = outcome.stats.fuzz_wall.as_secs_f64();
                            let fp = fingerprint(&outcome);
                            let execs = outcome.stats.execs;
                            ctx.rec.window(Series::OneWorker, unit, execs, secs, fp);
                        }
                        Err(why) => ctx.rec.fail(self.iterations, why),
                    }
                }
            }
        }
        record::add(&mut ctx.layers, "emu.cow.peak_overlay_bytes", peak_overlay as f64);
        if sharing != usize::MAX {
            record::add(&mut ctx.layers, "emu.cow.workers_sharing_base", sharing as f64);
        }
    }
}
