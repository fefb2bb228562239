//! `fuzz-seq` and `fuzz-smp`: the sequential engine (`Fuzzer`, the
//! `run_campaign` loop) on a basket of short campaigns.
//!
//! Every pass runs, for each firmware, `campaigns` short campaigns in a
//! fixed order, each a new `Fuzzer` with its own sub-seed (one unit each)
//! on a session prepared for it alone: firmware build, probing, session
//! construction and boot to the ready point are the window's set-up, and
//! its report dedup starts empty. So every pass repeats the same work
//! unit by unit, and no campaign depends on another.

use std::time::Instant;

use embsan_core::probe::probe;
use embsan_core::session::Session;
use embsan_fuzz::campaign::{
    attribute_findings, prepare_session, probe_mode_for, CampaignConfig, CampaignError,
};
use embsan_fuzz::{descriptions_for, Dictionary, Fuzzer, FuzzerConfig, Strategy};
use embsan_guestos::firmware::Fuzzer as PaperFuzzer;
use embsan_guestos::FirmwareSpec;

use crate::record::{self, Series};
use crate::stats::{fnv1a, mix};
use crate::trace::Trace;
use crate::{Budget, Pass, Workload};

pub struct SeqWorkload {
    firmware: Vec<&'static FirmwareSpec>,
    campaigns: usize,
    iterations: u64,
    seed: u64,
    /// Each firmware's ready-state hash from `prepare_session`, taken
    /// before its first window.
    ready_hash: Vec<Option<u64>>,
}

impl SeqWorkload {
    pub fn new(
        firmware: Vec<&'static FirmwareSpec>,
        campaigns: usize,
        iterations: u64,
        seed: u64,
    ) -> SeqWorkload {
        let ready_hash = vec![None; firmware.len()];
        SeqWorkload { firmware, campaigns, iterations, seed, ready_hash }
    }
}

pub fn strategy_for(spec: &FirmwareSpec) -> Strategy {
    match spec.fuzzer {
        PaperFuzzer::Syzkaller => Strategy::Syz,
        PaperFuzzer::Tardis => Strategy::Tardis,
    }
}

/// Metric-name form of a firmware name.
pub fn metric_name(spec: &FirmwareSpec) -> String {
    spec.name.replace(' ', "_")
}

/// `prepare_session` taken apart so each layer gets its own span: build,
/// probe, then session construction plus boot to the ready point.
pub fn prepare(
    spec: &FirmwareSpec,
    trace: &mut Trace,
) -> Result<(Session, Dictionary), CampaignError> {
    let image = trace.time("guestos.build", || spec.build(spec.default_san_mode()))?;
    let artifacts = trace.time("core.probe", || probe(&image, probe_mode_for(spec), None))?;
    let session = trace.time("core.boot", || -> Result<Session, CampaignError> {
        let specs = embsan_core::reference_specs()?;
        let cpus = if spec.needs_smp() { 2 } else { 1 };
        let mut session = Session::with_cpus(&image, &specs, &artifacts, cpus)?;
        session.run_to_ready(CampaignConfig::default().ready_budget)?;
        Ok(session)
    })?;
    Ok((session, Dictionary::extract(&image)))
}

/// Session-wide counters, read before and after a firmware's campaigns.
#[derive(Clone, Copy)]
struct Counters {
    checks: u64,
    slow: u64,
}

impl Counters {
    fn read(session: &Session) -> Counters {
        Counters {
            checks: session.runtime().checks_performed(),
            slow: session.runtime().slow_path_checks(),
        }
    }
}

impl Workload for SeqWorkload {
    fn group_size(&self) -> usize {
        self.campaigns
    }

    fn pass(&mut self, index: usize, budget: &Budget, ctx: &mut Pass) {
        for f in 0..self.firmware.len() {
            for j in 0..self.campaigns {
                if !budget.more(index) {
                    return;
                }
                if let Err(why) = self.window(f, j, ctx) {
                    ctx.rec.fail(self.iterations, why);
                }
            }
        }
    }
}

impl SeqWorkload {
    /// One campaign window: campaign `j` of firmware `f` on a session
    /// prepared for it alone, so its report dedup starts empty.
    fn window(&mut self, f: usize, j: usize, ctx: &mut Pass) -> Result<(), String> {
        let spec = self.firmware[f];
        let unit = f * self.campaigns + j;
        let trace = &mut *ctx.trace;
        let setup = Instant::now();
        let (mut session, dict) =
            prepare(spec, trace).map_err(|e| format!("{}: {e}", spec.name))?;
        let setup = setup.elapsed().as_secs_f64();
        // The spans above must not change what is prepared: every window's
        // ready state is bit-identical to `prepare_session`'s.
        let reference = match self.ready_hash[f] {
            Some(hash) => hash,
            None => {
                let (reference, _) = prepare_session(spec, &CampaignConfig::default())
                    .map_err(|e| format!("{}: prepare_session: {e}", spec.name))?;
                let hash =
                    reference.base_hash().ok_or_else(|| format!("{}: not ready", spec.name))?;
                *self.ready_hash[f].insert(hash)
            }
        };
        if session.base_hash() != Some(reference) {
            ctx.rec.mismatch(format!("{}: ready state differs from prepare_session", spec.name));
        }
        let before = Counters::read(&session);
        let mut config = FuzzerConfig::new(strategy_for(spec), mix(self.seed, unit as u64 + 1));
        config.program_budget = CampaignConfig::default().program_budget;
        let insns = session.machine().lifetime_retired();
        let start = Instant::now();
        let mut fuzzer = Fuzzer::new(&mut session, descriptions_for(spec), dict, config);
        let mut first = None;
        let mut exec_insns = 0;
        if trace.enabled() {
            // `Fuzzer::run` step by step. The extra reset before `run_raw`
            // is a no-op for the session's state (`run_raw` resets again)
            // and gives the snapshot restore its own span.
            for i in 0..self.iterations {
                let program = trace.time("fuzz.next_program", || fuzzer.next_program());
                trace
                    .time("core.reset", || fuzzer.session_mut().reset())
                    .map_err(|e| format!("{}: reset: {e}", spec.name))?;
                let before_exec = fuzzer.session_mut().machine().lifetime_retired();
                let outcome = trace
                    .time("core.exec", || fuzzer.run_raw(&program))
                    .map_err(|e| format!("{}: exec: {e}", spec.name))?;
                exec_insns += fuzzer.session_mut().machine().lifetime_retired() - before_exec;
                trace
                    .time("fuzz.commit", || fuzzer.commit(&program, outcome))
                    .map_err(|e| format!("{}: commit: {e}", spec.name))?;
                if first.is_none() && !fuzzer.findings().is_empty() {
                    first = Some(i + 1);
                }
            }
        } else {
            fuzzer.run(self.iterations).map_err(|e| format!("{}: campaign {j}: {e}", spec.name))?;
        }
        let secs = start.elapsed().as_secs_f64();
        let stats = fuzzer.stats();
        let findings = format!("{:?} {stats:?}", fuzzer.findings());
        let bugs: Vec<usize> =
            attribute_findings(spec, fuzzer.findings()).iter().map(|b| b.latent_index).collect();
        drop(fuzzer);
        let retired = session.machine().lifetime_retired() - insns;
        let series = if trace.enabled() { Series::Traced } else { Series::Untraced };
        ctx.rec.setup(f, setup);
        ctx.rec.window(series, unit, stats.execs, secs, fnv1a(findings.as_bytes()) ^ retired);
        ctx.found.extend(bugs);
        let after = Counters::read(&session);
        let (checks, slow) =
            ((after.checks - before.checks) as f64, (after.slow - before.slow) as f64);
        let cache = session.cache_stats();
        let layers = &mut ctx.layers;
        record::add(layers, "fuzz.execs", stats.execs as f64);
        record::add(layers, "core.checks", checks);
        record::add(layers, "core.slow_path_checks", slow);
        record::add(layers, "emu.exec_insns", exec_insns as f64);
        record::add(layers, "emu.translations", cache.translations as f64);
        record::add(layers, "emu.cache_hits", cache.hits as f64);
        record::add(layers, "emu.chained_dispatches", cache.chained_dispatches as f64);
        record::add(layers, "emu.superblocks_formed", cache.superblocks_formed as f64);
        let name = metric_name(spec);
        record::add(layers, &format!("core.checks.{name}"), checks);
        record::add(layers, &format!("core.slow_path_checks.{name}"), slow);
        if trace.enabled() {
            // Iterations run before the campaign's first finding; a
            // campaign without one adds all of its iterations.
            let exposure = first.unwrap_or(self.iterations);
            record::add(layers, &format!("fuzz.exposure.{name}"), exposure as f64);
            record::add(layers, &format!("fuzz.first_bugs.{name}"), f64::from(first.is_some()));
        }
        Ok(())
    }
}
