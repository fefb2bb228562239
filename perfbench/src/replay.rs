//! `replay-fig2`: the Figure-2 clean merged corpus replayed on
//! OpenWRT-armvirt under each KASAN configuration, through the public
//! `measure_configuration`.
//!
//! A unit is one (configuration, corpus) pair: `corpora` corpora are
//! generated from sub-seeds of the run seed and every pass replays each
//! under every configuration. Each window builds,
//! boots and replays from scratch inside `measure_configuration`, which
//! reports the replay's wall time; the rest of the call is the window's
//! set-up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use embsan_bench::{measure_configuration, OverheadConfig, OverheadWorkload, SanitizerChoice};
use embsan_guestos::FirmwareSpec;

use crate::record::{self, Series};
use crate::stats::mix;
use crate::{Budget, Pass, Workload};

/// The measured configurations with their metric-name suffixes.
pub const CONFIGS: [(&str, OverheadConfig); 4] = [
    ("baseline", OverheadConfig::Baseline),
    ("embsan_c", OverheadConfig::EmbsanC(SanitizerChoice::Kasan)),
    ("embsan_d", OverheadConfig::EmbsanD(SanitizerChoice::Kasan)),
    ("native", OverheadConfig::Native(SanitizerChoice::Kasan)),
];

pub struct ReplayWorkload {
    spec: &'static FirmwareSpec,
    corpora: usize,
    programs: usize,
    calls: usize,
    seed: u64,
}

impl ReplayWorkload {
    pub fn new(
        spec: &'static FirmwareSpec,
        corpora: usize,
        programs: usize,
        calls: usize,
        seed: u64,
    ) -> ReplayWorkload {
        ReplayWorkload { spec, corpora, programs, calls, seed }
    }
}

impl Workload for ReplayWorkload {
    fn group_size(&self) -> usize {
        self.corpora
    }

    fn pass(&mut self, index: usize, budget: &Budget, ctx: &mut Pass) {
        let Pass { trace, rec, layers, .. } = ctx;
        for (c, (name, config)) in CONFIGS.iter().enumerate() {
            for k in 0..self.corpora {
                if !budget.more(index) {
                    return;
                }
                let unit = c * self.corpora + k;
                let workload = OverheadWorkload {
                    seed: mix(self.seed, k as u64 + 1) as u32,
                    programs: self.programs,
                    calls: self.calls,
                    repeats: 1,
                };
                let execs = self.programs as u64;
                trace.enter("replay.setup");
                let start = Instant::now();
                // `measure_configuration` panics on a sanitizer report or
                // a native KASAN/KCSAN splat: the corpus is clean, so either
                // is a false positive and fails the window.
                let row = catch_unwind(AssertUnwindSafe(|| {
                    measure_configuration(self.spec, *config, &workload)
                }));
                let total = start.elapsed().as_secs_f64();
                let row = match row {
                    Ok(row) => row,
                    Err(_) => {
                        trace.exit();
                        rec.fail(execs, format!("{name}: corpus {k}: clean replay reported"));
                        continue;
                    }
                };
                let wall = row.wall.as_secs_f64();
                trace.record_tail("core.exec", wall);
                trace.exit();
                rec.setup(c, total - wall);
                // The guest must retire the same instructions and perform
                // the same checks every time it replays this corpus.
                let fingerprint = row.retired ^ row.checks.rotate_left(32);
                let series = if trace.enabled() { Series::Traced } else { Series::Untraced };
                rec.window(series, unit, execs, wall, fingerprint);
                record::add(layers, "fuzz.execs", execs as f64);
                record::add(layers, "emu.exec_insns", row.retired as f64);
                record::add(layers, &format!("core.checks.{name}"), row.checks as f64);
                record::add(layers, "core.checks", row.checks as f64);
            }
        }
    }
}
