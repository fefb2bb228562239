//! Per-run bookkeeping: window samples per unit, set-up samples, output
//! fingerprints, failures and per-pass layer values.

use std::collections::BTreeMap;

use crate::probe::Probe;
use crate::stats::{self, Tally};

/// Which set of windows a throughput sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Series {
    /// Windows of untraced passes: the end-to-end measurement.
    Untraced,
    /// Windows of traced passes (tracing overhead).
    Traced,
    /// One-worker epoch-engine windows (`fuzz-par2`).
    OneWorker,
}

/// Per-layer values of one pass, summed as they are recorded.
pub type Layers = BTreeMap<String, f64>;

pub fn add(layers: &mut Layers, name: &str, value: f64) {
    *layers.entry(name.to_string()).or_insert(0.0) += value;
}

#[derive(Debug, Default)]
pub struct Recorder {
    /// Units per group (see [`stats::group_throughputs`]).
    group_size: usize,
    /// Throughput samples per series, indexed by unit.
    windows: BTreeMap<Series, Vec<Vec<f64>>>,
    /// First output fingerprint of each unit.
    fingerprints: BTreeMap<usize, u64>,
    /// Set-up samples per group.
    setups: Vec<Vec<f64>>,
    pub tally: Tally,
    pub mismatches: Vec<String>,
    /// Layer values of each traced pass.
    pub layer_passes: Vec<Layers>,
    /// Samples host contention between windows.
    pub probe: Probe,
}

impl Recorder {
    pub fn new(group_size: usize) -> Recorder {
        Recorder { group_size, ..Recorder::default() }
    }

    /// Records one successful window of `unit`: its throughput sample and
    /// its output fingerprint, which must equal every other window's of
    /// the same unit.
    pub fn window(&mut self, series: Series, unit: usize, execs: u64, secs: f64, fingerprint: u64) {
        self.probe.tick();
        self.tally.ok(execs);
        let units = self.windows.entry(series).or_default();
        if units.len() <= unit {
            units.resize(unit + 1, Vec::new());
        }
        if secs > 0.0 {
            units[unit].push(execs as f64 / secs);
        }
        self.check(unit, fingerprint);
    }

    fn check(&mut self, unit: usize, fingerprint: u64) {
        let first = *self.fingerprints.entry(unit).or_insert(fingerprint);
        if first != fingerprint {
            self.mismatch(format!(
                "unit {unit}: window outputs differ ({first:#018x} vs {fingerprint:#018x})"
            ));
        }
    }

    /// Records one window's set-up time in `group`.
    pub fn setup(&mut self, group: usize, secs: f64) {
        if self.setups.len() <= group {
            self.setups.resize(group + 1, Vec::new());
        }
        self.setups[group].push(secs);
    }

    /// See [`stats::group_median_geomean`].
    pub fn setup_s(&self) -> Option<f64> {
        stats::group_median_geomean(&self.setups)
    }

    pub fn fail(&mut self, execs: u64, why: String) {
        eprintln!("perfbench: failure: {why}");
        self.tally.fail(execs);
    }

    pub fn mismatch(&mut self, why: String) {
        eprintln!("perfbench: output mismatch: {why}");
        self.mismatches.push(why);
    }

    pub fn series(&self, series: Series) -> &[Vec<f64>] {
        self.windows.get(&series).map_or(&[], Vec::as_slice)
    }

    /// See [`stats::throughput`].
    pub fn throughput(&self, series: Series, q: f64) -> Option<f64> {
        stats::throughput(self.series(series), self.group_size, q)
    }

    /// See [`stats::group_throughputs`].
    pub fn group_throughputs(&self, series: Series, q: f64) -> Vec<Option<f64>> {
        stats::group_throughputs(self.series(series), self.group_size, q)
    }

    /// Mean per traced pass of one layer value (0 if never recorded).
    pub fn layer(&self, name: &str) -> f64 {
        let total =
            self.layer_passes.iter().filter_map(|layers| layers.get(name)).fold(0.0, |a, b| a + b);
        total / self.layer_passes.len().max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.tally.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fingerprint_is_the_reference() {
        let mut rec = Recorder::new(2);
        rec.window(Series::Untraced, 0, 10, 1.0, 7);
        rec.window(Series::Traced, 0, 10, 0.5, 7);
        rec.window(Series::Untraced, 3, 10, 2.0, 9);
        assert!(rec.correct());
        rec.window(Series::Untraced, 3, 10, 2.0, 8);
        assert!(!rec.correct());
        assert_eq!(rec.tally.attempted, 40);
        let untraced = rec.series(Series::Untraced);
        assert_eq!(untraced.len(), 4);
        assert_eq!(untraced[0], vec![10.0]);
        assert!(untraced[1].is_empty());
        assert_eq!(untraced[3], vec![5.0, 5.0]);
        assert_eq!(rec.series(Series::Traced)[0], vec![20.0]);
        assert!(rec.series(Series::OneWorker).is_empty());
    }

    #[test]
    fn throughput_groups_units() {
        let mut rec = Recorder::new(2);
        rec.window(Series::Untraced, 0, 10, 1.0, 7);
        rec.window(Series::Untraced, 3, 40, 1.0, 7);
        assert_eq!(rec.group_throughputs(Series::Untraced, 0.5), vec![Some(10.0), Some(40.0)]);
        let both = rec.throughput(Series::Untraced, 0.5).unwrap();
        assert!((both - 20.0).abs() < 1e-9, "{both}");
        assert_eq!(rec.throughput(Series::Traced, 0.5), None);
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut rec = Recorder::new(1);
        rec.window(Series::Untraced, 0, 100, 1.0, 1);
        rec.fail(100, "session failed".to_string());
        assert!(!rec.correct());
        assert_eq!(rec.tally.failure_ratio(), 0.5);
    }

    #[test]
    fn layer_values_are_means_over_traced_passes() {
        let mut rec = Recorder::new(1);
        assert_eq!(rec.layer("core.exec_s"), 0.0);
        for v in [3.0, 1.0, 2.0] {
            let mut layers = Layers::new();
            add(&mut layers, "core.exec_s", v);
            add(&mut layers, "core.exec_s", v);
            rec.layer_passes.push(layers);
        }
        assert_eq!(rec.layer("core.exec_s"), 4.0);
        assert_eq!(rec.layer("absent"), 0.0);
    }
}
