//! The benchmark's own statistics: window quantiles, the grouped
//! throughput aggregate, and failure accounting.

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the "inclusive" method: the minimum is q=0, the maximum q=1).
/// `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; `None` if empty or any value is not
/// positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Per-group throughput from per-unit window throughputs. Units are
/// numbered group by group, `group_size` to a group (a firmware's
/// campaigns, a configuration's corpora). Each unit contributes the
/// `q`-quantile of its windows; a group is the median over its units, so
/// a few pathological campaigns cannot drag it. `None` for a group
/// without windows.
pub fn group_throughputs(units: &[Vec<f64>], group_size: usize, q: f64) -> Vec<Option<f64>> {
    units
        .chunks(group_size.max(1))
        .map(|group| {
            let per_unit: Vec<f64> = group.iter().filter_map(|w| quantile(w, q)).collect();
            median(&per_unit)
        })
        .collect()
}

/// The run's throughput: the geometric mean over groups of
/// [`group_throughputs`], so every firmware or configuration weighs the
/// same however fast it runs.
pub fn throughput(units: &[Vec<f64>], group_size: usize, q: f64) -> Option<f64> {
    let groups: Vec<f64> = group_throughputs(units, group_size, q).into_iter().flatten().collect();
    geomean(&groups)
}

/// The geometric mean over groups of each group's median sample, so that
/// every group weighs the same however many samples it has and however
/// slow it is. Groups without samples are skipped.
pub fn group_median_geomean(groups: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = groups.iter().filter_map(|g| median(g)).collect();
    geomean(&medians)
}

/// Executions attempted and failed. A window that fails counts every
/// execution it was to run as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self, execs: u64) {
        self.attempted += execs;
    }

    pub fn fail(&mut self, execs: u64) {
        self.attempted += execs;
        self.failed += execs;
    }

    /// Failed share of attempted executions (0 when nothing was attempted).
    pub fn failure_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a over bytes: fingerprints of a window's outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(quantile(&v, 0.9), Some(4.6));
        assert_eq!(quantile(&[2.0, 4.0], 0.5), Some(3.0));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn unit_median_ignores_a_minority_of_slowed_windows() {
        // Interference only ever slows a window: with fewer than half of a
        // unit's windows inside an episode its median stays on the
        // undisturbed value, while the mean would not.
        let windows = [100.0, 41.0, 100.0, 100.0, 57.0];
        assert_eq!(median(&windows), Some(100.0));
        assert!(windows.iter().sum::<f64>() / 5.0 < 80.0);
        assert_eq!(group_throughputs(&[windows.to_vec()], 1, 0.5), vec![Some(100.0)]);
    }

    #[test]
    fn groups_take_the_median_unit_and_combine_by_geomean() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, -1.0]), None);
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
        // Group 0: unit medians 2, 3 and a pathological 0.01 -> 2.
        // Group 1: one unit without windows, one with median 8 -> 8.
        let units =
            vec![vec![1.0, 2.0, 4.0], vec![3.0], vec![0.01, 0.01], vec![], vec![8.0, 8.0], vec![]];
        assert_eq!(group_throughputs(&units, 3, 0.5), vec![Some(2.0), Some(8.0)]);
        assert!((throughput(&units, 3, 0.5).unwrap() - 4.0).abs() < 1e-12);
        // The unit quantile applies within a unit: q=1 takes its best window.
        assert_eq!(group_throughputs(&units[..3], 3, 1.0), vec![Some(3.0)]);
        assert_eq!(group_throughputs(&units[3..4], 1, 0.5), vec![None]);
        assert_eq!(throughput(&[], 4, 0.5), None);
    }

    #[test]
    fn set_up_moves_when_only_one_group_slows() {
        // Four firmware with five set-up samples each. Doubling the slowest
        // firmware's set-up leaves a pooled median where it was; the
        // per-group aggregate moves by the fourth root of two.
        let before = vec![vec![1.0; 5], vec![2.0; 5], vec![4.0; 5], vec![8.0; 5]];
        let mut after = before.clone();
        after[3] = vec![16.0; 5];
        assert_eq!(median(&before.concat()), median(&after.concat()));
        let (b, a) =
            (group_median_geomean(&before).unwrap(), group_median_geomean(&after).unwrap());
        assert!((b - 8f64.sqrt()).abs() < 1e-12, "{b}");
        assert!((a / b - 2f64.powf(0.25)).abs() < 1e-12, "{a} / {b}");
        // A group without samples is skipped.
        assert_eq!(group_median_geomean(&[vec![], vec![3.0, 1.0, 2.0]]), Some(2.0));
        assert_eq!(group_median_geomean(&[]), None);
    }

    #[test]
    fn failures_count_against_attempted_executions() {
        let mut tally = Tally::default();
        assert_eq!(tally.failure_ratio(), 0.0);
        tally.ok(300);
        tally.fail(100);
        assert_eq!(tally, Tally { attempted: 400, failed: 100 });
        assert_eq!(tally.failure_ratio(), 0.25);
    }

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
