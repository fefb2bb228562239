//! OS-agnostic edge coverage from emulator block events.
//!
//! This is the Tardis-style collection path: the emulator reports every
//! translation-block entry; edges are hashed AFL-style from
//! `(previous block, current block)` pairs into a fixed bitmap. No guest
//! cooperation is required, which is exactly what makes it OS-agnostic.

use embsan_emu::cpu::CpuView;
use embsan_emu::hook::ExecHook;

/// Size of the edge bitmap (one byte per bucket, AFL-classic).
pub const MAP_SIZE: usize = 1 << 16;

/// Number of non-zero buckets in a classified (global) coverage map.
pub fn buckets_set(map: &[u8]) -> usize {
    map.iter().filter(|&&b| b != 0).count()
}

/// An AFL-style edge-coverage bitmap that doubles as the emulator observer.
#[derive(Clone)]
pub struct CoverageMap {
    map: Box<[u8; MAP_SIZE]>,
    prev: [u32; 8],
    /// Buckets set since the last reset, one entry per zero→nonzero
    /// transition (counts saturate and never return to zero, so entries are
    /// unique). Firmware touches a few hundred buckets per execution;
    /// driving reset/merge/export off this list instead of scanning the
    /// full 64 KiB map keeps per-iteration bookkeeping proportional to
    /// actual coverage.
    touched: Vec<u32>,
}

impl std::fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoverageMap")
            .field("set_buckets", &self.count_set())
            .finish_non_exhaustive()
    }
}

impl Default for CoverageMap {
    fn default() -> CoverageMap {
        CoverageMap::new()
    }
}

impl CoverageMap {
    /// Creates an empty map.
    pub fn new() -> CoverageMap {
        CoverageMap { map: Box::new([0; MAP_SIZE]), prev: [0; 8], touched: Vec::new() }
    }

    /// Clears hit counts and edge history (call before each execution).
    /// Only touched buckets are cleared (every nonzero bucket is on the
    /// touched list by construction), so the cost tracks coverage, not map
    /// size.
    pub fn reset(&mut self) {
        for &index in &self.touched {
            self.map[index as usize] = 0;
        }
        self.touched.clear();
        self.prev = [0; 8];
    }

    #[inline]
    fn bump(&mut self, index: usize) {
        let bucket = &mut self.map[index];
        if *bucket == 0 {
            self.touched.push(index as u32);
        }
        *bucket = bucket.saturating_add(1);
    }

    /// Records an edge ending at block `pc` on `cpu`.
    pub fn record(&mut self, cpu: usize, pc: u32) {
        let cur = pc >> 2;
        let prev = self.prev[cpu & 7];
        let index = ((prev >> 1) ^ cur) as usize & (MAP_SIZE - 1);
        self.bump(index);
        self.prev[cpu & 7] = cur;
    }

    /// Records a kcov-style coverage identifier directly (PC/function-set
    /// semantics: no edge mixing, one bucket per identifier).
    pub fn record_id(&mut self, id: u32) {
        self.bump(id as usize & (MAP_SIZE - 1));
    }

    /// Number of non-zero buckets.
    pub fn count_set(&self) -> usize {
        self.touched.len()
    }

    /// Folds raw counts into AFL bucket classes (1, 2, 3, 4-7, 8-15, …).
    fn classify(count: u8) -> u8 {
        match count {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 4,
            4..=7 => 8,
            8..=15 => 16,
            16..=31 => 32,
            32..=127 => 64,
            _ => 128,
        }
    }

    /// Merges this execution's classified coverage into `global`, returning
    /// the number of buckets that gained a new class bit (novelty signal).
    pub fn merge_novel(&self, global: &mut [u8; MAP_SIZE]) -> usize {
        // Bucket updates are independent (distinct indices, OR-merge), so
        // walking the unordered touched list produces the same global map
        // and novelty count as a full ascending scan.
        let mut novel = 0;
        for &index in &self.touched {
            let bucket = &mut global[index as usize];
            let class = Self::classify(self.map[index as usize]);
            if class & !*bucket != 0 {
                novel += 1;
                *bucket |= class;
            }
        }
        novel
    }

    /// Exports this execution's classified coverage as a sparse
    /// `(bucket index, class bit)` list. Parallel workers ship these to the
    /// merge step instead of full 64 KiB maps; merging every export in
    /// iteration order via [`CoverageMap::merge_classified`] produces
    /// exactly the same global map as calling [`CoverageMap::merge_novel`]
    /// on the live maps in that order.
    pub fn classified_sparse(&self) -> Vec<(u32, u8)> {
        // Sorted so the export is byte-identical to the historical full-map
        // scan (ascending indices) — these lists land in deterministic
        // artifacts.
        let mut indices = self.touched.clone();
        indices.sort_unstable();
        indices.iter().map(|&index| (index, Self::classify(self.map[index as usize]))).collect()
    }

    /// Merges a sparse classified export (from
    /// [`CoverageMap::classified_sparse`]) into `global`, returning the
    /// number of buckets that gained a new class bit.
    pub fn merge_classified(global: &mut [u8; MAP_SIZE], sparse: &[(u32, u8)]) -> usize {
        let mut novel = 0;
        for &(index, class) in sparse {
            let bucket = &mut global[index as usize & (MAP_SIZE - 1)];
            if class & !*bucket != 0 {
                novel += 1;
                *bucket |= class;
            }
        }
        novel
    }
}

impl ExecHook for CoverageMap {
    fn block_enter(&mut self, cpu: &mut CpuView<'_>, pc: u32) {
        self.record(cpu.cpu_index(), pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_edges_not_blocks() {
        let mut cov = CoverageMap::new();
        cov.record(0, 0x1000);
        cov.record(0, 0x2000);
        cov.record(0, 0x1000);
        // Three distinct edges: (0→1000), (1000→2000), (2000→1000).
        assert_eq!(cov.count_set(), 3);
        // Same path again adds no new buckets but bumps counts.
        cov.record(0, 0x2000);
        assert_eq!(cov.count_set(), 3);
    }

    #[test]
    fn per_cpu_edge_history() {
        let mut a = CoverageMap::new();
        a.record(0, 0x1000);
        a.record(1, 0x2000); // cpu1's edge starts from its own prev (0)
        let mut b = CoverageMap::new();
        b.record(0, 0x1000);
        b.record(0, 0x2000); // same blocks, single-cpu chain
        assert_ne!(a.map[..], b.map[..]);
    }

    #[test]
    fn novelty_detection() {
        let mut global = [0u8; MAP_SIZE];
        let mut cov = CoverageMap::new();
        cov.record(0, 0x1000);
        cov.record(0, 0x2000);
        assert_eq!(cov.merge_novel(&mut global), 2);
        // Identical run: nothing new.
        assert_eq!(cov.merge_novel(&mut global), 0);
        // A loop executed many times changes the bucket class → novel again.
        for _ in 0..20 {
            cov.record(0, 0x1000);
            cov.record(0, 0x2000);
        }
        assert!(cov.merge_novel(&mut global) > 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut cov = CoverageMap::new();
        cov.record(0, 0x1000);
        cov.reset();
        assert_eq!(cov.count_set(), 0);
        let mut global = [0u8; MAP_SIZE];
        assert_eq!(cov.merge_novel(&mut global), 0);
    }
}
