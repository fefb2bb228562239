//! Coverage-gated input corpus.

use embsan_guestos::executor::ExecProgram;

use crate::cover::{buckets_set, CoverageMap, MAP_SIZE};
use crate::directed::Direction;

/// Score of an entry whose distance to the direction targets is unknown
/// (no artifact loaded, or none of its covered blocks reach a target).
pub const UNSCORED: u32 = u32::MAX;

/// A corpus of programs retained for producing new coverage.
pub struct Corpus {
    entries: Vec<ExecProgram>,
    /// Per-entry static-distance score (milli-edges; [`UNSCORED`] when
    /// unknown), parallel to `entries`. Only directed campaigns read it.
    scores: Vec<u32>,
    global: Box<[u8; MAP_SIZE]>,
}

impl std::fmt::Debug for Corpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Corpus")
            .field("entries", &self.entries.len())
            .field("coverage", &self.coverage_buckets())
            .finish()
    }
}

impl Default for Corpus {
    fn default() -> Corpus {
        Corpus::new()
    }
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Corpus {
        Corpus { entries: Vec::new(), scores: Vec::new(), global: Box::new([0; MAP_SIZE]) }
    }

    /// Number of retained programs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total coverage buckets reached so far.
    pub fn coverage_buckets(&self) -> usize {
        buckets_set(&self.global[..])
    }

    /// Adds `program` if its execution's coverage reached anything new.
    /// Returns `true` when retained.
    pub fn add_if_novel(&mut self, program: &ExecProgram, coverage: &CoverageMap) -> bool {
        self.add_if_novel_scored(program, coverage, UNSCORED)
    }

    /// [`Corpus::add_if_novel`] with a static-distance score attached to
    /// the entry when it is retained (directed campaigns).
    pub fn add_if_novel_scored(
        &mut self,
        program: &ExecProgram,
        coverage: &CoverageMap,
        score: u32,
    ) -> bool {
        if coverage.merge_novel(&mut self.global) > 0 {
            self.entries.push(program.clone());
            self.scores.push(score);
            true
        } else {
            false
        }
    }

    /// Sparse admission (the epoch engine's): merges a
    /// [`CoverageMap::classified_sparse`] export into the global map and
    /// retains `program` when it reached anything new, scored by
    /// `direction` from the same export. Returns `true` when retained.
    pub fn add_if_novel_sparse(
        &mut self,
        program: ExecProgram,
        sparse: &[(u32, u8)],
        direction: Option<&Direction>,
    ) -> bool {
        if CoverageMap::merge_classified(&mut self.global, sparse) == 0 {
            return false;
        }
        self.entries.push(program);
        self.scores.push(direction.map_or(UNSCORED, |d| d.score_sparse(sparse)));
        true
    }

    /// Picks an entry by an arbitrary index (callers supply randomness).
    pub fn pick(&self, index: usize) -> Option<&ExecProgram> {
        if self.entries.is_empty() {
            None
        } else {
            Some(&self.entries[index % self.entries.len()])
        }
    }

    /// The retained programs, in retention order (checkpoint export).
    pub fn entries(&self) -> &[ExecProgram] {
        &self.entries
    }

    /// Per-entry static-distance scores, parallel to [`Corpus::entries`]
    /// ([`UNSCORED`] when unknown).
    pub fn scores(&self) -> &[u32] {
        &self.scores
    }

    /// The global classified-coverage map (checkpoint export).
    pub fn global_map(&self) -> &[u8; MAP_SIZE] {
        &self.global
    }

    /// Rebuilds a corpus from checkpointed parts (the inverse of
    /// [`Corpus::entries`] + [`Corpus::global_map`]).
    pub fn from_parts(entries: Vec<ExecProgram>, global: Box<[u8; MAP_SIZE]>) -> Corpus {
        let scores = vec![UNSCORED; entries.len()];
        Corpus { entries, scores, global }
    }

    /// Drops every entry for which `keep` returns `false` (input
    /// quarantine). The global coverage map is deliberately kept: the
    /// dropped input's coverage was real, only the input is untrusted.
    pub fn retain(&mut self, mut keep: impl FnMut(&ExecProgram) -> bool) {
        // Manual sweep so the parallel score vector stays in sync.
        let mut index = 0;
        while index < self.entries.len() {
            if keep(&self.entries[index]) {
                index += 1;
            } else {
                self.entries.remove(index);
                self.scores.remove(index);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_only_novel_inputs() {
        let mut corpus = Corpus::new();
        let mut cov = CoverageMap::new();
        cov.record(0, 0x1000);
        let mut program = ExecProgram::new();
        program.push(0, &[]);
        assert!(corpus.add_if_novel(&program, &cov));
        assert!(!corpus.add_if_novel(&program, &cov), "same coverage is not novel");
        assert_eq!(corpus.len(), 1);
        cov.record(0, 0x9000);
        assert!(corpus.add_if_novel(&program, &cov));
        assert_eq!(corpus.len(), 2);
        assert!(corpus.coverage_buckets() >= 2);
    }

    #[test]
    fn scores_track_entries_through_retain() {
        let mut corpus = Corpus::new();
        let mut cov = CoverageMap::new();
        for i in 0..3u8 {
            cov.reset();
            cov.record(0, 0x1000 * (u32::from(i) + 1));
            let mut program = ExecProgram::new();
            program.push(i, &[]);
            assert!(corpus.add_if_novel_scored(&program, &cov, u32::from(i) * 100));
        }
        assert_eq!(corpus.scores(), &[0, 100, 200]);
        // Drop the middle entry; its score must go with it.
        corpus.retain(|p| p.calls[0].nr != 1);
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.scores(), &[0, 200]);
        // Unscored admission and from_parts fill with UNSCORED.
        let rebuilt = Corpus::from_parts(corpus.entries().to_vec(), {
            let mut global = Box::new([0u8; MAP_SIZE]);
            global.copy_from_slice(corpus.global_map());
            global
        });
        assert_eq!(rebuilt.scores(), &[UNSCORED, UNSCORED]);
    }

    #[test]
    fn pick_wraps() {
        let mut corpus = Corpus::new();
        assert!(corpus.pick(3).is_none());
        let mut cov = CoverageMap::new();
        cov.record(0, 4);
        let mut program = ExecProgram::new();
        program.push(1, &[2]);
        corpus.add_if_novel(&program, &cov);
        assert_eq!(corpus.pick(0), corpus.pick(5));
    }
}
