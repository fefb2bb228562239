//! Coverage-gated input corpus.

use embsan_guestos::executor::ExecProgram;

use crate::cover::{buckets_set, CoverageMap, MAP_SIZE};

/// A corpus of programs retained for producing new coverage.
pub struct Corpus {
    entries: Vec<ExecProgram>,
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
        Corpus { entries: Vec::new(), global: Box::new([0; MAP_SIZE]) }
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
        if coverage.merge_novel(&mut self.global) > 0 {
            self.entries.push(program.clone());
            true
        } else {
            false
        }
    }

    /// Sparse admission (the epoch engine's): merges a
    /// [`CoverageMap::classified_sparse`] export into the global map and
    /// retains `program` when it reached anything new. Returns `true` when
    /// retained.
    pub fn add_if_novel_sparse(&mut self, program: ExecProgram, sparse: &[(u32, u8)]) -> bool {
        if CoverageMap::merge_classified(&mut self.global, sparse) == 0 {
            return false;
        }
        self.entries.push(program);
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

    /// The global classified-coverage map (checkpoint export).
    pub fn global_map(&self) -> &[u8; MAP_SIZE] {
        &self.global
    }

    /// Rebuilds a corpus from checkpointed parts (the inverse of
    /// [`Corpus::entries`] + [`Corpus::global_map`]).
    pub fn from_parts(entries: Vec<ExecProgram>, global: Box<[u8; MAP_SIZE]>) -> Corpus {
        Corpus { entries, global }
    }

    /// Drops every entry for which `keep` returns `false` (input
    /// quarantine). The global coverage map is deliberately kept: the
    /// dropped input's coverage was real, only the input is untrusted.
    pub fn retain(&mut self, keep: impl FnMut(&ExecProgram) -> bool) {
        self.entries.retain(keep);
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
    fn retain_drops_entries_but_keeps_coverage() {
        let mut corpus = Corpus::new();
        let mut cov = CoverageMap::new();
        for i in 0..3u8 {
            cov.reset();
            cov.record(0, 0x1000 * (u32::from(i) + 1));
            let mut program = ExecProgram::new();
            program.push(i, &[]);
            assert!(corpus.add_if_novel(&program, &cov));
        }
        let coverage = corpus.coverage_buckets();
        corpus.retain(|p| p.calls[0].nr != 1);
        let kept: Vec<u8> = corpus.entries().iter().map(|p| p.calls[0].nr).collect();
        assert_eq!(kept, [0, 2]);
        assert_eq!(corpus.coverage_buckets(), coverage);
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
