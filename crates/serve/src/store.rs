//! The multi-campaign findings store.
//!
//! Campaigns against the same firmware rediscover the same crashes; the
//! daemon's value over N independent `embsan fuzz` runs is a single
//! deduplicated view. Findings are keyed by `(firmware identity, crash
//! signature)` where the signature is [`Report::signature`] — bug class +
//! faulting PC + access shape — so two jobs hitting the same heap
//! overflow from different inputs collapse into one entry that remembers
//! both reporters.
//!
//! The store is derived state: it is rebuilt from job journals on daemon
//! restart and an entry's reporters shrink when a job is quarantined
//! (a quarantined job's findings are suspect — its journal is kept for
//! post-mortem, but its evidence leaves the shared view).

use std::collections::{BTreeMap, BTreeSet};

use embsan_core::report::{BugClass, Report};
use embsan_obs::json::Value;

/// One deduplicated finding as submitted by a worker turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFinding {
    /// Crash signature ([`Report::signature`]).
    pub signature: u64,
    /// Bug-class code ([`BugClass::code`]).
    pub class: u8,
    /// Faulting program counter.
    pub pc: u32,
}

impl StoreFinding {
    /// Extracts the store key material from a triaged report.
    pub fn from_report(report: &Report) -> StoreFinding {
        StoreFinding { signature: report.signature(), class: report.class.code(), pc: report.pc }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct StoreEntry {
    class: u8,
    pc: u32,
    /// Job ids that reported this signature (sorted, deduplicated).
    reporters: BTreeSet<u64>,
}

/// Cross-campaign deduplicated findings, keyed by
/// `(firmware hash, crash signature)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FindingsStore {
    entries: BTreeMap<(u64, u64), StoreEntry>,
}

impl FindingsStore {
    /// An empty store.
    pub fn new() -> FindingsStore {
        FindingsStore::default()
    }

    /// Records one finding from `job`. Returns `true` when the signature
    /// is new for this firmware (a genuinely novel crash across every
    /// campaign the daemon has run).
    pub fn record(&mut self, firmware_hash: u64, job: u64, finding: StoreFinding) -> bool {
        let entry = self.entries.entry((firmware_hash, finding.signature)).or_insert_with(|| {
            StoreEntry { class: finding.class, pc: finding.pc, reporters: BTreeSet::new() }
        });
        let novel = entry.reporters.is_empty();
        entry.reporters.insert(job);
        novel
    }

    /// Withdraws every finding `job` reported (quarantine). Entries with
    /// no remaining reporter disappear entirely.
    pub fn remove_job(&mut self, job: u64) {
        self.entries.retain(|_, entry| {
            entry.reporters.remove(&job);
            !entry.reporters.is_empty()
        });
    }

    /// Unique crash signatures currently in the store.
    pub fn uniques(&self) -> usize {
        self.entries.len()
    }

    /// Total (firmware, signature, reporter) attribution edges.
    pub fn attributions(&self) -> usize {
        self.entries.values().map(|e| e.reporters.len()).sum()
    }

    /// Deterministic JSON value: entries in key order, reporters sorted,
    /// no timing or host data. Byte-identical across any kill/resume
    /// schedule that reaches the same set of findings.
    pub fn to_value(&self) -> Value {
        let entries = self.entries.iter().map(|((firmware, signature), entry)| {
            let label = BugClass::from_code(entry.class).map_or("unknown", |c| c.label());
            let reporters = entry.reporters.iter().map(|&job| Value::from(job)).collect();
            Value::object([
                ("firmware", Value::from(*firmware)),
                ("signature", Value::from(*signature)),
                ("class", Value::from(label)),
                ("pc", Value::from(u64::from(entry.pc))),
                ("reporters", Value::Arr(reporters)),
            ])
        });
        Value::object([
            ("uniques", Value::from(self.uniques())),
            ("entries", Value::Arr(entries.collect())),
        ])
    }

    /// [`FindingsStore::to_value`] as compact JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }
}

/// FNV-1a hash of a firmware's name — the store's firmware identity.
/// (Campaign determinism is seeded per-spec, so the name is the identity;
/// hashing keeps the store key fixed-width and the JSON compact.)
pub fn firmware_identity(name: &str) -> u64 {
    embsan_emu::hash::fnv1a(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(signature: u64) -> StoreFinding {
        StoreFinding { signature, class: 1, pc: 0x1000 }
    }

    #[test]
    fn dedupes_across_jobs_of_the_same_firmware() {
        let mut store = FindingsStore::new();
        let fw = firmware_identity("TP-Link WDR-7660");
        assert!(store.record(fw, 0, finding(42)));
        assert!(!store.record(fw, 1, finding(42)), "same crash from another job");
        assert!(!store.record(fw, 1, finding(42)), "same crash twice from one job");
        assert!(store.record(fw, 1, finding(43)));
        assert_eq!(store.uniques(), 2);
        assert_eq!(store.attributions(), 3);
        // A different firmware hitting the same signature is a new entry.
        assert!(store.record(firmware_identity("other"), 2, finding(42)));
        assert_eq!(store.uniques(), 3);
    }

    #[test]
    fn quarantine_withdraws_a_jobs_evidence() {
        let mut store = FindingsStore::new();
        let fw = firmware_identity("fw");
        store.record(fw, 0, finding(1));
        store.record(fw, 1, finding(1));
        store.record(fw, 1, finding(2));
        store.remove_job(1);
        assert_eq!(store.uniques(), 1, "sole-reporter entry disappears");
        assert_eq!(store.attributions(), 1);
        let rendered = store.to_json();
        assert!(rendered.contains("\"reporters\":[0]"), "{rendered}");
        assert!(!rendered.contains("\"signature\":2,"), "{rendered}");
    }

    #[test]
    fn json_is_order_independent() {
        let fw = firmware_identity("fw");
        let mut a = FindingsStore::new();
        a.record(fw, 0, finding(5));
        a.record(fw, 1, finding(3));
        let mut b = FindingsStore::new();
        b.record(fw, 1, finding(3));
        b.record(fw, 0, finding(5));
        assert_eq!(a.to_json(), b.to_json());
    }
}
