//! Graceful degradation: typed events and health counters.
//!
//! Long campaigns inevitably push the sanitizer runtime past its resource
//! envelope (quarantine pressure) or run it against probe specs that have
//! drifted from the firmware actually booted (an init routine poisoning
//! regions outside RAM, an allocator hook pointing at a non-text address).
//! Production sanitizers degrade in these situations rather than stopping:
//! KASAN evicts its quarantine, out-of-range poisons are clipped. What was
//! previously *silent* here becomes a typed [`Degradation`] event plus a
//! monotonic [`HealthCounters`] tally, so the campaign supervisor can report
//! how much fidelity a run lost instead of presenting degraded results as
//! pristine ones.

/// One graceful-degradation event observed by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// The KASAN quarantine exceeded its byte budget and evicted its oldest
    /// freed chunks: use-after-free detection loses history for them.
    QuarantineEvicted {
        /// Number of chunks evicted in this pressure episode.
        chunks: u64,
    },
    /// A poison/unpoison request fell (partly) outside shadow coverage and
    /// was clipped: the init routine or a register-global event referenced
    /// memory the platform spec says does not exist.
    ShadowClipped {
        /// Requested range start.
        start: u32,
        /// Requested range end (exclusive).
        end: u32,
        /// Shadow granules that could not be applied.
        granules: u32,
    },
    /// A probe-spec element references an address outside the firmware
    /// (spec drift): the hook can never fire, so its events are lost.
    SpecDrift {
        /// What drifted (e.g. the hooked function's role).
        what: String,
        /// The out-of-range address.
        addr: u32,
    },
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::QuarantineEvicted { chunks } => {
                write!(f, "quarantine pressure: {chunks} freed chunk(s) evicted early")
            }
            Degradation::ShadowClipped { start, end, granules } => write!(
                f,
                "shadow poison {start:#010x}..{end:#010x} clipped ({granules} granule(s) \
                 outside RAM)"
            ),
            Degradation::SpecDrift { what, addr } => {
                write!(f, "probe-spec drift: {what} references {addr:#010x} outside the firmware")
            }
        }
    }
}

/// Monotonic counters summarizing degradation pressure. Unlike the bounded
/// event list, counters never saturate and are never reset by fuzzer
/// snapshot restores, so they describe the whole campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Freed chunks evicted from the KASAN quarantine under byte pressure.
    pub quarantine_evictions: u64,
    /// Shadow poison granules clipped at the RAM boundary.
    pub shadow_clips: u64,
    /// Probe-spec elements found to reference out-of-firmware addresses.
    pub spec_drift: u64,
}

impl HealthCounters {
    /// Total degradation events across all categories.
    pub fn total(&self) -> u64 {
        self.quarantine_evictions + self.shadow_clips + self.spec_drift
    }

    /// Whether the run degraded at all.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Copies every counter into `registry` under the `shadow` subsystem,
    /// all in `class`.
    pub fn record_into(
        &self,
        registry: &mut embsan_obs::MetricsRegistry,
        class: embsan_obs::MetricClass,
    ) {
        registry.counter("shadow", "quarantine_evictions", class, self.quarantine_evictions);
        registry.counter("shadow", "shadow_clips", class, self.shadow_clips);
        registry.counter("shadow", "spec_drift", class, self.spec_drift);
    }
}

impl std::fmt::Display for HealthCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "quarantine evictions: {}, shadow clips: {}, spec drift: {}",
            self.quarantine_evictions, self.shadow_clips, self.spec_drift
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let text =
            Degradation::ShadowClipped { start: 0x100, end: 0x200, granules: 32 }.to_string();
        assert!(text.contains("0x00000100"));
        assert!(text.contains("32"));
        let text = Degradation::SpecDrift { what: "alloc hook".into(), addr: 0xDEAD }.to_string();
        assert!(text.contains("alloc hook"));
        let counters = HealthCounters { quarantine_evictions: 2, ..Default::default() };
        assert!(!counters.is_clean());
        assert_eq!(counters.total(), 2);
        assert!(counters.to_string().contains("quarantine evictions: 2"));
    }
}
