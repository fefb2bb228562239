//! The host-side KCSAN engine.
//!
//! Watchpoint-based data-race detection, decoupled from the guest: every
//! probed access is compared against the active watchpoints; a sampled
//! subset of accesses installs a watchpoint and *stalls its vCPU* (via
//! [`HookAction::Stall`](embsan_emu::hook::HookAction)) so other vCPUs get a
//! window to collide. On stall expiry the watched value is re-read —
//! a change with no observed collision is still a race (some party the
//! probes didn't attribute), reported with an unknown second party.

use crate::report::{BugClass, RaceOther, Report};

/// Configuration of the KCSAN engine, from the merged sanitizer spec.
#[derive(Debug, Clone, Copy)]
pub struct KcsanConfig {
    /// Maximum simultaneous watchpoints.
    pub slots: usize,
    /// Stall window in retired instructions.
    pub window: u64,
    /// One in `sample` eligible accesses installs a watchpoint.
    pub sample: u64,
}

impl Default for KcsanConfig {
    fn default() -> KcsanConfig {
        KcsanConfig { slots: 8, window: 600, sample: 61 }
    }
}

/// An installed watchpoint.
#[derive(Debug, Clone, Copy)]
struct Watchpoint {
    addr: u32,
    size: u8,
    is_write: bool,
    cpu: usize,
    pc: u32,
    value_before: u32,
}

/// Outcome of feeding an access to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KcsanOutcome {
    /// Nothing to do.
    Pass,
    /// This access should stall its vCPU for the window; `token` must be
    /// returned to [`KcsanEngine::on_stall_expired`].
    Watch {
        /// Opaque watchpoint token.
        token: u64,
        /// Stall length in instructions.
        window: u64,
    },
    /// A race was detected between this access and an active watchpoint.
    Race(Report),
}

/// The KCSAN engine state.
#[derive(Debug, Clone)]
pub struct KcsanEngine {
    config: KcsanConfig,
    slots: Vec<Option<Watchpoint>>,
    counter: u64,
    next_token: u64,
    /// Priority addresses (static race candidates): accesses overlapping
    /// one bypass the sampling interval and install a watchpoint as soon as
    /// a slot is free.
    priority: Vec<u32>,
}

impl KcsanEngine {
    /// Creates an engine.
    pub fn new(config: KcsanConfig) -> KcsanEngine {
        KcsanEngine {
            slots: vec![None; config.slots],
            config,
            counter: 0,
            next_token: 0,
            priority: Vec::new(),
        }
    }

    /// Allocation-reusing restore to `baseline`'s state (fuzzer reset).
    pub(crate) fn restore_from(&mut self, baseline: &KcsanEngine) {
        self.config = baseline.config;
        self.slots.clone_from(&baseline.slots);
        self.counter = baseline.counter;
        self.next_token = baseline.next_token;
        self.priority.clone_from(&baseline.priority);
    }

    /// Number of active watchpoints.
    pub fn active_watchpoints(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Installs the watchpoint-priority address list (word-granular), as
    /// produced by the `embsan-analysis` lockset pass. Accesses touching a
    /// priority word skip the `1/sample` gate, so statically suspected
    /// races get stall windows orders of magnitude sooner.
    pub fn set_priorities(&mut self, addrs: impl IntoIterator<Item = u32>) {
        self.priority = addrs.into_iter().collect();
        self.priority.sort_unstable();
        self.priority.dedup();
    }

    /// The installed priority addresses.
    pub fn priorities(&self) -> &[u32] {
        &self.priority
    }

    fn is_priority(&self, addr: u32, size: u8) -> bool {
        self.priority.iter().any(|&p| Self::overlap(addr, size, p, 4))
    }

    fn overlap(a_addr: u32, a_size: u8, b_addr: u32, b_size: u8) -> bool {
        let a_end = u64::from(a_addr) + u64::from(a_size);
        let b_end = u64::from(b_addr) + u64::from(b_size);
        u64::from(a_addr) < b_end && u64::from(b_addr) < a_end
    }

    /// Feeds a (non-atomic) access. `value_now` is the current memory value
    /// at `addr` (used for the value-change fallback).
    #[allow(clippy::too_many_arguments)]
    pub fn on_access(
        &mut self,
        addr: u32,
        size: u8,
        is_write: bool,
        cpu: usize,
        pc: u32,
        value_now: u32,
    ) -> KcsanOutcome {
        // 1. Collision with an active watchpoint from another CPU?
        for slot in self.slots.iter().flatten() {
            if slot.cpu != cpu
                && Self::overlap(addr, size, slot.addr, slot.size)
                && (slot.is_write || is_write)
            {
                return KcsanOutcome::Race(Report {
                    class: BugClass::Race,
                    addr,
                    size,
                    is_write,
                    pc,
                    cpu,
                    chunk: None,
                    other: Some(RaceOther { pc: slot.pc, cpu: slot.cpu, is_write: slot.is_write }),
                    site: 0,
                });
            }
        }
        // 2. Sampling: install a watchpoint for one in `sample` accesses.
        // Statically prioritized addresses bypass the sampling gate.
        self.counter += 1;
        if !self.is_priority(addr, size) && !self.counter.is_multiple_of(self.config.sample) {
            return KcsanOutcome::Pass;
        }
        let Some(free) = self.slots.iter().position(|s| s.is_none()) else {
            return KcsanOutcome::Pass;
        };
        self.slots[free] =
            Some(Watchpoint { addr, size, is_write, cpu, pc, value_before: value_now });
        let token = self.next_token << 8 | free as u64;
        self.next_token += 1;
        KcsanOutcome::Watch { token, window: self.config.window }
    }

    /// The stall for `token` expired; `value_now` is the re-read memory
    /// value. Returns a race report if the value changed under the
    /// watchpoint without an attributed collision.
    pub fn on_stall_expired(&mut self, token: u64, value_now: u32) -> Option<Report> {
        let slot_index = (token & 0xFF) as usize;
        let watchpoint = self.slots.get_mut(slot_index)?.take()?;
        if value_now != watchpoint.value_before {
            return Some(Report {
                class: BugClass::Race,
                addr: watchpoint.addr,
                size: watchpoint.size,
                is_write: watchpoint.is_write,
                pc: watchpoint.pc,
                cpu: watchpoint.cpu,
                chunk: None,
                other: None, // unattributed second party
                site: 0,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_sampling_every_access() -> KcsanEngine {
        KcsanEngine::new(KcsanConfig { slots: 4, window: 100, sample: 1 })
    }

    #[test]
    fn write_write_race_detected() {
        let mut engine = engine_sampling_every_access();
        let outcome = engine.on_access(0x1000, 4, true, 0, 0x100, 7);
        assert!(matches!(outcome, KcsanOutcome::Watch { .. }));
        let outcome = engine.on_access(0x1000, 4, true, 1, 0x200, 7);
        let KcsanOutcome::Race(report) = outcome else {
            panic!("expected race, got {outcome:?}");
        };
        assert_eq!(report.class, BugClass::Race);
        assert_eq!(report.cpu, 1);
        let other = report.other.unwrap();
        assert_eq!(other.cpu, 0);
        assert!(other.is_write);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut engine = engine_sampling_every_access();
        engine.on_access(0x1000, 4, false, 0, 0x100, 7);
        let outcome = engine.on_access(0x1000, 4, false, 1, 0x200, 7);
        assert!(!matches!(outcome, KcsanOutcome::Race(_)));
    }

    #[test]
    fn same_cpu_never_races_with_itself() {
        let mut engine = engine_sampling_every_access();
        engine.on_access(0x1000, 4, true, 0, 0x100, 7);
        let outcome = engine.on_access(0x1000, 4, true, 0, 0x104, 7);
        assert!(!matches!(outcome, KcsanOutcome::Race(_)));
    }

    #[test]
    fn overlap_is_byte_precise() {
        let mut engine = engine_sampling_every_access();
        engine.on_access(0x1000, 4, true, 0, 0x100, 7);
        // Adjacent but non-overlapping: no race.
        let outcome = engine.on_access(0x1004, 4, true, 1, 0x200, 7);
        assert!(!matches!(outcome, KcsanOutcome::Race(_)));
        // Partial overlap (2 bytes at 0x1002..0x1004): race.
        let outcome = engine.on_access(0x1002, 2, true, 1, 0x204, 7);
        assert!(matches!(outcome, KcsanOutcome::Race(_)));
    }

    #[test]
    fn value_change_fallback_reports_unattributed_race() {
        let mut engine = engine_sampling_every_access();
        let KcsanOutcome::Watch { token, .. } = engine.on_access(0x1000, 4, false, 0, 0x100, 7)
        else {
            panic!("expected watch");
        };
        let report = engine.on_stall_expired(token, 9).unwrap();
        assert_eq!(report.class, BugClass::Race);
        assert!(report.other.is_none());
        // Unchanged value: no report, slot freed.
        let KcsanOutcome::Watch { token, .. } = engine.on_access(0x2000, 4, false, 0, 0x100, 5)
        else {
            panic!("expected watch");
        };
        assert!(engine.on_stall_expired(token, 5).is_none());
        assert_eq!(engine.active_watchpoints(), 0);
    }

    #[test]
    fn sampling_interval_is_respected() {
        let mut engine = KcsanEngine::new(KcsanConfig { slots: 4, window: 10, sample: 10 });
        let mut watches = 0;
        for i in 0..100u32 {
            match engine.on_access(0x1000 + i * 8, 4, true, 0, 0x100, 0) {
                KcsanOutcome::Watch { token, .. } => {
                    watches += 1;
                    engine.on_stall_expired(token, 0);
                }
                KcsanOutcome::Pass => {}
                KcsanOutcome::Race(_) => panic!("no races expected"),
            }
        }
        assert_eq!(watches, 10);
    }

    #[test]
    fn priority_addresses_bypass_sampling() {
        // Sampling interval so sparse that nothing would be watched.
        let mut engine = KcsanEngine::new(KcsanConfig { slots: 4, window: 100, sample: 1 << 20 });
        engine.set_priorities([0x3000]);
        // Non-priority access: passes (counter far from the interval).
        assert_eq!(engine.on_access(0x1000, 4, true, 0, 0x100, 0), KcsanOutcome::Pass);
        // Priority access: watched immediately despite the interval,
        // including partial overlaps of the priority word.
        assert!(matches!(
            engine.on_access(0x3002, 2, true, 0, 0x104, 0),
            KcsanOutcome::Watch { .. }
        ));
        // A second CPU hitting the watched word races as usual.
        assert!(matches!(engine.on_access(0x3000, 4, true, 1, 0x200, 0), KcsanOutcome::Race(_)));
    }

    #[test]
    fn slots_are_bounded() {
        let mut engine = KcsanEngine::new(KcsanConfig { slots: 2, window: 10, sample: 1 });
        let mut tokens = Vec::new();
        for i in 0..5u32 {
            if let KcsanOutcome::Watch { token, .. } =
                engine.on_access(0x1000 + i * 16, 4, true, 0, 0x100, 0)
            {
                tokens.push(token);
            }
        }
        assert_eq!(tokens.len(), 2);
        assert_eq!(engine.active_watchpoints(), 2);
    }
}
