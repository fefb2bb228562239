//! The host-side KASAN engine.
//!
//! Consumes allocator events (from hypercalls in EMBSAN-C or dynamic
//! function interception in EMBSAN-D) and access checks, maintaining object
//! metadata, a quarantine of freed chunks, and the unified shadow.

use std::collections::{HashMap, VecDeque};

use crate::report::{BugClass, ChunkInfo, Report};
use crate::runtime::shadow::{code, ShadowMemory, GRANULE};

/// Configuration of the KASAN engine, from the merged sanitizer spec.
#[derive(Debug, Clone, Copy)]
pub struct KasanConfig {
    /// Quarantine capacity in bytes (freed chunks tracked for UAF context).
    pub quarantine_bytes: u64,
    /// Whether the heap region is pre-poisoned at init (possible when the
    /// prober could establish heap bounds; binary-only firmware relies on
    /// per-allocation tail redzones instead).
    pub heap_prepoison: bool,
}

impl Default for KasanConfig {
    fn default() -> KasanConfig {
        KasanConfig { quarantine_bytes: 256 * 1024, heap_prepoison: true }
    }
}

#[derive(Debug, Clone, Copy)]
struct LiveChunk {
    size: u32,
    alloc_pc: u32,
}

#[derive(Debug, Clone, Copy)]
struct FreedChunk {
    size: u32,
    alloc_pc: u32,
    free_pc: u32,
}

/// The KASAN engine state.
#[derive(Debug, Clone)]
pub struct KasanEngine {
    config: KasanConfig,
    live: HashMap<u32, LiveChunk>,
    freed: HashMap<u32, FreedChunk>,
    quarantine: VecDeque<u32>,
    quarantine_used: u64,
    globals: Vec<(u32, u32)>,
    /// Chunks evicted under byte pressure since the last drain; the runtime
    /// polls this after every free to surface quarantine exhaustion as a
    /// degradation event instead of a silent fidelity loss.
    pressure_evictions: u64,
}

impl KasanEngine {
    /// Creates an engine.
    pub fn new(config: KasanConfig) -> KasanEngine {
        KasanEngine {
            config,
            live: HashMap::new(),
            freed: HashMap::new(),
            quarantine: VecDeque::new(),
            quarantine_used: 0,
            globals: Vec::new(),
            pressure_evictions: 0,
        }
    }

    /// Allocation-reusing restore to `baseline`'s state (fuzzer reset):
    /// `clone_from` on the maps reuses their table storage instead of
    /// reallocating every iteration.
    pub(crate) fn restore_from(&mut self, baseline: &KasanEngine) {
        self.config = baseline.config;
        self.live.clone_from(&baseline.live);
        self.freed.clone_from(&baseline.freed);
        self.quarantine.clone_from(&baseline.quarantine);
        self.quarantine_used = baseline.quarantine_used;
        self.globals.clone_from(&baseline.globals);
        self.pressure_evictions = baseline.pressure_evictions;
    }

    /// Drains the count of chunks evicted under quarantine byte pressure
    /// since the last call.
    pub fn take_pressure_evictions(&mut self) -> u64 {
        std::mem::take(&mut self.pressure_evictions)
    }

    /// Number of currently live tracked chunks.
    pub fn live_chunks(&self) -> usize {
        self.live.len()
    }

    /// Number of quarantined (freed) chunks.
    pub fn quarantined_chunks(&self) -> usize {
        self.quarantine.len()
    }

    /// Handles an allocation event.
    pub fn on_alloc(&mut self, shadow: &mut ShadowMemory, addr: u32, size: u32, pc: u32) {
        if addr == 0 || size == 0 {
            return; // failed allocation
        }
        // Reuse of a quarantined chunk: the guest allocator recycled it; the
        // observational quarantine must let go.
        if self.freed.remove(&addr).is_some() {
            if let Some(pos) = self.quarantine.iter().position(|&a| a == addr) {
                self.quarantine.remove(pos);
            }
        }
        self.live.insert(addr, LiveChunk { size, alloc_pc: pc });
        shadow.unpoison_object(addr, size);
        // Tail redzone: poison from the end of the object's last granule
        // through the following inter-chunk header. With heap pre-poisoning
        // this is already poisoned; without (binary-only firmware) it is the
        // only OOB barrier.
        let tail_start = addr.saturating_add(size).div_ceil(GRANULE) * GRANULE;
        shadow.poison(tail_start, tail_start + GRANULE, code::HEAP_REDZONE);
    }

    /// Handles a free event. Returns a report for double/invalid frees.
    pub fn on_free(
        &mut self,
        shadow: &mut ShadowMemory,
        addr: u32,
        pc: u32,
        cpu: usize,
    ) -> Option<Report> {
        if addr == 0 {
            return None; // free(NULL)
        }
        if let Some(freed) = self.freed.get(&addr) {
            return Some(Report {
                class: BugClass::DoubleFree,
                addr,
                size: 0,
                is_write: false,
                pc,
                cpu,
                chunk: Some(ChunkInfo {
                    addr,
                    size: freed.size,
                    alloc_pc: freed.alloc_pc,
                    free_pc: Some(freed.free_pc),
                }),
                other: None,
                site: 0,
            });
        }
        let Some(live) = self.live.remove(&addr) else {
            return Some(Report {
                class: BugClass::InvalidFree,
                addr,
                size: 0,
                is_write: false,
                pc,
                cpu,
                chunk: None,
                other: None,
                site: 0,
            });
        };
        shadow.poison(addr, addr + live.size.max(1), code::FREED);
        self.freed
            .insert(addr, FreedChunk { size: live.size, alloc_pc: live.alloc_pc, free_pc: pc });
        self.quarantine.push_back(addr);
        self.quarantine_used += u64::from(live.size);
        while self.quarantine_used > self.config.quarantine_bytes {
            let Some(evicted) = self.quarantine.pop_front() else { break };
            if let Some(chunk) = self.freed.remove(&evicted) {
                self.quarantine_used -= u64::from(chunk.size);
                self.pressure_evictions += 1;
                // Evicted chunks lose their FREED poison only if the guest
                // allocator has not recycled them; recycling already
                // unpoisoned via on_alloc. Leave the shadow as-is: the
                // region is unallocated heap either way.
                shadow.poison(evicted, evicted + chunk.size.max(1), code::HEAP);
            }
        }
        None
    }

    /// Registers a global object with redzones.
    pub fn on_global(&mut self, shadow: &mut ShadowMemory, addr: u32, size: u32, redzone: u32) {
        shadow.poison(addr.saturating_sub(redzone), addr, code::GLOBAL_REDZONE);
        let end_aligned = addr.saturating_add(size).div_ceil(GRANULE) * GRANULE;
        shadow.poison(end_aligned, end_aligned + redzone, code::GLOBAL_REDZONE);
        if !size.is_multiple_of(GRANULE) {
            // Partial-tail watermark (unpoison_object semantics).
            shadow.unpoison_object(addr, size);
        }
        self.globals.push((addr, size));
    }

    /// Classifies a shadow violation into a report.
    pub fn classify(
        &self,
        bad_addr: u32,
        shadow_code: u8,
        size: u8,
        is_write: bool,
        pc: u32,
        cpu: usize,
    ) -> Report {
        let (class, chunk) = match shadow_code {
            code::FREED => {
                let chunk = self.freed_chunk_containing(bad_addr);
                (BugClass::Uaf, chunk)
            }
            code::GLOBAL_REDZONE => (BugClass::GlobalOob, None),
            code::HEAP | code::HEAP_REDZONE => {
                (BugClass::HeapOob, self.live_chunk_before(bad_addr))
            }
            1..=7 => (BugClass::HeapOob, self.live_chunk_before(bad_addr)),
            _ => (BugClass::WildAccess, None),
        };
        Report { class, addr: bad_addr, size, is_write, pc, cpu, chunk, other: None, site: 0 }
    }

    fn freed_chunk_containing(&self, addr: u32) -> Option<ChunkInfo> {
        self.freed
            .iter()
            .filter(|(&base, chunk)| base <= addr && addr < base + chunk.size.max(1))
            .map(|(&base, chunk)| ChunkInfo {
                addr: base,
                size: chunk.size,
                alloc_pc: chunk.alloc_pc,
                free_pc: Some(chunk.free_pc),
            })
            .next()
    }

    fn live_chunk_before(&self, addr: u32) -> Option<ChunkInfo> {
        self.live
            .iter()
            .filter(|(&base, _)| base <= addr)
            .max_by_key(|(&base, _)| base)
            .filter(|(&base, chunk)| addr < base + chunk.size + 64)
            .map(|(&base, chunk)| ChunkInfo {
                addr: base,
                size: chunk.size,
                alloc_pc: chunk.alloc_pc,
                free_pc: None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KasanEngine, ShadowMemory) {
        let mut shadow = ShadowMemory::new(0x10_0000, 0x10000);
        // Model a pre-poisoned heap at 0x10_1000..0x10_3000.
        shadow.poison(0x10_1000, 0x10_3000, code::HEAP);
        (KasanEngine::new(KasanConfig::default()), shadow)
    }

    #[test]
    fn alloc_unpoisons_and_leaves_tail_redzone() {
        let (mut engine, mut shadow) = setup();
        engine.on_alloc(&mut shadow, 0x10_1008, 24, 0x100);
        assert!(shadow.check(0x10_1008, 4).is_ok());
        assert!(shadow.check(0x10_1008 + 20, 4).is_ok());
        // One byte past the object is poisoned (in-granule slack or tail).
        assert!(shadow.check(0x10_1008 + 24, 1).is_err());
        assert_eq!(engine.live_chunks(), 1);
    }

    #[test]
    fn uaf_detected_after_free() {
        let (mut engine, mut shadow) = setup();
        engine.on_alloc(&mut shadow, 0x10_1008, 24, 0x100);
        assert!(engine.on_free(&mut shadow, 0x10_1008, 0x200, 0).is_none());
        let err = shadow.check(0x10_1008 + 4, 4).unwrap_err();
        assert_eq!(err.code, code::FREED);
        let report = engine.classify(err.bad_addr, err.code, 4, false, 0x300, 0);
        assert_eq!(report.class, BugClass::Uaf);
        let chunk = report.chunk.unwrap();
        assert_eq!(chunk.alloc_pc, 0x100);
        assert_eq!(chunk.free_pc, Some(0x200));
    }

    #[test]
    fn double_free_detected() {
        let (mut engine, mut shadow) = setup();
        engine.on_alloc(&mut shadow, 0x10_1008, 24, 0x100);
        assert!(engine.on_free(&mut shadow, 0x10_1008, 0x200, 0).is_none());
        let report = engine.on_free(&mut shadow, 0x10_1008, 0x210, 0).unwrap();
        assert_eq!(report.class, BugClass::DoubleFree);
    }

    #[test]
    fn invalid_free_detected() {
        let (mut engine, mut shadow) = setup();
        let report = engine.on_free(&mut shadow, 0x10_2000, 0x200, 0).unwrap();
        assert_eq!(report.class, BugClass::InvalidFree);
        // free(NULL) is fine.
        assert!(engine.on_free(&mut shadow, 0, 0x200, 0).is_none());
    }

    #[test]
    fn recycling_clears_quarantine() {
        let (mut engine, mut shadow) = setup();
        engine.on_alloc(&mut shadow, 0x10_1008, 24, 0x100);
        assert!(engine.on_free(&mut shadow, 0x10_1008, 0x200, 0).is_none());
        assert_eq!(engine.quarantined_chunks(), 1);
        engine.on_alloc(&mut shadow, 0x10_1008, 16, 0x300);
        assert_eq!(engine.quarantined_chunks(), 0);
        assert!(shadow.check(0x10_1008, 4).is_ok());
        // A fresh free is NOT a double free.
        assert!(engine.on_free(&mut shadow, 0x10_1008, 0x400, 0).is_none());
    }

    #[test]
    fn quarantine_evicts_by_bytes() {
        let mut shadow = ShadowMemory::new(0x10_0000, 0x10000);
        shadow.poison(0x10_1000, 0x10_8000, code::HEAP);
        let mut engine =
            KasanEngine::new(KasanConfig { quarantine_bytes: 100, heap_prepoison: true });
        for i in 0..4u32 {
            let addr = 0x10_1008 + i * 0x100;
            engine.on_alloc(&mut shadow, addr, 40, 0x100);
            engine.on_free(&mut shadow, addr, 0x200, 0);
        }
        // 4×40 = 160 bytes > 100: the oldest chunks were evicted.
        assert!(engine.quarantined_chunks() <= 3);
    }

    #[test]
    fn global_redzones_detect_oob() {
        let (mut engine, mut shadow) = setup();
        // A 40-byte global at 0x10_0100 with 32-byte redzones.
        engine.on_global(&mut shadow, 0x10_0100, 40, 32);
        assert!(shadow.check(0x10_0100, 4).is_ok());
        assert!(shadow.check(0x10_0100 + 36, 4).is_ok());
        let err = shadow.check(0x10_0100 + 44, 1).unwrap_err();
        let report = engine.classify(err.bad_addr, err.code, 1, true, 0x100, 0);
        assert_eq!(report.class, BugClass::GlobalOob);
        // Left redzone too.
        assert!(shadow.check(0x10_0100 - 4, 4).is_err());
    }

    #[test]
    fn heap_oob_classification_with_chunk_context() {
        let (mut engine, mut shadow) = setup();
        engine.on_alloc(&mut shadow, 0x10_1008, 24, 0x111);
        let err = shadow.check(0x10_1008 + 28, 1).unwrap_err();
        let report = engine.classify(err.bad_addr, err.code, 1, true, 0x400, 0);
        assert_eq!(report.class, BugClass::HeapOob);
        assert_eq!(report.chunk.unwrap().alloc_pc, 0x111);
    }
}
