//! The host-side UMSAN engine: uninitialized heap-read detection.
//!
//! This engine exists to validate the paper's §5 adaptability claim — a new
//! sanitizer functionality slots into EMBSAN by (1) shipping a reference
//! interface extraction (`specs/umsan.h`), (2) writing this runtime, and
//! (3) nothing else: the Distiller merges its interception points into the
//! common specification and the runtime dispatches to it alongside KASAN
//! and KCSAN.
//!
//! Semantics (simplified KMSAN): bytes of a freshly allocated heap chunk
//! are *uninitialized*; stores initialize the bytes they touch; a load
//! overlapping any still-uninitialized byte of a live chunk reports. Shadow
//! is not propagated through register flow or copies — a read *is* the use.

use embsan_emu::cow::PagedBytes;

use crate::report::{BugClass, ChunkInfo, Report};

/// Per-byte initialization shadow over RAM, tracked only inside live heap
/// chunks (everything else reads as initialized).
#[derive(Debug, Clone)]
pub struct UmsanEngine {
    ram_base: u32,
    /// One bit per RAM byte: 1 = known-uninitialized. A sparse page table
    /// (one 4 KiB page covers 32 KiB of RAM), a copy-on-write fork of the
    /// shared baseline plane once frozen.
    uninit: PagedBytes,
    /// Live chunk table (addr → size, alloc pc) for report context.
    chunks: std::collections::HashMap<u32, (u32, u32)>,
}

impl UmsanEngine {
    /// Creates an engine covering `ram_size` bytes at `ram_base`.
    pub fn new(ram_base: u32, ram_size: u32) -> UmsanEngine {
        let bytes = (ram_size as usize).div_ceil(8);
        UmsanEngine {
            ram_base,
            uninit: PagedBytes::zeroed(bytes),
            chunks: std::collections::HashMap::new(),
        }
    }

    /// Freezes the uninit plane as an immutable shared base and re-forks
    /// from it (called once at the ready point).
    pub(crate) fn freeze_plane(&mut self) {
        self.uninit.freeze();
    }

    /// Private overlay bytes this plane holds beyond its shared base.
    pub(crate) fn overlay_bytes(&self) -> usize {
        self.uninit.overlay_bytes()
    }

    /// Folds the plane into `hash` (for base-image content hashing).
    pub(crate) fn fold_plane_hash(&self, hash: u64) -> u64 {
        self.uninit.fold_hash(hash)
    }

    /// Total plane size in bytes (shared-base accounting).
    pub(crate) fn plane_bytes(&self) -> usize {
        self.uninit.len()
    }

    /// Pages the plane holds (shared-base accounting).
    pub(crate) fn resident_pages(&self) -> usize {
        self.uninit.resident_pages()
    }

    /// Restores this engine to `baseline`'s state; the uninit plane as
    /// [`PagedBytes::restore_from`] does, O(pages touched) against the
    /// same frozen base.
    pub(crate) fn restore_from(&mut self, baseline: &UmsanEngine) {
        debug_assert_eq!(self.ram_base, baseline.ram_base);
        debug_assert_eq!(self.uninit.len(), baseline.uninit.len());
        self.uninit.restore_from(&baseline.uninit);
        self.chunks.clone_from(&baseline.chunks);
    }

    /// Whether `other` covers the same RAM region (restore-compat check).
    pub(crate) fn same_shape(&self, other: &UmsanEngine) -> bool {
        self.ram_base == other.ram_base && self.uninit.len() == other.uninit.len()
    }

    fn in_range(&self, addr: u32) -> bool {
        addr >= self.ram_base && ((addr - self.ram_base) as usize) < self.uninit.len() * 8
    }

    fn set_uninit(&mut self, addr: u32, value: bool) {
        if !self.in_range(addr) {
            return;
        }
        let offset = (addr - self.ram_base) as usize;
        let byte = self.uninit.byte_mut(offset / 8);
        if value {
            *byte |= 1 << (offset % 8);
        } else {
            *byte &= !(1 << (offset % 8));
        }
    }

    fn is_uninit(&self, addr: u32) -> bool {
        if !self.in_range(addr) {
            return false;
        }
        let offset = (addr - self.ram_base) as usize;
        self.uninit.get(offset / 8) & (1 << (offset % 8)) != 0
    }

    /// A fresh allocation: all bytes become uninitialized.
    pub fn on_alloc(&mut self, addr: u32, size: u32, pc: u32) {
        if addr == 0 || size == 0 {
            return;
        }
        for a in addr..addr.saturating_add(size) {
            self.set_uninit(a, true);
        }
        self.chunks.insert(addr, (size, pc));
    }

    /// A free: stop tracking (KASAN owns use-after-free reporting).
    pub fn on_free(&mut self, addr: u32) {
        if let Some((size, _)) = self.chunks.remove(&addr) {
            for a in addr..addr.saturating_add(size) {
                self.set_uninit(a, false);
            }
        }
    }

    /// A store initializes the bytes it writes.
    pub fn on_store(&mut self, addr: u32, size: u8) {
        self.mark_initialized(addr, u32::from(size));
    }

    /// Marks an arbitrary range initialized (boot-state replay).
    pub fn mark_initialized(&mut self, addr: u32, size: u32) {
        for a in addr..addr.saturating_add(size) {
            self.set_uninit(a, false);
        }
    }

    /// A load of uninitialized bytes reports.
    pub fn on_load(&mut self, addr: u32, size: u8, pc: u32, cpu: usize) -> Option<Report> {
        let bad = (addr..addr.saturating_add(u32::from(size))).find(|&a| self.is_uninit(a))?;
        // Report once per byte range: further reads of the same bytes stay
        // noisy otherwise (real MSAN marks the value initialized after the
        // first report as well).
        self.on_store(addr, size);
        let chunk =
            self.chunks.iter().find(|(&base, &(size, _))| base <= bad && bad < base + size).map(
                |(&base, &(size, alloc_pc))| ChunkInfo {
                    addr: base,
                    size,
                    alloc_pc,
                    free_pc: None,
                },
            );
        Some(Report {
            class: BugClass::UninitRead,
            addr: bad,
            size,
            is_write: false,
            pc,
            cpu,
            chunk,
            other: None,
            site: 0,
        })
    }

    /// Number of live tracked chunks.
    pub fn tracked_chunks(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> UmsanEngine {
        UmsanEngine::new(0x10_0000, 0x1_0000)
    }

    #[test]
    fn fresh_allocation_reads_report() {
        let mut e = engine();
        e.on_alloc(0x10_1000, 24, 0x42);
        let report = e.on_load(0x10_1004, 4, 0x100, 0).unwrap();
        assert_eq!(report.class, BugClass::UninitRead);
        assert_eq!(report.addr, 0x10_1004);
        assert_eq!(report.chunk.unwrap().alloc_pc, 0x42);
    }

    #[test]
    fn stores_initialize_their_bytes() {
        let mut e = engine();
        e.on_alloc(0x10_1000, 16, 0x42);
        e.on_store(0x10_1000, 4);
        assert!(e.on_load(0x10_1000, 4, 0x100, 0).is_none());
        // Byte 4 is still uninit; a straddling read reports at it.
        let report = e.on_load(0x10_1002, 4, 0x100, 0).unwrap();
        assert_eq!(report.addr, 0x10_1004);
    }

    #[test]
    fn untracked_memory_is_initialized() {
        let mut e = engine();
        assert!(e.on_load(0x10_2000, 4, 0x100, 0).is_none());
        assert!(e.on_load(0xF000_0000, 4, 0x100, 0).is_none()); // outside RAM
    }

    #[test]
    fn free_clears_tracking() {
        let mut e = engine();
        e.on_alloc(0x10_1000, 16, 0x42);
        e.on_free(0x10_1000);
        assert_eq!(e.tracked_chunks(), 0);
        assert!(e.on_load(0x10_1000, 4, 0x100, 0).is_none());
    }

    #[test]
    fn reports_once_per_bytes() {
        let mut e = engine();
        e.on_alloc(0x10_1000, 8, 0x42);
        assert!(e.on_load(0x10_1000, 4, 0x100, 0).is_some());
        assert!(e.on_load(0x10_1000, 4, 0x104, 0).is_none(), "same bytes report once");
        assert!(e.on_load(0x10_1004, 4, 0x108, 0).is_some(), "other bytes still report");
    }

    #[test]
    fn realloc_reuses_cleanly() {
        let mut e = engine();
        e.on_alloc(0x10_1000, 16, 0x1);
        e.on_store(0x10_1000, 16); // hmm, initialize only 16 bytes
        e.on_free(0x10_1000);
        e.on_alloc(0x10_1000, 16, 0x2);
        // Fresh allocation is uninitialized again even though the previous
        // incarnation was fully written.
        assert!(e.on_load(0x10_1000, 1, 0x100, 0).is_some());
    }
}
