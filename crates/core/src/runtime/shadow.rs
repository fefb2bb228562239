//! The unified shadow memory (§3.3).
//!
//! One host-side shadow byte per 8 guest bytes of RAM, shared by every
//! sanitizer engine ("the conservation of memory resources on the host
//! machine"). Encoding follows KASAN: `0` fully addressable, `1..=7`
//! first-N-bytes addressable, `≥ 0x80` poisoned with a class code.

use embsan_emu::cow::PagedBytes;

/// Shadow granule size in bytes.
pub const GRANULE: u32 = 8;

/// Poison class codes (the high-bit range).
pub mod code {
    /// Unallocated heap memory.
    pub const HEAP: u8 = 0xFF;
    /// Redzone following a heap object.
    pub const HEAP_REDZONE: u8 = 0xFA;
    /// Freed (quarantined) memory.
    pub const FREED: u8 = 0xFD;
    /// Redzone around a global object.
    pub const GLOBAL_REDZONE: u8 = 0xF9;
    /// Memory poisoned for any other reason.
    pub const INVALID: u8 = 0xFE;
}

/// Result of a failed shadow check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowViolation {
    /// First out-of-policy byte address.
    pub bad_addr: u32,
    /// The shadow code at that byte (`code::*`, or `1..=7` for a partial
    /// granule overrun).
    pub code: u8,
}

/// Host-side shadow of guest RAM.
#[derive(Debug, Clone)]
pub struct ShadowMemory {
    ram_base: u32,
    /// `bytes.len() * GRANULE`, precomputed: `covers` runs on the hot
    /// per-access check path and must not redo the division.
    span: u32,
    /// The shadow plane: a sparse page table (4 KiB of shadow covers
    /// 32 KiB of RAM) owning only the pages poison touched, and a
    /// copy-on-write fork of the `Arc`-shared baseline plane once frozen at
    /// the ready point — forked workers then pay only for the shadow pages
    /// their poison churn touches.
    bytes: PagedBytes,
}

impl ShadowMemory {
    /// Creates an all-addressable shadow for `ram_size` bytes of RAM at
    /// `ram_base`.
    pub fn new(ram_base: u32, ram_size: u32) -> ShadowMemory {
        let granules = (ram_size / GRANULE) as usize;
        ShadowMemory {
            ram_base,
            span: granules as u32 * GRANULE,
            bytes: PagedBytes::zeroed(granules),
        }
    }

    /// Freezes the current plane as an immutable shared base and re-forks
    /// this shadow from it. Called once at the ready point so baseline
    /// clones (and adopted cross-worker baselines) share one plane.
    pub(crate) fn freeze_plane(&mut self) {
        self.bytes.freeze();
    }

    /// Private overlay bytes this plane holds beyond its shared base.
    pub(crate) fn overlay_bytes(&self) -> usize {
        self.bytes.overlay_bytes()
    }

    /// Folds the plane into `hash` (for base-image content hashing).
    pub(crate) fn fold_plane_hash(&self, hash: u64) -> u64 {
        self.bytes.fold_hash(hash)
    }

    /// Total plane size in bytes (shared-base accounting).
    pub(crate) fn plane_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Pages the plane holds (shared-base accounting).
    pub(crate) fn resident_pages(&self) -> usize {
        self.bytes.resident_pages()
    }

    /// Whether `other` shadows the same region (restore-compat check).
    pub(crate) fn same_shape(&self, other: &ShadowMemory) -> bool {
        self.ram_base == other.ram_base && self.span == other.span
    }

    /// Restores this shadow to `baseline`'s contents: O(pages touched since
    /// the last restore) when both planes fork the same base and `baseline`
    /// holds no private page, a table clone otherwise.
    pub(crate) fn restore_from(&mut self, baseline: &ShadowMemory) {
        debug_assert!(self.same_shape(baseline));
        self.bytes.restore_from(&baseline.bytes);
    }

    /// Whether `addr` is covered by the shadow (i.e. inside RAM).
    #[inline]
    pub fn covers(&self, addr: u32) -> bool {
        // Single wrapping compare against the precomputed span: addresses
        // below `ram_base` wrap to huge values and fail the bound.
        addr.wrapping_sub(self.ram_base) < self.span
    }

    #[inline]
    fn index(&self, addr: u32) -> usize {
        debug_assert!(self.covers(addr));
        ((addr - self.ram_base) / GRANULE) as usize
    }

    /// Reads the shadow byte covering `addr`.
    #[inline]
    pub fn get(&self, addr: u32) -> u8 {
        self.bytes.get(self.index(addr))
    }

    /// Poisons `[start, end)` with `poison_code`. Partially covered edge
    /// granules are fully poisoned (conservative, like KASAN's
    /// `kasan_poison` which requires granule alignment — callers align).
    ///
    /// Out-of-coverage portions are clipped; the return value is the number
    /// of requested granules that could *not* be applied (0 when the range
    /// is fully covered), so callers can surface the degradation instead of
    /// silently losing poison.
    pub fn poison(&mut self, start: u32, end: u32, poison_code: u8) -> u32 {
        if end <= start {
            return 0;
        }
        let requested = end.saturating_sub(start).div_ceil(GRANULE);
        if !self.covers(start) {
            return requested;
        }
        let clipped_end = end.min(self.limit());
        let from = self.index(start);
        let to = self.index(clipped_end - 1);
        self.bytes.fill(from, to - from + 1, poison_code);
        end.saturating_sub(clipped_end).div_ceil(GRANULE)
    }

    /// Unpoisons an object `[addr, addr+size)`: full granules become
    /// addressable, a trailing partial granule gets the `size % 8`
    /// watermark.
    pub fn unpoison_object(&mut self, addr: u32, size: u32) {
        if size == 0 || !self.covers(addr) {
            return;
        }
        let full = (size / GRANULE) as usize;
        let from = self.index(addr);
        let end = (from + full).min(self.bytes.len());
        if end > from {
            self.bytes.fill(from, end - from, 0);
        }
        let tail = (size % GRANULE) as u8;
        if tail != 0 && from + full < self.bytes.len() {
            *self.bytes.byte_mut(from + full) = tail;
        }
    }

    /// One past the highest shadowed address.
    pub fn limit(&self) -> u32 {
        self.ram_base + self.bytes.len() as u32 * GRANULE
    }

    /// Single-branch fast path of [`ShadowMemory::check`]: `true` proves the
    /// access clean (fully inside RAM, every granule it touches marked
    /// all-addressable). `false` decides nothing — the caller must run
    /// [`ShadowMemory::check_slow`], which handles partial granules, poison
    /// classification, and out-of-RAM addresses.
    ///
    /// Restricted to accesses of at most one granule (the executor issues
    /// 1/2/4-byte accesses), which touch at most two shadow bytes — both are
    /// inspected, so a `true` here is exactly "the slow path would pass
    /// without consulting partial-granule watermarks".
    #[inline]
    pub fn check_fast(&self, addr: u32, size: u8) -> bool {
        let size = u32::from(size);
        let first = addr.wrapping_sub(self.ram_base);
        if size == 0 || size > GRANULE || self.span < size || first > self.span - size {
            return false;
        }
        let i0 = (first / GRANULE) as usize;
        let i1 = ((first + size - 1) / GRANULE) as usize;
        self.bytes.get(i0) == 0 && self.bytes.get(i1) == 0
    }

    /// Checks an access of `size` bytes at `addr`.
    ///
    /// Addresses outside RAM are not the shadow's business (MMIO, ROM) and
    /// always pass.
    ///
    /// # Errors
    ///
    /// Returns the first violating byte and its shadow code.
    #[inline]
    pub fn check(&self, addr: u32, size: u8) -> Result<(), ShadowViolation> {
        if self.check_fast(addr, size) {
            return Ok(());
        }
        self.check_slow(addr, size)
    }

    /// Byte-wise check: the out-of-line complement of
    /// [`ShadowMemory::check_fast`] (same contract as
    /// [`ShadowMemory::check`]).
    ///
    /// # Errors
    ///
    /// Returns the first violating byte and its shadow code.
    #[cold]
    pub fn check_slow(&self, addr: u32, size: u8) -> Result<(), ShadowViolation> {
        let end = addr.saturating_add(u32::from(size));
        let mut cursor = addr;
        while cursor < end {
            if !self.covers(cursor) {
                cursor += 1;
                continue;
            }
            let shadow = self.bytes.get(self.index(cursor));
            if shadow == 0 {
                // Whole granule addressable: skip to the next granule.
                cursor = (cursor / GRANULE + 1) * GRANULE;
                continue;
            }
            if shadow >= 0x80 {
                return Err(ShadowViolation { bad_addr: cursor, code: shadow });
            }
            // Partial granule: bytes `granule_start .. granule_start+shadow`
            // are addressable.
            let offset_in_granule = (cursor % GRANULE) as u8;
            if offset_in_granule >= shadow {
                return Err(ShadowViolation { bad_addr: cursor, code: shadow });
            }
            cursor += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow() -> ShadowMemory {
        ShadowMemory::new(0x10_0000, 0x1000)
    }

    #[test]
    fn fresh_shadow_is_addressable() {
        let s = shadow();
        assert!(s.check(0x10_0000, 4).is_ok());
        assert!(s.check(0x10_0FFC, 4).is_ok());
        // Outside RAM: not our business.
        assert!(s.check(0xF000_0000, 4).is_ok());
        assert!(s.check(0, 4).is_ok());
    }

    #[test]
    fn poison_and_detect() {
        let mut s = shadow();
        s.poison(0x10_0100, 0x10_0140, code::HEAP);
        assert_eq!(
            s.check(0x10_0100, 1),
            Err(ShadowViolation { bad_addr: 0x10_0100, code: code::HEAP })
        );
        assert!(s.check(0x10_00F8, 8).is_ok());
        // Access straddling into the poison is caught at the first bad byte.
        assert_eq!(s.check(0x10_00FE, 4).unwrap_err().bad_addr, 0x10_0100);
        assert!(s.check(0x10_0140, 4).is_ok());
    }

    #[test]
    fn unpoison_object_with_partial_tail() {
        let mut s = shadow();
        s.poison(0x10_0200, 0x10_0280, code::HEAP);
        s.unpoison_object(0x10_0200, 20); // 2 full granules + 4-byte tail
        assert!(s.check(0x10_0200, 4).is_ok());
        assert!(s.check(0x10_0210, 4).is_ok()); // bytes 16..20
                                                // Byte 20 is past the watermark (tail granule allows 4 bytes).
        let err = s.check(0x10_0214, 1).unwrap_err();
        assert_eq!(err.code, 4);
        // And byte 24 hits the fully poisoned next granule.
        assert_eq!(s.check(0x10_0218, 1).unwrap_err().code, code::HEAP);
    }

    #[test]
    fn partial_tail_read_across_watermark_fails() {
        let mut s = shadow();
        s.poison(0x10_0300, 0x10_0320, code::HEAP);
        s.unpoison_object(0x10_0300, 6);
        assert!(s.check(0x10_0300, 4).is_ok());
        assert!(s.check(0x10_0304, 2).is_ok());
        assert!(s.check(0x10_0304, 4).is_err()); // bytes 6..8 not addressable
    }

    #[test]
    fn granule_math_at_boundaries() {
        let mut s = shadow();
        // Poison the very last granule.
        s.poison(0x10_0FF8, 0x10_1000, code::INVALID);
        assert!(s.check(0x10_0FF0, 8).is_ok());
        assert!(s.check(0x10_0FF8, 1).is_err());
        // Unpoison it as a 3-byte object.
        s.unpoison_object(0x10_0FF8, 3);
        assert!(s.check(0x10_0FF8, 2).is_ok());
        assert!(s.check(0x10_0FFB, 1).is_err());
    }

    #[test]
    fn zero_size_and_out_of_range_are_noops() {
        let mut s = shadow();
        s.unpoison_object(0x10_0000, 0);
        s.poison(0x10_0010, 0x10_0010, code::HEAP); // empty range
        s.poison(0xFFFF_0000, 0xFFFF_0100, code::HEAP); // out of range
        assert!(s.check(0x10_0000, 4).is_ok());
    }
}
