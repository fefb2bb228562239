//! Copy-on-write paged byte storage for snapshot forking.
//!
//! [`PagedBytes`] is the storage primitive behind shared base images:
//! a byte buffer that is either a plain owned vector (`Flat`, the boot
//! path) or a fork of an immutable `Arc`-shared base plus a sparse
//! per-page overlay (`Cow`). Reads fall through overlay → base; the
//! first write to a page allocates an overlay copy of that page. A
//! forked worker therefore holds O(dirty pages) of private memory
//! instead of a full O(RAM) copy, and restoring to the base is just
//! dropping the overlay pages the dirty bitmap names.
//!
//! The bus uses it for guest RAM (4 KiB pages); the sanitizer runtime
//! reuses it for the shadow and uninit-bit planes. The hot accessors
//! rely on the same invariant the dirty bitmap does: size-aligned
//! accesses of ≤ a page never straddle a page boundary.

use std::sync::Arc;

/// A byte buffer that can fork from an immutable shared base, paying
/// only for pages it writes.
#[derive(Debug, Clone)]
pub struct PagedBytes {
    page_shift: u32,
    len: usize,
    /// Bytes held in private overlay pages (kept exact on alloc/free so
    /// per-worker memory telemetry is O(1) to read).
    resident: usize,
    store: Store,
}

#[derive(Debug, Clone)]
enum Store {
    /// A plain owned buffer (no base to fall through to).
    Flat(Vec<u8>),
    /// A fork: reads fall through `overlay` to `base`; writes allocate
    /// overlay pages on first touch.
    Cow { base: Arc<Vec<u8>>, overlay: Vec<Option<Box<[u8]>>> },
}

impl PagedBytes {
    /// A flat zero-filled buffer of `len` bytes with `1 << page_shift`
    /// byte pages.
    pub fn zeroed(len: usize, page_shift: u32) -> PagedBytes {
        PagedBytes { page_shift, len, resident: 0, store: Store::Flat(vec![0; len]) }
    }

    /// A flat buffer taking ownership of `bytes`.
    pub fn from_vec(bytes: Vec<u8>, page_shift: u32) -> PagedBytes {
        PagedBytes { page_shift, len: bytes.len(), resident: 0, store: Store::Flat(bytes) }
    }

    /// A fork of `base`: shares every page until written.
    pub fn forked(base: Arc<Vec<u8>>, page_shift: u32) -> PagedBytes {
        let len = base.len();
        let pages = len.div_ceil(1usize << page_shift);
        PagedBytes {
            page_shift,
            len,
            resident: 0,
            store: Store::Cow { base, overlay: vec![None; pages] },
        }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether this buffer is a copy-on-write fork of a shared base.
    pub fn is_forked(&self) -> bool {
        matches!(self.store, Store::Cow { .. })
    }

    /// Bytes of private overlay currently resident (0 when flat; the
    /// flat buffer itself is the caller's baseline, not an increment).
    pub fn overlay_bytes(&self) -> usize {
        self.resident
    }

    /// Number of allocated overlay pages.
    pub fn overlay_pages(&self) -> usize {
        match &self.store {
            Store::Flat(_) => 0,
            Store::Cow { overlay, .. } => overlay.iter().filter(|p| p.is_some()).count(),
        }
    }

    /// Whether this buffer forks from exactly `base` (pointer identity).
    pub fn shares_base(&self, base: &Arc<Vec<u8>>) -> bool {
        match &self.store {
            Store::Flat(_) => false,
            Store::Cow { base: own, .. } => Arc::ptr_eq(own, base),
        }
    }

    /// Byte size of one page.
    fn page_size(&self) -> usize {
        1usize << self.page_shift
    }

    /// Extent of `page` (the last page may be partial).
    fn page_span(&self, page: usize) -> (usize, usize) {
        let start = page << self.page_shift;
        (start, (start + self.page_size()).min(self.len))
    }

    /// Reads the byte at `index`.
    #[inline]
    pub fn get(&self, index: usize) -> u8 {
        match &self.store {
            Store::Flat(bytes) => bytes[index],
            Store::Cow { base, overlay } => match &overlay[index >> self.page_shift] {
                Some(page) => page[index & (self.page_size() - 1)],
                None => base[index],
            },
        }
    }

    /// Borrows `len` bytes at `offset`, which must not straddle a page
    /// boundary (guaranteed for size-aligned accesses of ≤ a page).
    #[inline]
    pub fn read_slice(&self, offset: usize, len: usize) -> &[u8] {
        debug_assert!(
            offset >> self.page_shift == (offset + len - 1) >> self.page_shift,
            "read_slice straddles a page"
        );
        match &self.store {
            Store::Flat(bytes) => &bytes[offset..offset + len],
            Store::Cow { base, overlay } => match &overlay[offset >> self.page_shift] {
                Some(page) => {
                    let start = offset & (self.page_size() - 1);
                    &page[start..start + len]
                }
                None => &base[offset..offset + len],
            },
        }
    }

    /// Mutably borrows `len` bytes at `offset` (same non-straddling
    /// contract as [`PagedBytes::read_slice`]), allocating the overlay
    /// page on first touch.
    #[inline]
    pub fn slice_mut(&mut self, offset: usize, len: usize) -> &mut [u8] {
        debug_assert!(
            offset >> self.page_shift == (offset + len - 1) >> self.page_shift,
            "slice_mut straddles a page"
        );
        if let Store::Cow { overlay, .. } = &self.store {
            let page = offset >> self.page_shift;
            if overlay[page].is_none() {
                self.ensure_overlay(page);
            }
        }
        let page_mask = self.page_size() - 1;
        match &mut self.store {
            Store::Flat(bytes) => &mut bytes[offset..offset + len],
            Store::Cow { overlay, .. } => {
                let page = offset >> self.page_shift;
                let start = offset & page_mask;
                let slot = overlay[page].as_mut().expect("overlay page ensured above");
                &mut slot[start..start + len]
            }
        }
    }

    /// Mutably borrows the byte at `index`.
    #[inline]
    pub fn byte_mut(&mut self, index: usize) -> &mut u8 {
        &mut self.slice_mut(index, 1)[0]
    }

    /// Allocates the overlay page for `page` (copying the base extent)
    /// if it is not resident yet.
    #[cold]
    fn ensure_overlay(&mut self, page: usize) {
        let (start, end) = self.page_span(page);
        let Store::Cow { base, overlay } = &mut self.store else {
            return;
        };
        if overlay[page].is_none() {
            overlay[page] = Some(base[start..end].to_vec().into_boxed_slice());
            self.resident += end - start;
        }
    }

    /// Splits `offset..offset + len` at page boundaries into
    /// `(at, done, chunk)` pieces: `chunk` bytes at `at`, after `done` bytes.
    fn pieces(&self, offset: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let page = self.page_size();
        let mut done = 0;
        std::iter::from_fn(move || {
            let at = offset + done;
            let chunk = (len - done).min(page - (at & (page - 1)));
            done += chunk;
            (chunk > 0).then_some((at, done - chunk, chunk))
        })
    }

    /// Copies `src` into the buffer at `offset`, straddle-safe.
    pub fn write_bytes(&mut self, offset: usize, src: &[u8]) {
        for (at, done, chunk) in self.pieces(offset, src.len()) {
            self.slice_mut(at, chunk).copy_from_slice(&src[done..done + chunk]);
        }
    }

    /// Fills `offset..offset + len` with `value`, straddle-safe.
    pub fn fill(&mut self, offset: usize, len: usize, value: u8) {
        for (at, _, chunk) in self.pieces(offset, len) {
            self.slice_mut(at, chunk).fill(value);
        }
    }

    /// Reads `dst.len()` bytes at `offset`, straddle-safe.
    pub fn read_bytes(&self, offset: usize, dst: &mut [u8]) {
        for (at, done, chunk) in self.pieces(offset, dst.len()) {
            dst[done..done + chunk].copy_from_slice(self.read_slice(at, chunk));
        }
    }

    /// Drops the overlay page at `page`, reverting its extent to the
    /// base. No-op when flat or not resident. O(1).
    #[inline]
    pub fn revert_page(&mut self, page: usize) {
        let (start, end) = self.page_span(page);
        if let Store::Cow { overlay, .. } = &mut self.store {
            if overlay[page].take().is_some() {
                self.resident -= end - start;
            }
        }
    }

    /// Makes this buffer's page at `page` byte-equal to `other`'s.
    ///
    /// When both fork the same base and `other` has no overlay there,
    /// this just drops the local overlay page (O(1), frees memory);
    /// otherwise it copies the page contents.
    pub fn restore_page_from(&mut self, other: &PagedBytes, page: usize) {
        debug_assert_eq!(self.len, other.len);
        debug_assert_eq!(self.page_shift, other.page_shift);
        let (start, end) = self.page_span(page);
        let shared_clean = matches!(
            (&self.store, &other.store),
            (Store::Cow { base, .. }, Store::Cow { base: other_base, overlay: other_overlay })
                if Arc::ptr_eq(base, other_base) && other_overlay[page].is_none()
        );
        if shared_clean {
            self.revert_page(page);
            return;
        }
        let mut tmp = [0u8; 1 << 12];
        if end - start <= tmp.len() {
            let buf = &mut tmp[..end - start];
            other.read_bytes(start, buf);
            self.slice_mut(start, end - start).copy_from_slice(buf);
        } else {
            let mut buf = vec![0u8; end - start];
            other.read_bytes(start, &mut buf);
            self.slice_mut(start, end - start).copy_from_slice(&buf);
        }
    }

    /// Full contents as an owned vector (materializes base + overlay).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0; self.len];
        self.read_bytes(0, &mut out);
        out
    }

    /// The current contents as an immutable shared image: the existing
    /// base when this is a fork with an empty overlay (no copy), else a
    /// materialized copy.
    pub fn share(&self) -> Arc<Vec<u8>> {
        match &self.store {
            Store::Cow { base, .. } if self.resident == 0 => Arc::clone(base),
            _ => Arc::new(self.to_vec()),
        }
    }

    /// Converts this buffer into a fork of an immutable base holding its
    /// current contents, and returns that base. A flat buffer becomes the
    /// base itself (no copy); a fork with an empty overlay returns its
    /// existing base; a diverged fork materializes a new base.
    pub fn freeze(&mut self) -> Arc<Vec<u8>> {
        let base = match &mut self.store {
            Store::Flat(bytes) => Arc::new(std::mem::take(bytes)),
            Store::Cow { .. } => self.share(),
        };
        self.adopt(Arc::clone(&base));
        base
    }

    /// Folds the contents into `hash` page by page with
    /// [`crate::hash::fold`], reading the overlay or the base in place.
    pub fn fold_hash(&self, hash: u64) -> u64 {
        (0..self.len.div_ceil(self.page_size())).fold(hash, |hash, page| {
            let (start, end) = self.page_span(page);
            crate::hash::fold(hash, self.read_slice(start, end - start))
        })
    }

    /// Re-forks this buffer from `base`, discarding current contents and
    /// overlay. O(pages) bookkeeping, no byte copies.
    pub fn adopt(&mut self, base: Arc<Vec<u8>>) {
        debug_assert_eq!(self.len, base.len());
        *self = PagedBytes::forked(base, self.page_shift);
    }
}

impl PartialEq for PagedBytes {
    /// Content equality (storage strategy is invisible).
    fn eq(&self, other: &PagedBytes) -> bool {
        if self.len != other.len {
            return false;
        }
        (0..self.len).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for PagedBytes {}

#[cfg(test)]
mod tests {
    use super::*;

    const SHIFT: u32 = 12;
    const PAGE: usize = 1 << SHIFT;

    #[test]
    fn flat_roundtrip_and_freeze_shares() {
        let mut buf = PagedBytes::zeroed(2 * PAGE + 100, SHIFT);
        buf.write_bytes(10, b"hello");
        assert_eq!(buf.read_slice(10, 5), b"hello");
        let base = buf.freeze();
        assert!(buf.is_forked());
        assert!(buf.shares_base(&base));
        assert_eq!(buf.overlay_bytes(), 0);
        assert_eq!(&base[10..15], b"hello");
    }

    #[test]
    fn writes_allocate_overlay_and_never_touch_base() {
        let base = Arc::new(vec![0xAAu8; 3 * PAGE]);
        let mut fork = PagedBytes::forked(Arc::clone(&base), SHIFT);
        fork.write_bytes(PAGE + 4, &[1, 2, 3, 4]);
        assert_eq!(fork.overlay_pages(), 1);
        assert_eq!(fork.overlay_bytes(), PAGE);
        assert_eq!(fork.get(PAGE + 4), 1);
        assert_eq!(fork.get(PAGE + 3), 0xAA, "rest of the page copies base");
        assert!(base.iter().all(|b| *b == 0xAA), "base is immutable");
    }

    #[test]
    fn straddling_bulk_ops_split_at_page_boundaries() {
        let base = Arc::new((0..3 * PAGE).map(|i| i as u8).collect::<Vec<u8>>());
        let mut fork = PagedBytes::forked(Arc::clone(&base), SHIFT);
        let src: Vec<u8> = (0..PAGE + 64).map(|i| !(i as u8)).collect();
        fork.write_bytes(PAGE - 32, &src);
        assert_eq!(fork.overlay_pages(), 3);
        let mut back = vec![0u8; src.len()];
        fork.read_bytes(PAGE - 32, &mut back);
        assert_eq!(back, src);
        assert_eq!(fork.get(PAGE - 33), (PAGE - 33) as u8, "before window untouched");
    }

    #[test]
    fn revert_page_returns_to_base_and_frees() {
        let base = Arc::new(vec![7u8; 2 * PAGE]);
        let mut fork = PagedBytes::forked(Arc::clone(&base), SHIFT);
        fork.write_bytes(0, &[1]);
        fork.write_bytes(PAGE, &[2]);
        assert_eq!(fork.overlay_bytes(), 2 * PAGE);
        fork.revert_page(0);
        assert_eq!(fork.get(0), 7);
        assert_eq!(fork.get(PAGE), 2);
        assert_eq!(fork.overlay_bytes(), PAGE);
    }

    #[test]
    fn restore_page_from_prefers_dropping_shared_pages() {
        let base = Arc::new(vec![9u8; 2 * PAGE]);
        let baseline = PagedBytes::forked(Arc::clone(&base), SHIFT);
        let mut fork = PagedBytes::forked(Arc::clone(&base), SHIFT);
        fork.write_bytes(5, &[0]);
        fork.restore_page_from(&baseline, 0);
        assert_eq!(fork.overlay_bytes(), 0, "shared clean page is dropped, not copied");
        assert_eq!(fork, baseline);
        // Diverged baseline: contents are copied instead.
        let mut diverged = PagedBytes::forked(Arc::clone(&base), SHIFT);
        diverged.write_bytes(0, &[1, 2, 3]);
        fork.restore_page_from(&diverged, 0);
        assert_eq!(fork.read_slice(0, 3), &[1, 2, 3]);
    }

    #[test]
    fn partial_tail_page_is_sized_exactly() {
        let base = Arc::new(vec![3u8; PAGE + 10]);
        let mut fork = PagedBytes::forked(Arc::clone(&base), SHIFT);
        fork.write_bytes(PAGE + 9, &[1]);
        assert_eq!(fork.overlay_bytes(), 10, "tail overlay page is partial");
        assert_eq!(fork.to_vec().len(), PAGE + 10);
        fork.revert_page(1);
        assert_eq!(fork.overlay_bytes(), 0);
    }

    #[test]
    fn freeze_of_diverged_fork_materializes_new_base() {
        let base = Arc::new(vec![0u8; PAGE]);
        let mut fork = PagedBytes::forked(Arc::clone(&base), SHIFT);
        fork.write_bytes(1, &[5]);
        let rebased = fork.freeze();
        assert!(!Arc::ptr_eq(&base, &rebased));
        assert_eq!(rebased[1], 5);
        assert_eq!(fork.overlay_bytes(), 0);
        assert!(fork.shares_base(&rebased));
    }

    #[test]
    fn share_returns_a_clean_fork_base_and_copies_otherwise() {
        let mut buf = PagedBytes::zeroed(2 * PAGE, SHIFT);
        buf.write_bytes(3, &[4]);
        let flat = buf.share();
        assert!(!buf.is_forked(), "sharing a flat buffer leaves it flat");
        let base = buf.freeze();
        assert!(Arc::ptr_eq(&buf.share(), &base), "a clean fork shares its base");
        buf.write_bytes(PAGE, &[5]);
        let diverged = buf.share();
        assert!(!Arc::ptr_eq(&diverged, &base));
        assert_eq!((flat[3], diverged[3], diverged[PAGE]), (4, 4, 5));
    }

    #[test]
    fn fold_hash_sees_contents_not_storage() {
        let base = Arc::new((0..2 * PAGE + 9).map(|i| i as u8).collect::<Vec<u8>>());
        let mut fork = PagedBytes::forked(Arc::clone(&base), SHIFT);
        let flat = PagedBytes::from_vec(base.as_ref().clone(), SHIFT);
        assert_eq!(fork.fold_hash(1), flat.fold_hash(1));
        fork.write_bytes(2 * PAGE + 8, &[0]);
        assert_ne!(fork.fold_hash(1), flat.fold_hash(1), "the partial tail page is hashed");
        fork.write_bytes(2 * PAGE + 8, &[8]);
        assert_eq!(fork.fold_hash(1), flat.fold_hash(1), "an overlay page equal to base");
    }

    #[test]
    fn adopt_rebases_in_constant_bytes() {
        let a = Arc::new(vec![1u8; PAGE]);
        let b = Arc::new(vec![2u8; PAGE]);
        let mut fork = PagedBytes::forked(a, SHIFT);
        fork.write_bytes(0, &[9]);
        fork.adopt(Arc::clone(&b));
        assert!(fork.shares_base(&b));
        assert_eq!(fork.overlay_bytes(), 0);
        assert_eq!(fork.get(0), 2);
    }
}
