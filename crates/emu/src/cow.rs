//! Sparse copy-on-write page table for snapshot forking.
//!
//! [`PagedBytes`] is the storage primitive behind guest RAM and both
//! sanitizer planes (shadow and uninit bits). It is one table with a slot
//! per 4 KiB page, and each slot is in one of three states:
//!
//! - *absent*: the page reads as zero and owns no memory;
//! - *shared*: an immutable page of an `Arc`-held [`FrozenPages`] base;
//! - *private*: a page only this buffer holds, written in place.
//!
//! The first write to an absent or shared page makes a private copy of it
//! (the `#[cold]` path) and records the page in the buffer's private list.
//! Construction therefore allocates only the table; [`PagedBytes::freeze`]
//! turns private pages into shared ones without copying a byte;
//! [`PagedBytes::restore`] points each listed private slot back at its base
//! page; and [`PagedBytes::fold_hash`] folds only the pages that hold a
//! non-zero byte. Every one of them costs time proportional to the pages
//! that hold data, not to the buffer's length.
//!
//! A guest read is one table load plus one page load, and a write to an
//! already-private page one table load plus one branch. The hot accessors
//! rely on size-aligned accesses of ≤ a page never straddling a page
//! boundary; the bulk operations split at page boundaries themselves.

use std::cell::UnsafeCell;
use std::sync::Arc;

/// Page shift of every paged buffer (4 KiB pages).
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_SIZE - 1;

/// What every absent page reads as.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// One page of bytes. A page is written only while it is the page of a
/// [`Slot::Private`] slot, and such a page is referenced by that slot
/// alone; once a second reference to a page exists it is immutable.
struct Page(UnsafeCell<[u8; PAGE_SIZE]>);

// SAFETY: the only writes to a page go through `PagedBytes::slice_mut`,
// which holds `&mut` to the one table that references the page (the
// invariant on `Page`). Every page reachable from another table or from a
// `FrozenPages` base is never written, so shared reads cannot race a write.
unsafe impl Sync for Page {}

impl Page {
    fn new(bytes: &[u8; PAGE_SIZE]) -> Arc<Page> {
        Arc::new(Page(UnsafeCell::new(*bytes)))
    }

    fn bytes(&self) -> &[u8; PAGE_SIZE] {
        // SAFETY: a `&mut` to the bytes exists only inside
        // `PagedBytes::slice_mut`'s `&mut self` borrow of the one table
        // holding this page, during which no `&self` path can reach it.
        unsafe { &*self.0.get() }
    }
}

/// One page-table entry.
enum Slot {
    /// Reads as zero; owns no memory.
    Absent,
    /// A page of the buffer's base, shared with it and its other forks.
    Shared(Arc<Page>),
    /// A page made private since the last restore (strong count 1).
    Private(Arc<Page>),
}

/// The slot a fork starts with for the base entry `page`.
fn shared_slot(page: &Option<Arc<Page>>) -> Slot {
    page.as_ref().map_or(Slot::Absent, |page| Slot::Shared(Arc::clone(page)))
}

/// Whether `page` holds a non-zero byte.
fn holds_data(page: &Page) -> bool {
    page.bytes().iter().any(|&byte| byte != 0)
}

/// Bytes of page `index` inside a buffer of `len` bytes (the last page may
/// be partial).
fn extent(len: usize, index: usize) -> usize {
    (len - (index << PAGE_SHIFT)).min(PAGE_SIZE)
}

/// Folds a buffer of `len` bytes, given as its `(index, page)` pairs in
/// ascending index order, into `hash`: the length, then for every page
/// holding a non-zero byte its index and its bytes. All-zero and absent
/// pages fold alike, so the hash is a function of the contents alone.
fn fold_pages<'a>(
    hash: u64,
    len: usize,
    pages: impl Iterator<Item = (usize, &'a [u8; PAGE_SIZE])>,
) -> u64 {
    let mut hash = crate::hash::fold(hash, &(len as u64).to_le_bytes());
    for (index, page) in pages {
        let bytes = &page[..extent(len, index)];
        if bytes.iter().any(|&byte| byte != 0) {
            hash = crate::hash::fold(hash, &(index as u64).to_le_bytes());
            hash = crate::hash::fold(hash, bytes);
        }
    }
    hash
}

/// An immutable paged image that buffers fork from: the non-zero pages of
/// a frozen buffer, shared by `Arc` with every fork. Identity is `Arc`
/// pointer identity.
pub struct FrozenPages {
    len: usize,
    pages: Vec<Option<Arc<Page>>>,
}

impl FrozenPages {
    /// The image of `table`: the pages of its shared slots, and copies of
    /// those of its private slots that hold data.
    fn from_table(len: usize, table: &[Slot]) -> FrozenPages {
        let pages = table
            .iter()
            .map(|slot| match slot {
                Slot::Absent => None,
                Slot::Shared(page) => Some(Arc::clone(page)),
                Slot::Private(page) => holds_data(page).then(|| Page::new(page.bytes())),
            })
            .collect();
        FrozenPages { len, pages }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages the image holds (the non-zero pages at capture).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|page| page.is_some()).count()
    }

    /// Folds the contents into `hash` exactly as [`PagedBytes::fold_hash`]
    /// folds a buffer with the same contents.
    pub fn fold_hash(&self, hash: u64) -> u64 {
        let pages = self.pages.iter().enumerate();
        fold_pages(hash, self.len, pages.filter_map(|(i, page)| Some((i, page.as_ref()?.bytes()))))
    }

    fn page(&self, index: usize) -> &[u8; PAGE_SIZE] {
        self.pages[index].as_ref().map_or(&ZERO_PAGE, |page| page.bytes())
    }
}

impl PartialEq for FrozenPages {
    /// Content equality.
    fn eq(&self, other: &FrozenPages) -> bool {
        self.len == other.len && (0..self.pages.len()).all(|i| self.page(i) == other.page(i))
    }
}

impl Eq for FrozenPages {}

impl std::fmt::Debug for FrozenPages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenPages")
            .field("len", &self.len)
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

/// A byte buffer that reads absent pages as zero, forks from an immutable
/// shared base, and pays only for the pages it writes.
pub struct PagedBytes {
    len: usize,
    table: Vec<Slot>,
    /// The image non-private slots mirror (`None`: every such slot is
    /// absent). Invariant: each slot not on `private` equals the base's.
    base: Option<Arc<FrozenPages>>,
    /// Indices of the private slots, in first-write order.
    private: Vec<usize>,
}

impl PagedBytes {
    /// A zero buffer of `len` bytes. Allocates only the page table.
    pub fn zeroed(len: usize) -> PagedBytes {
        let table = std::iter::repeat_with(|| Slot::Absent).take(len.div_ceil(PAGE_SIZE)).collect();
        PagedBytes { len, table, base: None, private: Vec::new() }
    }

    /// A fork of `base`: shares every page until written.
    pub fn forked(base: Arc<FrozenPages>) -> PagedBytes {
        let mut bytes =
            PagedBytes { len: base.len, table: Vec::new(), base: None, private: Vec::new() };
        bytes.adopt(base);
        bytes
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether this buffer forks from a shared base.
    pub fn is_forked(&self) -> bool {
        self.base.is_some()
    }

    /// Bytes held in private pages (pages written since the last restore,
    /// freeze or adopt).
    pub fn overlay_bytes(&self) -> usize {
        self.private.iter().map(|&index| extent(self.len, index)).sum()
    }

    /// Number of private pages.
    pub fn overlay_pages(&self) -> usize {
        self.private.len()
    }

    /// Pages the table references, shared or private (for a clean fork,
    /// its base's [`FrozenPages::resident_pages`]).
    pub fn resident_pages(&self) -> usize {
        self.table.iter().filter(|slot| !matches!(slot, Slot::Absent)).count()
    }

    /// Whether this buffer forks from exactly `base` (pointer identity).
    pub fn shares_base(&self, base: &Arc<FrozenPages>) -> bool {
        self.base.as_ref().is_some_and(|own| Arc::ptr_eq(own, base))
    }

    /// The page holding `index`.
    #[inline]
    fn page(&self, index: usize) -> &[u8; PAGE_SIZE] {
        match &self.table[index] {
            Slot::Absent => &ZERO_PAGE,
            Slot::Shared(page) | Slot::Private(page) => page.bytes(),
        }
    }

    /// Reads the byte at `index`.
    #[inline]
    pub fn get(&self, index: usize) -> u8 {
        debug_assert!(index < self.len, "read past the end");
        self.page(index >> PAGE_SHIFT)[index & PAGE_MASK]
    }

    /// Borrows `len` bytes at `offset`, which must not straddle a page
    /// boundary (guaranteed for size-aligned accesses of ≤ a page).
    #[inline]
    pub fn read_slice(&self, offset: usize, len: usize) -> &[u8] {
        debug_assert!(
            offset >> PAGE_SHIFT == (offset + len - 1) >> PAGE_SHIFT && offset + len <= self.len,
            "read_slice straddles a page or the end"
        );
        let start = offset & PAGE_MASK;
        &self.page(offset >> PAGE_SHIFT)[start..start + len]
    }

    /// Mutably borrows `len` bytes at `offset` (same non-straddling
    /// contract as [`PagedBytes::read_slice`]), making the page private on
    /// first write.
    #[inline]
    pub fn slice_mut(&mut self, offset: usize, len: usize) -> &mut [u8] {
        debug_assert!(
            offset >> PAGE_SHIFT == (offset + len - 1) >> PAGE_SHIFT && offset + len <= self.len,
            "slice_mut straddles a page or the end"
        );
        let index = offset >> PAGE_SHIFT;
        if !matches!(self.table[index], Slot::Private(_)) {
            self.make_private(index);
        }
        let Slot::Private(page) = &mut self.table[index] else {
            unreachable!("the page was made private above");
        };
        debug_assert_eq!(Arc::strong_count(page), 1, "a private page is unshared");
        let start = offset & PAGE_MASK;
        // SAFETY: a private page is referenced by this slot alone (see
        // `Page`), and `self` is borrowed mutably for the returned slice's
        // lifetime, so no other reference to these bytes can exist.
        let bytes = unsafe { &mut *page.0.get() };
        &mut bytes[start..start + len]
    }

    /// Mutably borrows the byte at `index`.
    #[inline]
    pub fn byte_mut(&mut self, index: usize) -> &mut u8 {
        &mut self.slice_mut(index, 1)[0]
    }

    /// Gives page `index` a private copy of its current contents.
    #[cold]
    fn make_private(&mut self, index: usize) {
        let page = Page::new(self.page(index));
        self.table[index] = Slot::Private(page);
        self.private.push(index);
    }

    /// Splits `offset..offset + len` at page boundaries into
    /// `(at, done, chunk)` pieces: `chunk` bytes at `at`, after `done` bytes.
    fn pieces(offset: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let mut done = 0;
        std::iter::from_fn(move || {
            let at = offset + done;
            let chunk = (len - done).min(PAGE_SIZE - (at & PAGE_MASK));
            done += chunk;
            (chunk > 0).then_some((at, done - chunk, chunk))
        })
    }

    /// Copies `src` into the buffer at `offset`, straddle-safe.
    pub fn write_bytes(&mut self, offset: usize, src: &[u8]) {
        for (at, done, chunk) in Self::pieces(offset, src.len()) {
            self.slice_mut(at, chunk).copy_from_slice(&src[done..done + chunk]);
        }
    }

    /// Fills `offset..offset + len` with `value`, straddle-safe.
    pub fn fill(&mut self, offset: usize, len: usize, value: u8) {
        for (at, _, chunk) in Self::pieces(offset, len) {
            self.slice_mut(at, chunk).fill(value);
        }
    }

    /// Reads `dst.len()` bytes at `offset`, straddle-safe.
    pub fn read_bytes(&self, offset: usize, dst: &mut [u8]) {
        for (at, done, chunk) in Self::pieces(offset, dst.len()) {
            dst[done..done + chunk].copy_from_slice(self.read_slice(at, chunk));
        }
    }

    /// Reverts every private page to its base page (or to absent when the
    /// buffer has no base). O(private pages); frees their memory.
    pub fn restore(&mut self) {
        for index in self.private.drain(..) {
            self.table[index] = match &self.base {
                Some(base) => shared_slot(&base.pages[index]),
                None => Slot::Absent,
            };
        }
    }

    /// Makes this buffer's contents equal to `other`'s. When both mirror the
    /// same base and `other` holds no private page, this is
    /// [`PagedBytes::restore`]; otherwise it clones `other`'s table.
    pub fn restore_from(&mut self, other: &PagedBytes) {
        debug_assert_eq!(self.len, other.len);
        let same_base = match (&self.base, &other.base) {
            (Some(own), Some(theirs)) => Arc::ptr_eq(own, theirs),
            (own, theirs) => own.is_none() && theirs.is_none(),
        };
        if same_base && other.private.is_empty() {
            self.restore();
        } else {
            *self = other.clone();
        }
    }

    /// The current contents as an immutable shared image: the base itself
    /// when no page is private, else a new image that shares the base's
    /// pages and copies the private ones.
    pub fn share(&self) -> Arc<FrozenPages> {
        match &self.base {
            Some(base) if self.private.is_empty() => Arc::clone(base),
            _ => Arc::new(FrozenPages::from_table(self.len, &self.table)),
        }
    }

    /// Turns this buffer into a fork of an image of its current contents
    /// and returns that image. Private pages move into the image without a
    /// copy (all-zero ones are dropped); a fork with no private page
    /// returns its existing base.
    pub fn freeze(&mut self) -> Arc<FrozenPages> {
        if let Some(base) = self.base.as_ref().filter(|_| self.private.is_empty()) {
            return Arc::clone(base);
        }
        let pages = self
            .table
            .drain(..)
            .map(|slot| match slot {
                Slot::Absent => None,
                Slot::Shared(page) => Some(page),
                Slot::Private(page) => holds_data(&page).then_some(page),
            })
            .collect();
        let base = Arc::new(FrozenPages { len: self.len, pages });
        self.adopt(Arc::clone(&base));
        base
    }

    /// Folds the contents into `hash`: the length, then the index and
    /// bytes of every page holding a non-zero byte, in ascending order.
    pub fn fold_hash(&self, hash: u64) -> u64 {
        let pages = self.table.iter().enumerate().filter_map(|(index, slot)| match slot {
            Slot::Absent => None,
            Slot::Shared(page) | Slot::Private(page) => Some((index, page.bytes())),
        });
        fold_pages(hash, self.len, pages)
    }

    /// Re-forks this buffer from `base`, discarding its contents and
    /// private pages. O(table) slot writes, no byte copies.
    pub fn adopt(&mut self, base: Arc<FrozenPages>) {
        debug_assert_eq!(self.len, base.len);
        self.table.clear();
        self.table.extend(base.pages.iter().map(shared_slot));
        self.private.clear();
        self.base = Some(base);
    }
}

impl Clone for PagedBytes {
    /// Shares shared pages and copies private ones, so a private page stays
    /// referenced by one table.
    fn clone(&self) -> PagedBytes {
        let table = self
            .table
            .iter()
            .map(|slot| match slot {
                Slot::Absent => Slot::Absent,
                Slot::Shared(page) => Slot::Shared(Arc::clone(page)),
                Slot::Private(page) => Slot::Private(Page::new(page.bytes())),
            })
            .collect();
        PagedBytes { len: self.len, table, base: self.base.clone(), private: self.private.clone() }
    }
}

impl PartialEq for PagedBytes {
    /// Content equality (storage state is invisible).
    fn eq(&self, other: &PagedBytes) -> bool {
        self.len == other.len && (0..self.table.len()).all(|i| self.page(i) == other.page(i))
    }
}

impl Eq for PagedBytes {}

impl std::fmt::Debug for PagedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedBytes")
            .field("len", &self.len)
            .field("forked", &self.is_forked())
            .field("private_pages", &self.private.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = PAGE_SIZE;

    fn frozen(contents: &[u8]) -> Arc<FrozenPages> {
        let mut buf = PagedBytes::zeroed(contents.len());
        buf.write_bytes(0, contents);
        buf.freeze()
    }

    #[test]
    fn a_new_buffer_owns_no_page_and_reads_zero() {
        let buf = PagedBytes::zeroed(1024 * PAGE);
        assert_eq!((buf.overlay_pages(), buf.overlay_bytes()), (0, 0));
        assert_eq!(buf.get(1024 * PAGE - 1), 0);
        assert_eq!(buf.read_slice(5 * PAGE, 4), &[0; 4]);
    }

    #[test]
    fn freeze_moves_private_pages_into_the_base_without_a_copy() {
        let mut buf = PagedBytes::zeroed(2 * PAGE + 100);
        buf.write_bytes(10, b"hello");
        let Slot::Private(page) = &buf.table[0] else { panic!("written page is private") };
        let written = Arc::as_ptr(page);
        let base = buf.freeze();
        assert!(buf.shares_base(&base));
        assert_eq!(buf.overlay_bytes(), 0);
        assert_eq!(base.resident_pages(), 1, "untouched pages stay absent");
        assert_eq!(Arc::as_ptr(base.pages[0].as_ref().unwrap()), written, "moved, not copied");
        assert_eq!(buf.read_slice(10, 5), b"hello");
        assert!(Arc::ptr_eq(&buf.freeze(), &base), "a clean fork freezes to its base");
    }

    #[test]
    fn writes_make_pages_private_and_never_touch_the_base() {
        let base = frozen(&[0xAA; 3 * PAGE]);
        let mut fork = PagedBytes::forked(Arc::clone(&base));
        fork.write_bytes(PAGE + 4, &[1, 2, 3, 4]);
        assert_eq!((fork.overlay_pages(), fork.overlay_bytes()), (1, PAGE));
        assert_eq!(fork.get(PAGE + 4), 1);
        assert_eq!(fork.get(PAGE + 3), 0xAA, "the rest of the page copies the base");
        assert!((0..3 * PAGE).all(|i| base.page(i >> PAGE_SHIFT)[i & PAGE_MASK] == 0xAA));
    }

    #[test]
    fn straddling_bulk_ops_split_at_page_boundaries() {
        let base = frozen(&(0..3 * PAGE).map(|i| i as u8).collect::<Vec<u8>>());
        let mut fork = PagedBytes::forked(base);
        let src: Vec<u8> = (0..PAGE + 64).map(|i| !(i as u8)).collect();
        fork.write_bytes(PAGE - 32, &src);
        assert_eq!(fork.overlay_pages(), 3);
        let mut back = vec![0u8; src.len()];
        fork.read_bytes(PAGE - 32, &mut back);
        assert_eq!(back, src);
        assert_eq!(fork.get(PAGE - 33), (PAGE - 33) as u8, "before the window untouched");
    }

    #[test]
    fn restore_reverts_private_pages_and_frees_them() {
        let base = frozen(&[7; 2 * PAGE]);
        let mut fork = PagedBytes::forked(Arc::clone(&base));
        fork.write_bytes(0, &[1]);
        fork.write_bytes(PAGE, &[2]);
        assert_eq!(fork.overlay_bytes(), 2 * PAGE);
        fork.restore();
        assert_eq!((fork.get(0), fork.get(PAGE), fork.overlay_bytes()), (7, 7, 0));
        let mut fresh = PagedBytes::zeroed(PAGE);
        fresh.write_bytes(3, &[9]);
        fresh.restore();
        assert_eq!((fresh.get(3), fresh.overlay_pages()), (0, 0), "no base: back to absent");
    }

    #[test]
    fn restore_from_reverts_against_a_clean_twin_and_clones_otherwise() {
        let base = frozen(&[9; 2 * PAGE]);
        let baseline = PagedBytes::forked(Arc::clone(&base));
        let mut fork = PagedBytes::forked(Arc::clone(&base));
        fork.write_bytes(5, &[0]);
        fork.restore_from(&baseline);
        assert_eq!(fork.overlay_bytes(), 0, "a clean twin's page is reverted, not copied");
        assert_eq!(fork, baseline);
        let mut diverged = PagedBytes::forked(base);
        diverged.write_bytes(0, &[1, 2, 3]);
        fork.restore_from(&diverged);
        assert_eq!(fork.read_slice(0, 3), &[1, 2, 3]);
        fork.write_bytes(0, &[4]);
        assert_eq!(diverged.get(0), 1, "the clone's private page is its own");
    }

    #[test]
    fn partial_tail_page_is_sized_exactly() {
        let base = frozen(&[3; PAGE + 10]);
        let mut fork = PagedBytes::forked(Arc::clone(&base));
        assert_eq!((base.resident_pages(), fork.resident_pages()), (2, 2));
        fork.write_bytes(PAGE + 9, &[1]);
        assert_eq!(fork.overlay_bytes(), 10, "the tail page is partial");
        fork.restore();
        assert_eq!((fork.overlay_bytes(), fork.get(PAGE + 9)), (0, 3));
    }

    #[test]
    fn share_returns_a_clean_base_and_copies_private_pages_otherwise() {
        let mut buf = PagedBytes::zeroed(2 * PAGE);
        buf.write_bytes(3, &[4]);
        let unforked = buf.share();
        assert!(!buf.is_forked(), "sharing leaves the buffer as it was");
        let base = buf.freeze();
        assert!(Arc::ptr_eq(&buf.share(), &base), "a clean fork shares its base");
        buf.write_bytes(PAGE, &[5]);
        let diverged = buf.share();
        assert!(!Arc::ptr_eq(&diverged, &base));
        buf.write_bytes(PAGE, &[6]);
        assert_eq!((unforked.page(0)[3], diverged.page(0)[3], diverged.page(1)[0]), (4, 4, 5));
    }

    #[test]
    fn a_page_written_then_zeroed_hashes_as_never_written() {
        let never = PagedBytes::zeroed(3 * PAGE + 9);
        let mut zeroed = PagedBytes::zeroed(3 * PAGE + 9);
        zeroed.fill(PAGE - 2, PAGE + 4, 0x5A);
        assert_ne!(zeroed.fold_hash(1), never.fold_hash(1));
        zeroed.fill(PAGE - 2, PAGE + 4, 0);
        assert_eq!(zeroed.overlay_pages(), 3);
        assert_eq!(zeroed.fold_hash(1), never.fold_hash(1));
        let base = zeroed.freeze();
        assert_eq!(base.resident_pages(), 0, "zero pages are not kept");
        assert_eq!(base.fold_hash(1), never.fold_hash(1));
    }

    #[test]
    fn the_hash_sees_contents_page_positions_and_length() {
        let mut a = PagedBytes::zeroed(2 * PAGE + 9);
        let mut b = PagedBytes::zeroed(2 * PAGE + 9);
        a.write_bytes(0, &[1]);
        b.write_bytes(PAGE, &[1]);
        assert_ne!(a.fold_hash(0), b.fold_hash(0), "same bytes, another page");
        a.write_bytes(2 * PAGE + 8, &[2]);
        assert_eq!(a.fold_hash(0), a.freeze().fold_hash(0), "buffer and image agree");
        assert_ne!(
            PagedBytes::zeroed(PAGE).fold_hash(0),
            PagedBytes::zeroed(2 * PAGE).fold_hash(0)
        );
    }

    #[test]
    fn adopt_rebases_without_copying() {
        let a = frozen(&[1; PAGE]);
        let b = frozen(&[2; PAGE]);
        let mut fork = PagedBytes::forked(a);
        fork.write_bytes(0, &[9]);
        fork.adopt(Arc::clone(&b));
        assert!(fork.shares_base(&b));
        assert_eq!((fork.overlay_bytes(), fork.get(0)), (0, 2));
    }

    #[test]
    fn a_clone_copies_private_pages() {
        let mut buf = PagedBytes::zeroed(PAGE);
        buf.write_bytes(0, &[1]);
        let mut copy = buf.clone();
        copy.write_bytes(0, &[2]);
        assert_eq!((buf.get(0), copy.get(0)), (1, 2));
        assert_eq!(copy.overlay_pages(), 1);
    }
}
