//! Physical frames: compact page contents with reference counting.
//!
//! A [`FrameTable`] owns all frames of the simulated machine; address
//! spaces reference frames by [`FrameId`]. Reference counts implement
//! genuine copy-on-write sharing across `fork` and snapshots: a snapshot
//! holds cloned [`FrameData`], so restores are bit-exact by construction
//! and the tests verify it by logical content comparison.
//!
//! # Representations
//!
//! Contents are stored compactly so processes mapping hundreds of
//! thousands of pages stay cheap. Every representation reads the same
//! 512 words through [`FrameData::read_word`], so equality and hashing
//! ([`FrameData::logical_eq`], [`FrameData::logical_hash`]) never depend
//! on which one a page happens to be in:
//!
//! - [`FrameData::Zero`] and [`FrameData::Pattern`] — an all-zero page
//!   and a deterministic pattern page (runtime and library images). No
//!   heap.
//! - [`FrameData::Patched`] — a zero or pattern base plus sorted 8-byte
//!   word patches ([`WordPatches`]). The first two patches live inline
//!   in the frame, so writing one or two words of a `Zero`/`Pattern`
//!   page, cloning such a page (the restore writeback, image page-in,
//!   store interning) and comparing two of them touch no heap. The
//!   third patch spills the list to one heap vector, which every clone
//!   of that page then copies.
//! - [`FrameData::Literal`] — a full 4 KiB heap page, materialized when
//!   a page takes a 17th word patch.
//!
//! `FrameData` is 40 bytes whichever representation it holds.
//!
//! # Hashing cost
//!
//! [`FrameData::logical_hash`] is FNV-1a over the 512 words, and its
//! value is the same for every representation of the same contents.
//! What it costs differs: a `Zero` page is one multiply and a
//! zero-based `Patched` page one multiply per patch plus one per zero
//! gap, because FNV-1a over `k` zero words multiplies the state by the
//! prime's `k`-th power, read from a table. `Pattern`, pattern-based
//! `Patched` and `Literal` pages mix all 512 words. The values are the
//! ones the plain 512-word loop gives, so content-index buckets and
//! every dedup decision do not depend on which path computed them.

use crate::addr::{PageRange, Vpn, PAGE_SIZE};
use crate::taint::Taint;

/// Maximum number of word patches before a page is materialized.
const MAX_PATCHES: usize = 16;

/// Word patches held inline before the list spills to the heap.
const INLINE_PATCHES: usize = 2;

/// Identifier of a frame in a [`FrameTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FrameId(pub u64);

/// Logical contents of one 4 KiB page, stored compactly (see the module
/// docs for when each representation allocates).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameData {
    /// All zeroes.
    Zero,
    /// A page filled with a deterministic pattern derived from `seed`
    /// (used for runtime/library images).
    Pattern(u64),
    /// A zero or pattern base page plus 1 to 16 sparse 8-byte aligned
    /// word patches.
    Patched(WordPatches),
    /// Fully materialized page bytes.
    Literal(Box<[u8; PAGE_SIZE as usize]>),
}

/// A base page plus sorted `(byte offset, value)` word patches: up to
/// two inline, more in one heap vector. Built only by
/// [`FrameData::write_word`], so derived equality is exact within one
/// representation (unused inline slots stay zero, and a list never
/// shrinks back inline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordPatches(Patches);

#[derive(Clone, Debug, PartialEq, Eq)]
enum Patches {
    /// One or two patches, inline.
    Inline {
        /// The base is all zeroes (`seed` is then 0).
        zero_base: bool,
        /// Patches in use (1 or 2).
        len: u8,
        /// Byte offsets, ascending over `..len`.
        offs: [u16; INLINE_PATCHES],
        /// Pattern seed of the base.
        seed: u64,
        /// Patched words, parallel to `offs`.
        vals: [u64; INLINE_PATCHES],
    },
    /// Three to [`MAX_PATCHES`] patches on the heap.
    Spilled {
        /// The base is all zeroes (`seed` is then 0).
        zero_base: bool,
        /// Pattern seed of the base.
        seed: u64,
        /// `(byte offset, value)`, sorted by offset.
        list: Vec<(u16, u64)>,
    },
}

impl WordPatches {
    /// One patch over a zero base (`None`) or a pattern base.
    fn one(base: Option<u64>, off: u16, value: u64) -> WordPatches {
        WordPatches(Patches::Inline {
            zero_base: base.is_none(),
            len: 1,
            offs: [off, 0],
            seed: base.unwrap_or(0),
            vals: [value, 0],
        })
    }

    /// Pattern seed of the base page; `None` for a zero base.
    pub fn base(&self) -> Option<u64> {
        match self.0 {
            Patches::Inline {
                zero_base, seed, ..
            }
            | Patches::Spilled {
                zero_base, seed, ..
            } => (!zero_base).then_some(seed),
        }
    }

    /// Number of patches.
    pub fn len(&self) -> usize {
        match &self.0 {
            Patches::Inline { len, .. } => *len as usize,
            Patches::Spilled { list, .. } => list.len(),
        }
    }

    /// Always false: a patched page holds at least one patch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True while the patches are held inline (no heap list).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Patches::Inline { .. })
    }

    /// The `(byte offset, value)` patches, ascending by offset.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        let (offs, vals, list): (&[u16], &[u64], &[(u16, u64)]) = match &self.0 {
            Patches::Inline {
                len, offs, vals, ..
            } => (&offs[..*len as usize], &vals[..*len as usize], &[]),
            Patches::Spilled { list, .. } => (&[], &[], list),
        };
        offs.iter()
            .copied()
            .zip(vals.iter().copied())
            .chain(list.iter().copied())
    }

    /// The patched value at byte offset `off`, if any.
    #[inline]
    fn get(&self, off: u16) -> Option<u64> {
        match &self.0 {
            Patches::Inline {
                len, offs, vals, ..
            } => (0..*len as usize)
                .find(|&i| offs[i] == off)
                .map(|i| vals[i]),
            Patches::Spilled { list, .. } => list
                .binary_search_by_key(&off, |&(o, _)| o)
                .ok()
                .map(|i| list[i].1),
        }
    }

    /// Sets the word at byte offset `off`; returns the patch count
    /// afterwards. The third distinct offset spills the list to the heap.
    fn set(&mut self, off: u16, value: u64) -> usize {
        match &mut self.0 {
            Patches::Inline {
                zero_base,
                len,
                offs,
                seed,
                vals,
            } => {
                let n = *len as usize;
                if let Some(i) = (0..n).find(|&i| offs[i] == off) {
                    vals[i] = value;
                    return n;
                }
                if n < INLINE_PATCHES {
                    // Shift the larger offsets up one slot.
                    let at = (0..n).find(|&i| offs[i] > off).unwrap_or(n);
                    for i in (at..n).rev() {
                        offs[i + 1] = offs[i];
                        vals[i + 1] = vals[i];
                    }
                    offs[at] = off;
                    vals[at] = value;
                    *len += 1;
                    return n + 1;
                }
                let mut list = Vec::with_capacity(INLINE_PATCHES * 2);
                list.extend(offs.iter().copied().zip(vals.iter().copied()));
                let at = list.partition_point(|&(o, _)| o < off);
                list.insert(at, (off, value));
                *self = WordPatches(Patches::Spilled {
                    zero_base: *zero_base,
                    seed: *seed,
                    list,
                });
                INLINE_PATCHES + 1
            }
            Patches::Spilled { list, .. } => {
                match list.binary_search_by_key(&off, |&(o, _)| o) {
                    Ok(i) => list[i].1 = value,
                    Err(i) => list.insert(i, (off, value)),
                }
                list.len()
            }
        }
    }
}

/// Deterministic pattern word for page `seed` at word index `i`.
#[inline]
fn pattern_word(seed: u64, i: usize) -> u64 {
    // SplitMix-style mix; cheap and well distributed.
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const WORDS_PER_PAGE: usize = (PAGE_SIZE as usize) / 8;

impl FrameData {
    /// Reads the aligned 8-byte word at `word_index`.
    ///
    /// # Panics
    ///
    /// Panics if `word_index >= 512`.
    // Inlined for the same reason as the `FrameTable` accessors: it is
    // the per-word read of the content hash and equality loops.
    #[inline]
    pub fn read_word(&self, word_index: usize) -> u64 {
        assert!(word_index < WORDS_PER_PAGE, "word index out of page");
        match self {
            FrameData::Zero => 0,
            FrameData::Pattern(seed) => pattern_word(*seed, word_index),
            FrameData::Patched(p) => p
                .get((word_index * 8) as u16)
                .unwrap_or_else(|| p.base().map_or(0, |s| pattern_word(s, word_index))),
            FrameData::Literal(bytes) => {
                let off = word_index * 8;
                u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte slice"))
            }
        }
    }

    /// Writes the aligned 8-byte word at `word_index`, promoting the
    /// representation as needed.
    ///
    /// # Panics
    ///
    /// Panics if `word_index >= 512`.
    pub fn write_word(&mut self, word_index: usize, value: u64) {
        assert!(word_index < WORDS_PER_PAGE, "word index out of page");
        let off = (word_index * 8) as u16;
        match self {
            FrameData::Zero => {
                if value != 0 {
                    *self = FrameData::Patched(WordPatches::one(None, off, value));
                }
            }
            FrameData::Pattern(seed) => {
                let seed = *seed;
                if pattern_word(seed, word_index) != value {
                    *self = FrameData::Patched(WordPatches::one(Some(seed), off, value));
                }
            }
            FrameData::Patched(p) => {
                if p.set(off, value) > MAX_PATCHES {
                    *self = FrameData::Literal(self.materialize());
                }
            }
            FrameData::Literal(bytes) => {
                let off = word_index * 8;
                bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
    }

    /// Produces the full 4 KiB byte image of the page.
    pub fn materialize(&self) -> Box<[u8; PAGE_SIZE as usize]> {
        let mut bytes = Box::new([0u8; PAGE_SIZE as usize]);
        match self {
            FrameData::Zero => {}
            FrameData::Pattern(seed) => {
                for w in 0..WORDS_PER_PAGE {
                    bytes[w * 8..w * 8 + 8].copy_from_slice(&pattern_word(*seed, w).to_le_bytes());
                }
            }
            FrameData::Patched(p) => {
                if let Some(seed) = p.base() {
                    for w in 0..WORDS_PER_PAGE {
                        bytes[w * 8..w * 8 + 8]
                            .copy_from_slice(&pattern_word(seed, w).to_le_bytes());
                    }
                }
                for (off, val) in p.iter() {
                    let off = off as usize;
                    bytes[off..off + 8].copy_from_slice(&val.to_le_bytes());
                }
            }
            FrameData::Literal(b) => bytes.copy_from_slice(&b[..]),
        }
        bytes
    }

    /// Compares logical contents (independent of representation).
    pub fn logical_eq(&self, other: &FrameData) -> bool {
        // Fast path: identical representations.
        if self == other {
            return true;
        }
        (0..WORDS_PER_PAGE).all(|w| self.read_word(w) == other.read_word(w))
    }

    /// FNV-1a hash of the page's logical bytes (the 512 words
    /// [`FrameData::read_word`] exposes). Representation-independent:
    /// a `Patched` page whose patches restore the base hashes equal to
    /// the base — the property the
    /// [`SnapshotStore`](crate::store::SnapshotStore) content index
    /// relies on.
    ///
    /// Cost by representation (the store hashes every page of each base
    /// image it establishes, so this decides cold-start time): a `Zero`
    /// page is `O(1)` and a zero-based `Patched` page `O(patches)`,
    /// because mixing `k` zero words into FNV-1a only multiplies the
    /// state by the prime's `k`-th power. `Pattern`, pattern-based
    /// `Patched` and `Literal` pages mix all 512 words. Every value
    /// equals the plain 512-word loop's.
    pub fn logical_hash(&self) -> u64 {
        let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME);
        match self {
            FrameData::Zero => FNV_OFFSET.wrapping_mul(FNV_POWERS[WORDS_PER_PAGE]),
            FrameData::Pattern(seed) => {
                (0..WORDS_PER_PAGE).fold(FNV_OFFSET, |h, w| mix(h, pattern_word(*seed, w)))
            }
            FrameData::Patched(p) => match p.base() {
                None => {
                    // Skip each run of zero words with one multiply.
                    let (mut h, mut next) = (FNV_OFFSET, 0);
                    for (off, v) in p.iter() {
                        let w = off as usize / 8;
                        h = mix(h.wrapping_mul(FNV_POWERS[w - next]), v);
                        next = w + 1;
                    }
                    h.wrapping_mul(FNV_POWERS[WORDS_PER_PAGE - next])
                }
                Some(seed) => {
                    let mut patches = p.iter().peekable();
                    (0..WORDS_PER_PAGE).fold(FNV_OFFSET, |h, w| {
                        match patches.next_if(|&(off, _)| off as usize == w * 8) {
                            Some((_, v)) => mix(h, v),
                            None => mix(h, pattern_word(seed, w)),
                        }
                    })
                }
            },
            FrameData::Literal(bytes) => bytes.chunks_exact(8).fold(FNV_OFFSET, |h, chunk| {
                mix(
                    h,
                    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
                )
            }),
        }
    }
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k` in `0..=512`: mixing `k` zero words
/// into an FNV-1a state `h` yields `h * FNV_POWERS[k]`, since `h ^ 0`
/// is `h`.
const FNV_POWERS: [u64; WORDS_PER_PAGE + 1] = {
    let mut powers = [1u64; WORDS_PER_PAGE + 1];
    let mut k = 1;
    while k <= WORDS_PER_PAGE {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Refcounted snapshot page capture: contiguous runs of `(start vpn,
/// frames)`, sorted by start. This is what the run-based capture path
/// produces — `O(runs)` metadata plus one `FrameId` per page, no content
/// copies — and what the restore planner consumes directly.
#[derive(Clone, Debug, Default)]
pub struct FrameRuns {
    /// `(run start, per-page frames)`, sorted, disjoint, non-adjacent.
    runs: Vec<(Vpn, Vec<FrameId>)>,
    /// The covered ranges, one per run (computed once at capture).
    ranges: Vec<PageRange>,
    total: u64,
}

impl FrameRuns {
    /// Wraps capture output (must be sorted and disjoint).
    pub fn new(runs: Vec<(Vpn, Vec<FrameId>)>) -> FrameRuns {
        let total = runs.iter().map(|(_, f)| f.len() as u64).sum();
        debug_assert!(runs
            .windows(2)
            .all(|w| w[0].0 .0 + w[0].1.len() as u64 <= w[1].0 .0));
        let ranges = runs
            .iter()
            .map(|(s, f)| PageRange::at(*s, f.len() as u64))
            .collect();
        FrameRuns {
            runs,
            ranges,
            total,
        }
    }

    /// Total pages captured.
    pub fn total_pages(&self) -> u64 {
        self.total
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The covered ranges, sorted and maximal (computed once at
    /// capture; `O(1)`).
    pub fn ranges(&self) -> &[PageRange] {
        &self.ranges
    }

    /// The frame of `vpn`, if captured (`O(log runs)`).
    pub fn get(&self, vpn: Vpn) -> Option<FrameId> {
        let i = self.runs.partition_point(|(s, _)| s.0 <= vpn.0);
        let (start, frames) = self.runs.get(i.checked_sub(1)?)?;
        frames.get((vpn.0 - start.0) as usize).copied()
    }

    /// A forward cursor for resolving ascending vpns — the restore
    /// writeback's lookup, amortized `O(1)` per page instead of a binary
    /// search each.
    pub fn cursor(&self) -> FrameRunsCursor<'_> {
        FrameRunsCursor {
            runs: &self.runs,
            next: 0,
        }
    }

    /// True when `vpn` was captured.
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.get(vpn).is_some()
    }

    /// Iterates `(vpn, frame)` pairs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, FrameId)> + '_ {
        self.runs.iter().flat_map(|(start, frames)| {
            frames
                .iter()
                .enumerate()
                .map(move |(i, &f)| (Vpn(start.0 + i as u64), f))
        })
    }

    /// Releases every captured reference into `frames` (the inverse of a
    /// refcounted capture).
    pub fn release(&mut self, frames: &mut FrameTable) {
        for (_, run) in std::mem::take(&mut self.runs) {
            for id in run {
                frames.decref(id);
            }
        }
        self.ranges.clear();
        self.total = 0;
    }
}

/// Ascending lookup over a [`FrameRuns`] (see [`FrameRuns::cursor`]).
#[derive(Clone, Debug)]
pub struct FrameRunsCursor<'a> {
    runs: &'a [(Vpn, Vec<FrameId>)],
    /// Index of the first run not known to end at or below the last
    /// queried vpn.
    next: usize,
}

impl FrameRunsCursor<'_> {
    /// The frame of `vpn`, if captured. Successive queries must not
    /// descend.
    #[inline]
    pub fn get(&mut self, vpn: Vpn) -> Option<FrameId> {
        while let Some((start, frames)) = self.runs.get(self.next) {
            if vpn.0 < start.0 {
                return None;
            }
            if let Some(&id) = frames.get((vpn.0 - start.0) as usize) {
                return Some(id);
            }
            self.next += 1;
        }
        None
    }
}

/// One frame: page contents plus taint plus a reference count.
#[derive(Clone, Debug)]
struct Frame {
    data: FrameData,
    taint: Taint,
    refs: u32,
}

/// The machine-wide frame store.
///
/// Frames are allocated by address spaces; `fork` and snapshotting take
/// additional references. A frame with `refs > 1` must be copied before
/// mutation (enforced by [`AddressSpace`](crate::space::AddressSpace)'s CoW
/// fault path).
///
/// The per-frame accessors are `#[inline]`: the restore writeback and
/// snapshot interning call them once per page, across modules and
/// crates, and without the hint whether they inline depends on how the
/// crate is split into codegen units.
#[derive(Default, Debug)]
pub struct FrameTable {
    frames: Vec<Option<Frame>>,
    free: Vec<u64>,
    allocated: u64,
}

impl FrameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a frame with the given contents and taint.
    pub fn alloc(&mut self, data: FrameData, taint: Taint) -> FrameId {
        self.allocated += 1;
        let frame = Frame {
            data,
            taint,
            refs: 1,
        };
        if let Some(idx) = self.free.pop() {
            self.frames[idx as usize] = Some(frame);
            FrameId(idx)
        } else {
            self.frames.push(Some(frame));
            FrameId(self.frames.len() as u64 - 1)
        }
    }

    #[inline]
    fn get(&self, id: FrameId) -> &Frame {
        self.frames
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("dangling frame id {id:?}"))
    }

    #[inline]
    fn get_mut(&mut self, id: FrameId) -> &mut Frame {
        self.frames
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("dangling frame id {id:?}"))
    }

    /// Increments the reference count (fork / snapshot sharing).
    #[inline]
    pub fn incref(&mut self, id: FrameId) {
        self.get_mut(id).refs += 1;
    }

    /// Decrements the reference count, freeing the frame at zero.
    #[inline]
    pub fn decref(&mut self, id: FrameId) {
        let frame = self.get_mut(id);
        frame.refs -= 1;
        if frame.refs == 0 {
            self.frames[id.0 as usize] = None;
            self.free.push(id.0);
        }
    }

    /// Current reference count.
    #[inline]
    pub fn refcount(&self, id: FrameId) -> u32 {
        self.get(id).refs
    }

    /// True if the frame is shared (CoW must copy before writing).
    #[inline]
    pub fn is_shared(&self, id: FrameId) -> bool {
        self.get(id).refs > 1
    }

    /// Clones a shared frame into a private copy (the CoW copy), returning
    /// the new frame. The old frame's refcount is decremented.
    pub fn cow_copy(&mut self, id: FrameId) -> FrameId {
        let (data, taint) = {
            let f = self.get(id);
            (f.data.clone(), f.taint)
        };
        self.decref(id);
        self.alloc(data, taint)
    }

    /// Immutable view of a frame's contents.
    #[inline]
    pub fn data(&self, id: FrameId) -> &FrameData {
        &self.get(id).data
    }

    /// Taint of a frame.
    #[inline]
    pub fn taint(&self, id: FrameId) -> Taint {
        self.get(id).taint
    }

    /// Mutable access to contents + taint.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — if the frame is shared: callers
    /// must unshare it first (the CoW fault path, or
    /// [`FrameTable::cow_copy`] for a privileged write).
    pub fn data_mut(&mut self, id: FrameId) -> (&mut FrameData, &mut Taint) {
        let f = self.get_mut(id);
        assert_eq!(f.refs, 1, "mutating a shared frame without CoW copy");
        (&mut f.data, &mut f.taint)
    }

    /// Overwrites contents + taint wholesale (used by the restorer, which
    /// writes via ptrace and therefore bypasses the fault path).
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — if the frame is shared.
    pub fn overwrite(&mut self, id: FrameId, data: FrameData, taint: Taint) {
        let f = self.get_mut(id);
        assert_eq!(f.refs, 1, "overwriting a shared frame");
        f.data = data;
        f.taint = taint;
    }

    /// True when `id` denotes a live (allocated, unreleased) frame.
    #[inline]
    pub fn is_live(&self, id: FrameId) -> bool {
        self.frames.get(id.0 as usize).is_some_and(|f| f.is_some())
    }

    /// Number of live frames.
    pub fn live(&self) -> usize {
        self.frames.iter().filter(|f| f.is_some()).count()
    }

    /// Bytes of memory the live frames logically occupy (one full page
    /// each, regardless of the compact in-simulator representation).
    pub fn resident_bytes(&self) -> u64 {
        self.live() as u64 * PAGE_SIZE
    }

    /// Total allocations performed (monotonic).
    pub fn total_allocated(&self) -> u64 {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::RequestId;

    #[test]
    fn zero_page_reads_zero() {
        let f = FrameData::Zero;
        assert_eq!(f.read_word(0), 0);
        assert_eq!(f.read_word(511), 0);
    }

    #[test]
    fn pattern_deterministic_and_nonzero() {
        let a = FrameData::Pattern(42);
        let b = FrameData::Pattern(42);
        let c = FrameData::Pattern(43);
        assert_eq!(a.read_word(7), b.read_word(7));
        assert_ne!(a.read_word(7), c.read_word(7));
        assert!(a.logical_eq(&b));
        assert!(!a.logical_eq(&c));
    }

    #[test]
    fn word_write_promotes_to_patched() {
        let mut f = FrameData::Zero;
        f.write_word(3, 0xDEAD);
        assert!(matches!(&f, FrameData::Patched(p) if p.is_inline()));
        assert_eq!(f.read_word(3), 0xDEAD);
        assert_eq!(f.read_word(4), 0);
        // Overwrite the same word in place.
        f.write_word(3, 0xBEEF);
        assert_eq!(f.read_word(3), 0xBEEF);
    }

    #[test]
    fn writing_zero_to_zero_page_stays_zero() {
        let mut f = FrameData::Zero;
        f.write_word(0, 0);
        assert_eq!(f, FrameData::Zero);
    }

    #[test]
    fn writing_pattern_value_to_pattern_page_is_noop() {
        let mut f = FrameData::Pattern(9);
        let v = f.read_word(5);
        f.write_word(5, v);
        assert_eq!(f, FrameData::Pattern(9));
    }

    #[test]
    fn too_many_patches_materializes() {
        let mut f = FrameData::Zero;
        for i in 0..=MAX_PATCHES {
            f.write_word(i, i as u64 + 1);
        }
        assert!(matches!(f, FrameData::Literal(_)));
        for i in 0..=MAX_PATCHES {
            assert_eq!(f.read_word(i), i as u64 + 1);
        }
    }

    #[test]
    fn frame_data_is_40_bytes() {
        assert_eq!(std::mem::size_of::<FrameData>(), 40);
    }

    #[test]
    fn two_patches_stay_inline_and_the_third_spills() {
        let mut f = FrameData::Pattern(5);
        f.write_word(9, 1);
        f.write_word(2, 2);
        // Rewriting an existing offset never grows the list.
        f.write_word(9, 3);
        let FrameData::Patched(p) = &f else {
            panic!("expected patches: {f:?}")
        };
        assert!(p.is_inline());
        assert_eq!(p.base(), Some(5));
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![(16, 2), (72, 3)]);
        // A clone of an inline page is equal by representation.
        assert_eq!(f.clone(), f);
        f.write_word(0, 4);
        let FrameData::Patched(p) = &f else {
            panic!("expected patches: {f:?}")
        };
        assert!(!p.is_inline());
        assert_eq!(p.len(), 3);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![(0, 4), (16, 2), (72, 3)]);
        assert_eq!(f.read_word(1), FrameData::Pattern(5).read_word(1));
    }

    #[test]
    fn patched_pattern_roundtrip() {
        let mut f = FrameData::Pattern(7);
        f.write_word(100, 0x1234);
        assert_eq!(f.read_word(100), 0x1234);
        assert_eq!(f.read_word(99), FrameData::Pattern(7).read_word(99));
        let lit = FrameData::Literal(f.materialize());
        assert!(f.logical_eq(&lit));
    }

    #[test]
    #[should_panic(expected = "word index out of page")]
    fn out_of_page_word_panics() {
        FrameData::Zero.read_word(512);
    }

    #[test]
    fn logical_eq_across_representations() {
        let lit = FrameData::Literal(FrameData::Zero.materialize());
        assert!(lit.logical_eq(&FrameData::Zero));
        let mut patched = FrameData::Zero;
        patched.write_word(0, 5);
        patched.write_word(0, 0); // back to zero... but stored as patch
        assert!(patched.logical_eq(&FrameData::Zero));
    }

    #[test]
    fn frame_table_refcounting() {
        let mut t = FrameTable::new();
        let id = t.alloc(FrameData::Zero, Taint::Clean);
        assert_eq!(t.refcount(id), 1);
        assert!(!t.is_shared(id));
        t.incref(id);
        assert!(t.is_shared(id));
        t.decref(id);
        assert_eq!(t.refcount(id), 1);
        t.decref(id);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn frame_slot_reuse() {
        let mut t = FrameTable::new();
        let a = t.alloc(FrameData::Zero, Taint::Clean);
        t.decref(a);
        let b = t.alloc(FrameData::Pattern(1), Taint::Clean);
        assert_eq!(a, b, "slot should be recycled");
        assert_eq!(t.live(), 1);
        assert_eq!(t.total_allocated(), 2);
    }

    #[test]
    fn cow_copy_preserves_contents_and_taint() {
        let mut t = FrameTable::new();
        let taint = Taint::One(RequestId(5));
        let a = t.alloc(FrameData::Pattern(11), taint);
        t.incref(a); // shared between two page tables
        let b = t.cow_copy(a);
        assert_ne!(a, b);
        assert_eq!(t.refcount(a), 1);
        assert_eq!(t.refcount(b), 1);
        assert!(t.data(a).logical_eq(t.data(b)));
        assert_eq!(t.taint(b), taint);
    }

    #[test]
    #[should_panic(expected = "dangling frame id")]
    fn dangling_frame_panics() {
        let mut t = FrameTable::new();
        let id = t.alloc(FrameData::Zero, Taint::Clean);
        t.decref(id);
        let _ = t.data(id);
    }
}
