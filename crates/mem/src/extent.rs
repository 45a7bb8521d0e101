//! The extent-based page table.
//!
//! Instead of one map entry per present page, [`PageTable`] keeps
//! *extents*: maximal runs of contiguous present pages sharing one
//! [`PteFlags`] value, held in **one sorted `Vec`**. Frames stay
//! per-page (each page owns its refcounted frame), stored in flat
//! 512-page chunks so extent splits and merges never copy frame arrays.
//!
//! Why extents: between two tracker re-arms, the flag state of a
//! function process is "everything armed, except the D pages it
//! dirtied" — a handful of extents plus `O(D)` splits. Every whole-table
//! flag transform (`clear_refs`, uffd arm/disarm, CoW marking) is
//! therefore `O(extents)` instead of `O(present)`, and capture walks
//! `O(extents)` runs instead of `O(present)` map entries.
//!
//! Why a flat table: at tens to a few hundred extents, contiguous
//! memory beats a tree on every operation the simulator runs. A lookup
//! is one binary search; a flag transform compacts the vector in place;
//! and every other mutation goes through one edit fold
//! ([`PageTable::fold`]): a merge of the sorted edit runs with the
//! overlapped window of old extents, then one `splice`. The price is
//! that a point edit moves the table's tail, so nothing edits page by
//! page: [`PageTable::walk`] — the one per-page mutator, behind every
//! touch batch, single touch, restore writeback, lazy install and
//! privileged poke — resolves an ascending sequence of page visits in
//! one cursor walk and folds its edits once, and
//! [`PageTable::remove_ranges`] evicts many ranges in one fold. A read
//! span only reads flags, through the same forward cursor
//! ([`PageTable::cursor`]).
//!
//! The frame chunks live in a hash map keyed by `vpn / 512`. The walk
//! and `remove_ranges` probe it once per 512-page window, not per page
//! or per run: the window stays open across every visit or range that
//! falls inside it. The keys are integers the table computes itself, so
//! they hash with one multiply instead of SipHash.
//!
//! Invariants (checked by `AddressSpace::check_invariants`):
//! - extents are sorted, non-empty and non-overlapping;
//! - no two adjacent extents have equal flags (maximality);
//! - every page inside an extent has a frame slot in its chunk, chunk
//!   occupancy equals the number of covering extent pages, and no chunk
//!   is empty.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{PageRange, Vpn};
use crate::frame::FrameId;
use crate::pte::{Pte, PteFlags};

/// What [`PageTable::walk`] does with one visited page, decided by the
/// fault, restore or lazy-install logic in `space.rs`.
pub(crate) enum BatchDecision {
    /// Leave the page as it is (a touch that errored, or a poke of an
    /// absent page).
    Skip,
    /// Give the page this frame and these flags: installs an absent page
    /// (minor fault, writeback, lazy install), or updates a present one,
    /// whose frame may be replaced (CoW copy, unshare, shared install)
    /// and whose flags may stay as they were.
    Set { frame: FrameId, flags: PteFlags },
}

/// Pages per frame chunk.
const CHUNK_PAGES: u64 = 512;

/// Metadata of one extent (the frames live in the chunk store).
#[derive(Clone, Copy, Debug)]
struct ExtentMeta {
    /// Pages in the run.
    len: u64,
    /// Uniform flags of every page in the run.
    flags: PteFlags,
}

/// One run of a sorted edit list: its pages take `flags`, or leave the
/// table when `flags` is `None`.
#[derive(Clone, Copy, Debug)]
struct Edit {
    start: u64,
    len: u64,
    flags: Option<PteFlags>,
}

/// Accumulates page edits in address order, merging adjacent equal
/// pushes into one run.
struct RunBuilder<'a> {
    runs: &'a mut Vec<Edit>,
}

impl RunBuilder<'_> {
    #[inline]
    fn push(&mut self, start: u64, flags: PteFlags) {
        if let Some(last) = self.runs.last_mut() {
            debug_assert!(last.start + last.len <= start, "out-of-order edit push");
            if last.start + last.len == start && last.flags == Some(flags) {
                last.len += 1;
                return;
            }
        }
        self.runs.push(Edit {
            start,
            len: 1,
            flags: Some(flags),
        });
    }

    /// Re-flags the most recently pushed page (a duplicate batch item
    /// revising its own earlier decision).
    fn amend_last_page(&mut self, flags: PteFlags) {
        let last = self.runs.last_mut().expect("amend on empty builder");
        if last.flags == Some(flags) {
            return;
        }
        let vpn = last.start + last.len - 1;
        if last.len == 1 {
            self.runs.pop();
        } else {
            last.len -= 1;
        }
        self.push(vpn, flags);
    }
}

/// Appends an extent to an ascending output, merging it into the last
/// one when adjacent with equal flags — output built this way is
/// maximal by construction.
#[inline]
fn push_extent(out: &mut Vec<(u64, ExtentMeta)>, start: u64, len: u64, flags: PteFlags) {
    if let Some((ls, lm)) = out.last_mut() {
        debug_assert!(*ls + lm.len <= start, "out-of-order extent push");
        if *ls + lm.len == start && lm.flags == flags {
            lm.len += len;
            return;
        }
    }
    out.push((start, ExtentMeta { len, flags }));
}

/// Forward cursor over the sorted extents, resolving ascending vpns to
/// their flags in amortized `O(1)` (the walks never look back).
pub(crate) struct Cursor<'a> {
    extents: &'a [(u64, ExtentMeta)],
    /// Index of the next extent not yet passed.
    next: usize,
    /// `(start, end, flags)` of the most recently passed extent.
    cur: Option<(u64, u64, PteFlags)>,
}

impl<'a> Cursor<'a> {
    /// A cursor positioned for `vpn` and anything above it.
    fn seek(extents: &'a [(u64, ExtentMeta)], vpn: u64) -> Cursor<'a> {
        Cursor {
            extents,
            next: extents.partition_point(|&(s, m)| s + m.len <= vpn),
            cur: None,
        }
    }

    /// Flags of `vpn` (`None` when absent); `vpn` must not be below
    /// the previous query.
    #[inline]
    fn flags(&mut self, vpn: u64) -> Option<PteFlags> {
        self.extent(vpn).map(|(_, f)| f)
    }

    /// End and flags of the extent holding `vpn` (`None` when absent);
    /// `vpn` must not be below the previous query.
    #[inline]
    pub(crate) fn extent(&mut self, vpn: u64) -> Option<(u64, PteFlags)> {
        // Hot path: the cached extent still covers vpn (typical for
        // dense sweeps) — no advance.
        if let Some((s, e, f)) = self.cur {
            if vpn >= s && vpn < e {
                return Some((e, f));
            }
        }
        while let Some(&(s, m)) = self.extents.get(self.next) {
            if s > vpn {
                break;
            }
            self.cur = Some((s, s + m.len, m.flags));
            self.next += 1;
        }
        self.cur
            .filter(|&(s, e, _)| vpn >= s && vpn < e)
            .map(|(_, e, f)| (e, f))
    }
}

/// A 512-page frame chunk.
#[derive(Clone, Debug)]
struct Chunk {
    /// Occupied slots (pages covered by some extent).
    used: u32,
    /// Frame per page slot; slots outside extents are garbage.
    frames: Box<[FrameId; CHUNK_PAGES as usize]>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            used: 0,
            frames: Box::new([FrameId(u64::MAX); CHUNK_PAGES as usize]),
        }
    }
}

/// Hashes a chunk key (`vpn / 512`, an integer the table computes
/// itself, so it needs no flood resistance) with one multiply by the
/// 64-bit golden ratio: the product's high bits mix every key bit, and
/// consecutive keys keep distinct low bits.
#[derive(Clone, Copy, Debug, Default)]
struct ChunkKeyHasher(u64);

impl Hasher for ChunkKeyHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Chunk keys are `u64`s and hash through `write_u64`; this
        // fallback only keeps the hasher total.
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Frame chunks keyed by `vpn / 512`.
type ChunkMap = HashMap<u64, Chunk, BuildHasherDefault<ChunkKeyHasher>>;

/// The chunk `key`, created empty when absent, and whether it existed —
/// one map probe.
#[inline]
fn chunk_entry(chunks: &mut ChunkMap, key: u64) -> (&mut Chunk, bool) {
    match chunks.entry(key) {
        Entry::Occupied(e) => (e.into_mut(), true),
        Entry::Vacant(e) => (e.insert(Chunk::new()), false),
    }
}

/// Extent-based page table: flag extents + chunked per-page frames.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageTable {
    /// Extents as `(start vpn, meta)`, sorted by start.
    extents: Vec<(u64, ExtentMeta)>,
    /// Frame storage, keyed by `vpn / 512`.
    chunks: ChunkMap,
    /// Present pages (Σ extent lens).
    present: u64,
}

thread_local! {
    /// Edit runs of the thread's last bulk walk, kept for its next one
    /// (every page table on the thread shares it, so the retained
    /// memory does not grow with the number of processes).
    static EDITS: Cell<Vec<Edit>> = const { Cell::new(Vec::new()) };
    /// Merge output of the thread's last fold, kept likewise.
    static MERGED: Cell<Vec<(u64, ExtentMeta)>> = const { Cell::new(Vec::new()) };
}

impl PageTable {
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Present pages.
    pub fn len(&self) -> u64 {
        self.present
    }

    /// Number of extents.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// A forward flag cursor positioned for `vpn` and anything above it
    /// (one binary search; each later query is a cursor step).
    pub(crate) fn cursor(&self, vpn: u64) -> Cursor<'_> {
        Cursor::seek(&self.extents, vpn)
    }

    /// The extent containing `vpn`, as `(start, len, flags)`.
    fn extent_at(&self, vpn: u64) -> Option<(u64, ExtentMeta)> {
        let i = self.extents.partition_point(|&(s, _)| s <= vpn);
        let (s, m) = *self.extents.get(i.checked_sub(1)?)?;
        (vpn < s + m.len).then_some((s, m))
    }

    /// Frame of `vpn`, assuming it is present.
    fn frame_slot(&self, vpn: u64) -> FrameId {
        self.chunks[&(vpn / CHUNK_PAGES)].frames[(vpn % CHUNK_PAGES) as usize]
    }

    /// The PTE of `vpn`, by value.
    pub fn get(&self, vpn: Vpn) -> Option<Pte> {
        self.extent_at(vpn.0).map(|(_, m)| Pte {
            frame: self.frame_slot(vpn.0),
            flags: m.flags,
        })
    }

    /// True when `vpn` is present.
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.extent_at(vpn.0).is_some()
    }

    /// Removes every present page of `ranges` (sorted, disjoint),
    /// passing each freed frame to `f` in ascending page order. One
    /// cursor pass frees the slots — one chunk probe per 512-page window,
    /// shared by every range inside it — and one fold edits the extents:
    /// `O(log E + affected extents + windows + removed pages)` plus one
    /// `splice`.
    pub fn remove_ranges(&mut self, ranges: &[PageRange], mut f: impl FnMut(Vpn, FrameId)) {
        debug_assert!(
            ranges.windows(2).all(|w| w[0].end <= w[1].start),
            "remove_ranges requires sorted, disjoint ranges"
        );
        let PageTable {
            extents,
            chunks,
            present,
        } = self;
        let mut edits = EDITS.take();
        edits.clear();
        edits.extend(ranges.iter().filter(|r| !r.is_empty()).map(|r| Edit {
            start: r.start.0,
            len: r.len(),
            flags: None,
        }));
        // The present pages to remove, as ascending `[lo, hi)` cuts: each
        // range intersected with the extents overlapping it.
        let mut i = 0usize;
        let mut cuts = edits.iter().flat_map(|e| {
            let (lo, hi) = (e.start, e.start + e.len);
            // Extents overlapping the range, from the first ending above it.
            i += extents[i..].partition_point(|&(s, m)| s + m.len <= lo);
            extents[i..]
                .iter()
                .take_while(move |&&(s, _)| s < hi)
                .map(move |&(s, m)| (s.max(lo), (s + m.len).min(hi)))
        });
        let mut next = cuts.next();
        while let Some(cut) = next {
            let key = cut.0 / CHUNK_PAGES;
            let w_end = (key + 1) * CHUNK_PAGES;
            let chunk = chunks.get_mut(&key).expect("slot chunk");
            let mut cur = cut;
            // Every cut (or part of one) inside this window, then the
            // first one beyond it.
            next = loop {
                let end = cur.1.min(w_end);
                for vpn in cur.0..end {
                    f(Vpn(vpn), chunk.frames[(vpn % CHUNK_PAGES) as usize]);
                }
                chunk.used -= (end - cur.0) as u32;
                *present -= end - cur.0;
                if end < cur.1 {
                    break Some((end, cur.1));
                }
                match cuts.next() {
                    Some(c) if c.0 < w_end => cur = c,
                    beyond => break beyond,
                }
            };
            if chunk.used == 0 {
                chunks.remove(&key);
            }
        }
        self.fold(&edits);
        EDITS.set(edits);
    }

    /// Applies `f` to every extent's flags, then restores maximality by
    /// merging adjacent equal-flag extents — one in-place compaction,
    /// `O(extents)`, no allocation.
    pub fn transform_flags(&mut self, mut f: impl FnMut(PteFlags) -> PteFlags) {
        let ext = &mut self.extents;
        let mut kept = 0usize;
        for i in 0..ext.len() {
            let (start, mut meta) = ext[i];
            meta.flags = f(meta.flags);
            if let Some((ls, lm)) = kept.checked_sub(1).map(|k| &mut ext[k]) {
                if *ls + lm.len == start && lm.flags == meta.flags {
                    lm.len += meta.len;
                    continue;
                }
            }
            ext[kept] = (start, meta);
            kept += 1;
        }
        ext.truncate(kept);
    }

    /// Iterates `(range, flags)` extents in address order.
    pub fn extents(&self) -> impl Iterator<Item = (PageRange, PteFlags)> + '_ {
        self.extents
            .iter()
            .map(|&(s, m)| (PageRange::new(Vpn(s), Vpn(s + m.len)), m.flags))
    }

    /// Appends the present pages, coalesced into maximal runs
    /// irrespective of flags, to `out`. `O(extents)`.
    pub fn present_runs_into(&self, out: &mut Vec<PageRange>) {
        for (range, _) in self.extents() {
            match out.last_mut() {
                Some(last) if last.end == range.start => last.end = range.end,
                _ => out.push(range),
            }
        }
    }

    /// Iterates `(vpn, pte)` over present pages in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.extents.iter().flat_map(move |&(s, m)| {
            (s..s + m.len).map(move |v| {
                (
                    Vpn(v),
                    Pte {
                        frame: self.frame_slot(v),
                        flags: m.flags,
                    },
                )
            })
        })
    }

    /// Appends the frames of the present pages of `range` (which must be
    /// fully present) to `out`, in address order. Chunk-wise: one
    /// `HashMap` probe per touched 512-page window instead of one per
    /// page, and each window lands via `extend_from_slice`, so a
    /// 2 MiB-aligned window is one memcpy of a whole chunk slice — the
    /// capture fast path.
    pub fn frames_in_into(&self, range: PageRange, out: &mut Vec<FrameId>) {
        let (lo, hi) = (range.start.0, range.end.0);
        if hi <= lo {
            return;
        }
        out.reserve((hi - lo) as usize);
        for key in lo / CHUNK_PAGES..(hi - 1) / CHUNK_PAGES + 1 {
            let w_lo = (key * CHUNK_PAGES).max(lo);
            let w_hi = ((key + 1) * CHUNK_PAGES).min(hi);
            out.extend_from_slice(
                &self.chunks[&key].frames
                    [(w_lo % CHUNK_PAGES) as usize..((w_hi - 1) % CHUNK_PAGES + 1) as usize],
            );
        }
    }

    /// One ordered walk over a sequence of page visits: the table's one
    /// per-page mutator, behind every touch, restore writeback, lazy
    /// install and privileged poke.
    ///
    /// `visits` yields `(vpn, visit)` pairs in ascending vpn order. A vpn
    /// may repeat, and each repeat sees the state its previous decision
    /// left. For every visit, in order, `decide` sees the vpn, the visit
    /// and the page's current `(frame, flags)` (`None` when absent) and
    /// returns a [`BatchDecision`]. Two phases keep the cost at
    /// `O(visits + changed extents)` instead of `O(visits × log
    /// extents)`:
    ///
    /// 1. a **read-only cursor walk** over the extents (one binary search
    ///    seeds it; no per-visit search) resolving every visit; frame
    ///    slots are written in place with one `HashMap` probe per
    ///    512-page window, shared by every visit inside it; pages whose
    ///    *flags* change (or that are inserted) are recorded as sorted
    ///    edit runs;
    /// 2. one **edit fold** ([`PageTable::fold`]): no edits (a warm
    ///    batch or an in-place writeback, the steady-state common cases)
    ///    leave the extents untouched; otherwise one merge over the
    ///    edited window and one `splice`.
    ///
    /// State outcomes are identical to applying the decisions one page
    /// at a time.
    pub(crate) fn walk<V>(
        &mut self,
        visits: impl IntoIterator<Item = (u64, V)>,
        mut decide: impl FnMut(u64, V, Option<(FrameId, PteFlags)>) -> BatchDecision,
    ) {
        let mut visits = visits.into_iter().peekable();
        let Some(&(first, _)) = visits.peek() else {
            return;
        };
        let PageTable {
            extents,
            chunks,
            present,
        } = self;

        // ---- Phase 1: read-only resolution ----
        let mut cursor = Cursor::seek(extents, first);
        // Pages whose flags changed or that were inserted, as maximal
        // sorted runs. Everything else leaves the extents untouched.
        let mut edit_runs = EDITS.take();
        edit_runs.clear();
        let mut edits = RunBuilder {
            runs: &mut edit_runs,
        };
        // Duplicate-vpn carry: the previous visit's vpn, resulting page
        // state, and whether that page already has an edit run as the
        // builder's last page (drives `amend_last_page`).
        type DupCarry = (u64, Option<(FrameId, PteFlags)>, bool);
        let mut last: Option<DupCarry> = None;
        let mut prev = first;
        while let Some(&(vpn, _)) = visits.peek() {
            let key = vpn / CHUNK_PAGES;
            // One chunk probe per visited 512-page window. A window of
            // skipped visits over an absent chunk creates and removes an
            // empty chunk — rare and cheap.
            let (chunk, existed) = chunk_entry(chunks, key);
            while let Some((vpn, visit)) = visits.next_if(|&(v, _)| v / CHUNK_PAGES == key) {
                debug_assert!(prev <= vpn, "walk requires ascending vpns");
                prev = vpn;
                let slot = (vpn % CHUNK_PAGES) as usize;
                // `last` only matters across duplicate-vpn neighbours
                // (same vpn ⇒ same window), so it is maintained only
                // around them — the common all-distinct walk never
                // writes it.
                let next_same = visits.peek().is_some_and(|&(n, _)| n == vpn);
                let (cur, was_edited) = match last {
                    Some((lv, state, edited)) if lv == vpn => (state, edited),
                    _ => (cursor.flags(vpn).map(|f| (chunk.frames[slot], f)), false),
                };
                let (state, edited) = match (decide(vpn, visit, cur), cur) {
                    (BatchDecision::Skip, _) => (cur, was_edited),
                    (BatchDecision::Set { frame, flags }, None) => {
                        chunk.frames[slot] = frame;
                        chunk.used += 1;
                        *present += 1;
                        edits.push(vpn, flags);
                        (Some((frame, flags)), true)
                    }
                    (BatchDecision::Set { frame, flags }, Some((old_frame, old_flags))) => {
                        if frame != old_frame {
                            chunk.frames[slot] = frame;
                        }
                        let changed = flags != old_flags;
                        if was_edited {
                            // Duplicate revising its own earlier edit.
                            edits.amend_last_page(flags);
                        } else if changed {
                            edits.push(vpn, flags);
                        }
                        (Some((frame, flags)), was_edited || changed)
                    }
                };
                if next_same {
                    last = Some((vpn, state, edited));
                }
            }
            if chunk.used == 0 && !existed {
                chunks.remove(&key);
            }
        }

        // ---- Phase 2: fold the edits into the extents ----
        self.fold(&edit_runs);
        EDITS.set(edit_runs);
    }

    /// Folds sorted, disjoint edit runs into the extents: every page of
    /// an edit takes the edit's flags (joining the table if absent; its
    /// frame slot must already be filled) or leaves the table (`None`).
    ///
    /// One merge pass over the window of old extents the edits span —
    /// widened by one extent on each side when it touches the window,
    /// so equal-flag neighbours re-merge through the same ascending
    /// push and the result stays maximal — then one `splice` of the
    /// merged window. `O(log E + window + edits)` plus the tail move
    /// when the extent count changes.
    fn fold(&mut self, edits: &[Edit]) {
        let (Some(first), Some(last)) = (edits.first(), edits.last()) else {
            return; // warm batch: the extents are untouched
        };
        let (w_lo, w_hi) = (first.start, last.start + last.len);
        let extents = &mut self.extents;
        let mut merged = MERGED.take();
        let out = &mut merged;
        // Old extents ending at or above w_lo and starting at or below
        // w_hi: everything overlapping the window plus touching
        // neighbours.
        let lo = extents.partition_point(|&(s, m)| s + m.len < w_lo);
        let hi = lo + extents[lo..].partition_point(|&(s, _)| s <= w_hi);
        let window = &extents[lo..hi];

        out.clear();
        // `i` indexes the next uncopied old extent; pages of it below
        // `from` were already replaced by an edit.
        let mut i = 0usize;
        let mut from = 0u64;
        for e in edits {
            let e_end = e.start + e.len;
            // Copy old coverage below the edit.
            while let Some(&(s, m)) = window.get(i) {
                let a = s.max(from);
                if a >= e.start {
                    break;
                }
                let end = s + m.len;
                push_extent(out, a, end.min(e.start) - a, m.flags);
                if end > e.start {
                    break; // laps into the edit: resume past it
                }
                i += 1;
            }
            if let Some(flags) = e.flags {
                push_extent(out, e.start, e.len, flags);
            }
            // Drop old coverage the edit replaced.
            from = e_end;
            while window.get(i).is_some_and(|&(s, m)| s + m.len <= e_end) {
                i += 1;
            }
        }
        for &(s, m) in &window[i..] {
            let a = s.max(from);
            push_extent(out, a, s + m.len - a, m.flags);
        }
        extents.splice(lo..hi, out.drain(..));
        MERGED.set(merged);
    }

    /// Structural self-check: sorted, disjoint, non-empty, maximal
    /// extents; chunk occupancy matches extent coverage, and no chunk is
    /// empty.
    pub fn check(&self) -> Result<(), String> {
        let mut prev: Option<(u64, ExtentMeta)> = None;
        let mut covered = 0u64;
        for &(start, meta) in &self.extents {
            if meta.len == 0 {
                return Err(format!("empty extent at {start:#x}"));
            }
            if let Some((ps, pm)) = prev {
                let pend = ps + pm.len;
                if start < pend {
                    return Err(format!("overlapping or unsorted extents at {start:#x}"));
                }
                if start == pend && pm.flags == meta.flags {
                    return Err(format!(
                        "adjacent mergeable extents at {start:#x} ({:?})",
                        meta.flags
                    ));
                }
            }
            covered += meta.len;
            prev = Some((start, meta));
        }
        if covered != self.present {
            return Err(format!(
                "present count {} != extent coverage {covered}",
                self.present
            ));
        }
        if self.chunks.values().any(|c| c.used == 0) {
            return Err("empty frame chunk".to_string());
        }
        let chunk_used: u64 = self.chunks.values().map(|c| c.used as u64).sum();
        if chunk_used != self.present {
            return Err(format!(
                "chunk occupancy {chunk_used} != present {}",
                self.present
            ));
        }
        for &(start, meta) in &self.extents {
            for v in start..start + meta.len {
                let Some(chunk) = self.chunks.get(&(v / CHUNK_PAGES)) else {
                    return Err(format!("page {v:#x} has no frame chunk"));
                };
                if chunk.frames[(v % CHUNK_PAGES) as usize] == FrameId(u64::MAX) {
                    return Err(format!("page {v:#x} has no frame slot"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(bits: u8) -> PteFlags {
        PteFlags(bits).with(PteFlags::PRESENT)
    }

    /// Installs absent `vpn` with frame `vpn` and `flags`: a one-visit
    /// walk.
    fn insert(t: &mut PageTable, vpn: u64, flags: PteFlags) {
        t.walk([(vpn, ())], |_, (), cur| {
            assert!(cur.is_none(), "inserting a present page");
            BatchDecision::Set {
                frame: FrameId(vpn),
                flags,
            }
        });
    }

    /// Sets the flags of present `vpn`, keeping its frame.
    fn set_flags(t: &mut PageTable, vpn: u64, flags: PteFlags) {
        t.walk([(vpn, ())], |_, (), cur| BatchDecision::Set {
            frame: cur.expect("present page").0,
            flags,
        });
    }

    /// Removes `vpn`, returning its frame.
    fn remove(t: &mut PageTable, vpn: u64) -> Option<FrameId> {
        let mut freed = None;
        t.remove_ranges(&[PageRange::at(Vpn(vpn), 1)], |_, f| freed = Some(f));
        freed
    }

    #[test]
    fn insert_merges_into_maximal_extents() {
        let mut t = PageTable::new();
        for v in [10u64, 12, 11, 9, 13] {
            insert(&mut t, v, flags(0));
            t.check().unwrap();
        }
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(Vpn(12)).unwrap().frame, FrameId(12));
        assert!(t.get(Vpn(14)).is_none());
    }

    #[test]
    fn differing_flags_do_not_merge() {
        let mut t = PageTable::new();
        insert(&mut t, 5, flags(0));
        insert(&mut t, 6, flags(2));
        insert(&mut t, 7, flags(0));
        assert_eq!(t.extent_count(), 3);
        t.check().unwrap();
    }

    #[test]
    fn set_flags_splits_and_remerges() {
        let mut t = PageTable::new();
        for v in 0..10u64 {
            insert(&mut t, v, flags(0));
        }
        set_flags(&mut t, 4, flags(2));
        assert_eq!(t.extent_count(), 3);
        t.check().unwrap();
        set_flags(&mut t, 5, flags(2));
        assert_eq!(t.extent_count(), 3, "adjacent changed pages merge");
        t.check().unwrap();
        set_flags(&mut t, 4, flags(0));
        set_flags(&mut t, 5, flags(0));
        assert_eq!(t.extent_count(), 1, "restoring flags restores one run");
        t.check().unwrap();
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn remove_splits() {
        let mut t = PageTable::new();
        for v in 0..8u64 {
            insert(&mut t, v, flags(0));
        }
        assert_eq!(remove(&mut t, 3), Some(FrameId(3)));
        assert_eq!(t.extent_count(), 2);
        assert_eq!(t.len(), 7);
        assert!(t.get(Vpn(3)).is_none());
        t.check().unwrap();
        assert_eq!(remove(&mut t, 3), None);
    }

    #[test]
    fn remove_range_frees_exactly() {
        let mut t = PageTable::new();
        for v in 0..40u64 {
            if v != 10 {
                insert(&mut t, v, flags((v / 8) as u8 & 2));
            }
        }
        let mut freed = Vec::new();
        let ranges = [
            PageRange::new(Vpn(5), Vpn(15)),
            PageRange::new(Vpn(15), Vpn(17)),
            PageRange::new(Vpn(30), Vpn(45)),
        ];
        t.remove_ranges(&ranges, |v, f| freed.push((v.0, f.0)));
        let expect: Vec<(u64, u64)> = (5..17)
            .chain(30..40)
            .filter(|&v| v != 10)
            .map(|v| (v, v))
            .collect();
        assert_eq!(freed, expect, "ascending, present pages only");
        assert_eq!(t.len(), 40 - 1 - expect.len() as u64);
        t.check().unwrap();
        let vpns: Vec<u64> = t.iter().map(|(v, _)| v.0).collect();
        assert_eq!(vpns, (0..5).chain(17..30).collect::<Vec<_>>());
    }

    #[test]
    fn transform_collapses_fragmentation() {
        let mut t = PageTable::new();
        for v in 0..100u64 {
            insert(&mut t, v, flags(0));
        }
        for v in (0..100u64).step_by(7) {
            set_flags(&mut t, v, flags(2));
        }
        assert!(t.extent_count() > 20);
        t.transform_flags(|f| f.without(PteFlags(2)).with(PteFlags(4)));
        assert_eq!(t.extent_count(), 1, "uniform flags collapse to one run");
        t.check().unwrap();
    }

    #[test]
    fn walk_spans_runs_and_chunks() {
        let mut t = PageTable::new();
        // Present [500, 520) armed, absent 520..530, present [530, 540).
        for v in (500..520u64).chain(530..540) {
            insert(&mut t, v, flags(4));
        }
        let runs = [
            PageRange::new(Vpn(505), Vpn(515)),
            PageRange::new(Vpn(515), Vpn(525)),
            PageRange::new(Vpn(535), Vpn(536)),
        ];
        let mut seen = Vec::new();
        let visits = runs.iter().flat_map(|r| r.iter()).map(|v| (v.0, ()));
        t.walk(visits, |vpn, (), cur| {
            seen.push(vpn);
            BatchDecision::Set {
                frame: FrameId(cur.map_or(vpn, |(f, _)| f.0) + 1000),
                flags: flags(0),
            }
        });
        assert_eq!(
            seen,
            (505..525).chain(535..536).collect::<Vec<_>>(),
            "every page of every run, ascending, across the chunk boundary at 512"
        );
        t.check().unwrap();
        assert_eq!(t.len(), 35);
        assert_eq!(t.get(Vpn(520)).unwrap().frame, FrameId(1520));
        assert_eq!(t.get(Vpn(504)).unwrap().flags, flags(4));
        let ext: Vec<_> = t.extents().map(|(r, f)| (r.start.0, r.end.0, f)).collect();
        assert_eq!(
            ext,
            vec![
                (500, 505, flags(4)),
                (505, 525, flags(0)),
                (530, 535, flags(4)),
                (535, 536, flags(0)),
                (536, 540, flags(4)),
            ]
        );
    }

    #[test]
    fn iteration_and_runs() {
        let mut t = PageTable::new();
        for v in [1u64, 2, 3, 7, 8, 600] {
            t.walk([(v, ())], |_, (), _| BatchDecision::Set {
                frame: FrameId(v * 10),
                flags: flags(0),
            });
        }
        set_flags(&mut t, 2, flags(2));
        let vpns: Vec<u64> = t.iter().map(|(v, _)| v.0).collect();
        assert_eq!(vpns, vec![1, 2, 3, 7, 8, 600]);
        let mut runs = Vec::new();
        t.present_runs_into(&mut runs);
        assert_eq!(
            runs,
            vec![
                PageRange::new(Vpn(1), Vpn(4)),
                PageRange::new(Vpn(7), Vpn(9)),
                PageRange::new(Vpn(600), Vpn(601))
            ],
            "presence runs ignore flag splits"
        );
        let mut frames = Vec::new();
        t.frames_in_into(PageRange::new(Vpn(7), Vpn(9)), &mut frames);
        assert_eq!(frames.iter().map(|f| f.0).collect::<Vec<_>>(), vec![70, 80]);
    }
}
