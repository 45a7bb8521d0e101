//! The pool-shared snapshot store (§5.5 taken fleet-wide).
//!
//! Every container of a function pool holds a clean-state snapshot, and
//! those snapshots are near-identical: the runtime image, the library
//! text, the warmed heap — everything except a handful of pages carrying
//! per-container state (the in-memory runtime clock, allocator
//! bookkeeping). A pool that gives each container a private eager
//! snapshot therefore pays `pool_size ×` the snapshot footprint for data
//! that is overwhelmingly shared.
//!
//! A [`SnapshotStore`] fixes that: it owns one [`FrameTable`] shared by
//! the whole pool. The first container of a function *interns* its
//! clean-state pages, which become the refcounted **base image** for that
//! function. Every subsequent container dedups against the base
//! page-by-page with [`FrameData::logical_eq`]: an equal page takes an
//! [`FrameTable::incref`] on the base frame (no new storage), a differing
//! page allocates a private delta frame. Pool memory then scales with
//! `base + Σ per-container deltas` instead of `pool_size × snapshot`.
//!
//! The store is handed around as a [`StoreHandle`]
//! (`Arc<Mutex<SnapshotStore>>`): containers live on separate simulated
//! kernels, so the store is the one deliberately shared piece of manager
//! state in a pool.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use crate::addr::Vpn;
use crate::frame::{FrameData, FrameId, FrameRuns, FrameTable};
use crate::taint::Taint;

/// Shared handle to a pool's snapshot store.
pub type StoreHandle = Arc<Mutex<SnapshotStore>>;

/// Space-accounting counters of a [`SnapshotStore`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Pages referenced by all live interned snapshots (with multiplicity).
    pub logical_pages: u64,
    /// Pages that dedup'd against an existing base frame (same vpn, same
    /// content).
    pub dedup_hits: u64,
    /// Pages that dedup'd through the content-hash index: identical
    /// content found under a *different* vpn or in another snapshot's
    /// delta — sharing the base-image match would miss.
    pub hash_hits: u64,
    /// Pages that needed their own frame (base establishment or delta).
    pub dedup_misses: u64,
}

/// A function's base image: the first interned snapshot's pages, kept
/// alive for the store's lifetime so later containers can dedup against
/// it even after the founding container retires, plus a content-hash
/// index over every frame ever interned under the key.
#[derive(Debug, Default)]
struct BaseImage {
    pages: BTreeMap<u64, FrameId>,
    /// `FrameData::logical_hash` → candidate frames. Entries are pruned
    /// lazily: a freed delta frame is dropped the next time its bucket
    /// is consulted; a recycled slot is rejected by the `logical_eq`
    /// verification every lookup performs.
    by_hash: HashMap<u64, Vec<FrameId>>,
}

/// A deduplicating, refcounted page store shared by one container pool.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    frames: FrameTable,
    bases: BTreeMap<String, BaseImage>,
    stats: StoreStats,
}

impl SnapshotStore {
    /// Creates an empty store.
    pub fn new() -> SnapshotStore {
        SnapshotStore::default()
    }

    /// Creates an empty store behind a shareable handle.
    pub fn new_handle() -> StoreHandle {
        Arc::new(Mutex::new(SnapshotStore::new()))
    }

    /// Interns one page under `key`'s (already established) image,
    /// returning an owned reference to a store frame with the same
    /// logical contents. Dedup order: the base image's same-vpn frame
    /// first (the overwhelmingly common hit), then the key's
    /// content-hash index — which catches identical content at a
    /// *different* vpn and identical **delta** pages across snapshots —
    /// and only then a fresh allocation. Each step is O(1) in the pool
    /// size: no candidate list grows with the number of snapshots
    /// interned, because equal content keeps hitting the same frame.
    fn intern_page(&mut self, key: &str, vpn: u64, data: &FrameData) -> FrameId {
        self.stats.logical_pages += 1;
        let base = self.bases.get_mut(key).expect("base established");
        if let Some(&id) = base.pages.get(&vpn) {
            if self.frames.data(id).logical_eq(data) {
                self.stats.dedup_hits += 1;
                self.frames.incref(id);
                return id;
            }
        }
        let hash = data.logical_hash();
        if let Some(candidates) = base.by_hash.get_mut(&hash) {
            // Lazily prune freed frames, then verify content: a hash
            // collision or a recycled frame slot fails `logical_eq` and
            // falls through to allocation.
            candidates.retain(|&id| self.frames.is_live(id));
            if let Some(&id) = candidates
                .iter()
                .find(|&&id| self.frames.data(id).logical_eq(data))
            {
                self.stats.hash_hits += 1;
                self.frames.incref(id);
                return id;
            }
        }
        self.stats.dedup_misses += 1;
        let id = self.frames.alloc(data.clone(), Taint::Clean);
        let base = self.bases.get_mut(key).expect("base established");
        base.by_hash.entry(hash).or_default().push(id);
        id
    }

    /// Extends `key`'s base image (creating it if needed) with the
    /// founding container's pages. The base holds one reference per
    /// frame for the store's lifetime; the caller gets a second.
    fn establish_base(
        &mut self,
        key: &str,
        pages: impl Iterator<Item = (u64, FrameData)>,
    ) -> Vec<(u64, FrameId)> {
        self.bases.entry(key.to_string()).or_default();
        let mut refs = Vec::new();
        for (vpn, data) in pages {
            let hash = data.logical_hash();
            let id = self.frames.alloc(data, Taint::Clean);
            self.frames.incref(id);
            let base = self.bases.get_mut(key).expect("just ensured");
            base.pages.insert(vpn, id);
            base.by_hash.entry(hash).or_default().push(id);
            refs.push((vpn, id));
            self.stats.dedup_misses += 1;
            self.stats.logical_pages += 1;
        }
        refs
    }

    /// Interns one container's clean-state pages under the function key
    /// `key`, returning the per-container reference table (vpn → shared
    /// frame). The first call for a key establishes the base image;
    /// later calls dedup page-by-page by logical content — same-vpn
    /// base pages first, then the content-hash index (so identical
    /// delta pages dedup across snapshots too).
    ///
    /// The returned references are owned by the caller and must be given
    /// back via [`SnapshotStore::release`].
    pub fn intern(
        &mut self,
        key: &str,
        pages: &BTreeMap<u64, FrameData>,
    ) -> BTreeMap<u64, FrameId> {
        if !self.bases.contains_key(key) {
            return self
                .establish_base(key, pages.iter().map(|(&v, d)| (v, d.clone())))
                .into_iter()
                .collect();
        }
        pages
            .iter()
            .map(|(&vpn, data)| (vpn, self.intern_page(key, vpn, data)))
            .collect()
    }

    /// Interns a run-based capture by reference: page contents are read
    /// straight out of the process's frame table and copied into the
    /// store only on a dedup miss. Returns the per-container reference
    /// runs (store-table frames), owned by the caller and released via
    /// [`SnapshotStore::release_runs`].
    pub fn intern_refs(
        &mut self,
        key: &str,
        runs: &[(Vpn, Vec<FrameId>)],
        frames: &FrameTable,
    ) -> FrameRuns {
        let established = self.bases.contains_key(key);
        let mut out = Vec::with_capacity(runs.len());
        if !established {
            for (start, ids) in runs {
                let refs = self.establish_base(
                    key,
                    ids.iter()
                        .enumerate()
                        .map(|(i, &id)| (start.0 + i as u64, frames.data(id).clone())),
                );
                out.push((*start, refs.into_iter().map(|(_, id)| id).collect()));
            }
        } else {
            for (start, ids) in runs {
                let refs: Vec<FrameId> = ids
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| self.intern_page(key, start.0 + i as u64, frames.data(id)))
                    .collect();
                out.push((*start, refs));
            }
        }
        FrameRuns::new(out)
    }

    /// Reads an interned page's contents.
    #[inline]
    pub fn data(&self, id: FrameId) -> &FrameData {
        self.frames.data(id)
    }

    /// Releases one container's reference table (the inverse of
    /// [`SnapshotStore::intern`]). Base frames stay resident until the
    /// store itself drops.
    pub fn release(&mut self, refs: &BTreeMap<u64, FrameId>) {
        for &id in refs.values() {
            self.frames.decref(id);
        }
        self.stats.logical_pages = self.stats.logical_pages.saturating_sub(refs.len() as u64);
    }

    /// Releases one container's reference runs (the inverse of
    /// [`SnapshotStore::intern_refs`]).
    pub fn release_runs(&mut self, refs: &mut FrameRuns) {
        let n = refs.total_pages();
        refs.release(&mut self.frames);
        self.stats.logical_pages = self.stats.logical_pages.saturating_sub(n);
    }

    /// The shared frame table (for accounting/tests).
    pub fn frames(&self) -> &FrameTable {
        &self.frames
    }

    /// Space counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Unique resident frames across all interned snapshots.
    pub fn live_frames(&self) -> usize {
        self.frames.live()
    }

    /// Bytes of manager memory the unique frames occupy (one page each).
    pub fn resident_bytes(&self) -> u64 {
        self.frames.resident_bytes()
    }

    /// Deduplication ratio: logical pages referenced by live snapshots per
    /// unique resident frame. `1.0` for an empty store or a pool of one;
    /// approaches the pool size when containers share their whole image.
    pub fn dedup_ratio(&self) -> f64 {
        let live = self.frames.live();
        if live == 0 || self.stats.logical_pages == 0 {
            return 1.0;
        }
        self.stats.logical_pages as f64 / live as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    fn image(seed: u64, pages: u64) -> BTreeMap<u64, FrameData> {
        (0..pages)
            .map(|v| (v, FrameData::Pattern(seed ^ v)))
            .collect()
    }

    #[test]
    fn first_intern_establishes_base() {
        let mut s = SnapshotStore::new();
        let refs = s.intern("f", &image(7, 16));
        assert_eq!(refs.len(), 16);
        assert_eq!(s.live_frames(), 16, "base only, no duplicates");
        assert_eq!(s.stats().logical_pages, 16);
        assert_eq!(s.dedup_ratio(), 1.0, "a pool of one shares nothing");
    }

    #[test]
    fn identical_snapshots_dedup_fully() {
        let mut s = SnapshotStore::new();
        let a = s.intern("f", &image(7, 16));
        let b = s.intern("f", &image(7, 16));
        assert_eq!(s.live_frames(), 16, "second container adds no frames");
        assert_eq!(s.resident_bytes(), 16 * PAGE_SIZE);
        assert!((s.dedup_ratio() - 2.0).abs() < 1e-12);
        for (va, vb) in a.values().zip(b.values()) {
            assert_eq!(va, vb, "shared frames are the same ids");
        }
    }

    #[test]
    fn differing_pages_get_private_deltas() {
        let mut s = SnapshotStore::new();
        s.intern("f", &image(7, 16));
        let mut second = image(7, 16);
        second.insert(3, FrameData::Pattern(999));
        second.insert(20, FrameData::Zero); // page the base never had
        let refs = s.intern("f", &second);
        assert_eq!(refs.len(), 17);
        assert_eq!(s.live_frames(), 18, "base 16 + delta + new page");
        assert_eq!(s.stats().dedup_hits, 15);
    }

    #[test]
    fn distinct_functions_do_not_share() {
        let mut s = SnapshotStore::new();
        s.intern("f", &image(7, 8));
        s.intern("g", &image(7, 8));
        // Same contents but different keys: bases are separate.
        assert_eq!(s.live_frames(), 16);
    }

    #[test]
    fn release_drops_references_but_keeps_base() {
        let mut s = SnapshotStore::new();
        let a = s.intern("f", &image(7, 8));
        let b = s.intern("f", &image(7, 8));
        s.release(&a);
        s.release(&b);
        assert_eq!(s.live_frames(), 8, "the base image stays resident");
        assert_eq!(s.stats().logical_pages, 0);
        assert_eq!(s.dedup_ratio(), 1.0);
    }

    #[test]
    fn identical_deltas_dedup_across_snapshots_via_hash() {
        let mut s = SnapshotStore::new();
        s.intern("f", &image(7, 16));
        // Two later containers carry the same delta page (a per-container
        // value that happens to repeat): the second must share the
        // first's delta frame through the content-hash index.
        let mut second = image(7, 16);
        second.insert(3, FrameData::Pattern(999));
        let mut third = image(7, 16);
        third.insert(3, FrameData::Pattern(999));
        s.intern("f", &second);
        let live_after_second = s.live_frames();
        s.intern("f", &third);
        assert_eq!(
            s.live_frames(),
            live_after_second,
            "the repeated delta must not allocate again"
        );
        assert_eq!(s.stats().hash_hits, 1);
        // And the dedup ratio reflects the cross-snapshot sharing.
        // 48 logical pages over 16 base + 1 delta frames.
        assert!(s.dedup_ratio() > 2.8, "3 containers share ~everything");
    }

    #[test]
    fn hash_dedup_catches_content_moved_to_another_vpn() {
        let mut s = SnapshotStore::new();
        s.intern("f", &image(7, 8));
        // The second container has page 3's content at vpn 100 (e.g. the
        // allocator placed the same object elsewhere).
        let mut moved = image(7, 8);
        moved.remove(&3);
        moved.insert(100, FrameData::Pattern(7 ^ 3));
        let refs = s.intern("f", &moved);
        assert_eq!(s.live_frames(), 8, "moved content shares the base frame");
        assert_eq!(refs[&100], s.intern("f", &image(7, 8))[&3]);
        assert_eq!(s.stats().hash_hits, 1);
    }

    #[test]
    fn freed_delta_frames_are_pruned_from_the_hash_index() {
        let mut s = SnapshotStore::new();
        s.intern("f", &image(7, 4));
        let mut with_delta = image(7, 4);
        with_delta.insert(9, FrameData::Pattern(42));
        let refs = s.intern("f", &with_delta);
        let live = s.live_frames();
        s.release(&refs); // delta frame freed (only the caller held it)
        assert_eq!(s.live_frames(), live - 1);
        // Interning the same delta again must allocate a fresh frame —
        // the stale index entry is pruned, not resurrected.
        let refs2 = s.intern("f", &with_delta);
        assert!(s.frames().is_live(refs2[&9]));
        assert!(s.data(refs2[&9]).logical_eq(&FrameData::Pattern(42)));
    }

    #[test]
    fn intern_refs_matches_intern() {
        let mut table = FrameTable::new();
        let ids: Vec<crate::frame::FrameId> = (0..8u64)
            .map(|v| table.alloc(FrameData::Pattern(7 ^ v), crate::taint::Taint::Clean))
            .collect();
        let runs = vec![(crate::addr::Vpn(0), ids)];
        let mut s = SnapshotStore::new();
        let a = s.intern_refs("f", &runs, &table);
        assert_eq!(a.total_pages(), 8);
        assert_eq!(s.live_frames(), 8);
        // A second, identical capture dedups fully.
        let mut b = s.intern_refs("f", &runs, &table);
        assert_eq!(s.live_frames(), 8);
        assert_eq!(s.stats().dedup_hits, 8);
        for (vpn, id) in b.iter() {
            assert!(s.data(id).logical_eq(&FrameData::Pattern(7 ^ vpn.0)));
        }
        s.release_runs(&mut b);
        assert_eq!(s.stats().logical_pages, 8);
    }

    #[test]
    fn data_resolves_logical_contents() {
        let mut s = SnapshotStore::new();
        let refs = s.intern("f", &image(3, 4));
        for (&vpn, &id) in &refs {
            assert!(s.data(id).logical_eq(&FrameData::Pattern(3 ^ vpn)));
        }
    }
}
