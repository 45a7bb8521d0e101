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
//! Interning ([`SnapshotStore::intern_refs`]) works on runs, the shape
//! the snapshotter captures. A call looks its function key up once. The
//! base image is the founding capture's [`FrameRuns`] — the frame ids
//! that capture's caller got back — so establishing it is one pass over
//! the runs with no per-page map. A later capture dedups by walking a
//! [`FrameRunsCursor`](crate::frame::FrameRunsCursor) forward over the
//! base's runs alongside its own ascending pages, comparing contents in
//! place; a page the base lacks at that vpn, or holds with other
//! contents, falls back to the key's content-hash index.
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// A function's base image: the founding capture's store frames, kept
/// alive for the store's lifetime so later containers can dedup against
/// them even after the founding container retires, plus a content-hash
/// index over every frame ever interned under the key.
#[derive(Debug)]
struct BaseImage {
    /// The founding capture's runs: the same frame ids its caller got
    /// back, each holding one extra reference for the base.
    pages: FrameRuns,
    /// `FrameData::logical_hash` → candidate frames.
    by_hash: HashIndex,
}

/// Content-hash index of one key's frames. Entries are pruned lazily: a
/// freed delta frame is dropped the next time its bucket is consulted;
/// a recycled slot is rejected by the `logical_eq` verification every
/// lookup performs.
#[derive(Debug, Default)]
struct HashIndex(HashMap<u64, Vec<FrameId>>);

impl HashIndex {
    /// A live frame of `frames` whose contents equal `data`, among those
    /// indexed under `hash`.
    fn find(&mut self, hash: u64, data: &FrameData, frames: &FrameTable) -> Option<FrameId> {
        let candidates = self.0.get_mut(&hash)?;
        // Prune freed frames, then verify content: a hash collision or a
        // recycled frame slot fails `logical_eq`.
        candidates.retain(|&id| frames.is_live(id));
        candidates
            .iter()
            .copied()
            .find(|&id| frames.data(id).logical_eq(data))
    }

    fn insert(&mut self, hash: u64, id: FrameId) {
        self.0.entry(hash).or_default().push(id);
    }
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

    /// Interns one container's clean-state capture under the function
    /// key `key`: `runs` are the capture's sorted, disjoint runs of
    /// frames in the process table `frames`. Page contents are read in
    /// place and copied into the store only on a dedup miss. Returns the
    /// per-container reference runs (store-table frames), owned by the
    /// caller and released via [`SnapshotStore::release_runs`].
    ///
    /// The key is looked up once per call. The first non-empty capture
    /// under a key establishes its base image in one pass over the
    /// runs: every page gets a fresh frame, indexed by content hash, and
    /// the base keeps the returned runs with one reference of its own
    /// per frame. An empty first capture establishes nothing. A later
    /// capture walks a [`FrameRunsCursor`](crate::frame::FrameRunsCursor)
    /// forward over the base's runs alongside its own ascending pages
    /// and dedups each page in this order: the base frame at the same
    /// vpn (the overwhelmingly common hit), then the key's content-hash
    /// index — which catches identical content at a *different* vpn and
    /// identical **delta** pages across snapshots — and only then a
    /// fresh frame. Each step is `O(1)` in the pool size: no candidate
    /// list grows with the number of snapshots interned, because equal
    /// content keeps hitting the same frame.
    pub fn intern_refs(
        &mut self,
        key: &str,
        runs: &[(Vpn, Vec<FrameId>)],
        frames: &FrameTable,
    ) -> FrameRuns {
        let SnapshotStore {
            frames: store,
            bases,
            stats,
        } = self;
        let Some(base) = bases.get_mut(key) else {
            if runs.is_empty() {
                return FrameRuns::default();
            }
            let base = establish(store, stats, runs, frames);
            let refs = base.pages.clone();
            bases.insert(key.to_string(), base);
            return refs;
        };
        let BaseImage { pages, by_hash } = base;
        let mut same_vpn = pages.cursor();
        let mut out = Vec::with_capacity(runs.len());
        for (start, ids) in runs {
            let mut refs = Vec::with_capacity(ids.len());
            for (&id, vpn) in ids.iter().zip(start.0..) {
                let data = frames.data(id);
                stats.logical_pages += 1;
                let id = match same_vpn.get(Vpn(vpn)) {
                    Some(b) if store.data(b).logical_eq(data) => {
                        stats.dedup_hits += 1;
                        store.incref(b);
                        b
                    }
                    _ => {
                        let hash = data.logical_hash();
                        match by_hash.find(hash, data, store) {
                            Some(h) => {
                                stats.hash_hits += 1;
                                store.incref(h);
                                h
                            }
                            None => {
                                stats.dedup_misses += 1;
                                let fresh = store.alloc(data.clone(), Taint::Clean);
                                by_hash.insert(hash, fresh);
                                fresh
                            }
                        }
                    }
                };
                refs.push(id);
            }
            out.push((*start, refs));
        }
        FrameRuns::new(out)
    }

    /// Reads an interned page's contents.
    #[inline]
    pub fn data(&self, id: FrameId) -> &FrameData {
        self.frames.data(id)
    }

    /// Releases one container's reference runs (the inverse of
    /// [`SnapshotStore::intern_refs`]). Base frames stay resident until
    /// the store itself drops.
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

/// Builds a key's base image from its founding capture in one pass:
/// one fresh store frame per page, in capture order, holding two
/// references (the base's and the caller's), each indexed by content
/// hash.
fn establish(
    store: &mut FrameTable,
    stats: &mut StoreStats,
    runs: &[(Vpn, Vec<FrameId>)],
    frames: &FrameTable,
) -> BaseImage {
    let mut by_hash = HashIndex::default();
    let mut out = Vec::with_capacity(runs.len());
    for (start, ids) in runs {
        let refs: Vec<FrameId> = ids
            .iter()
            .map(|&id| {
                let data = frames.data(id);
                let hash = data.logical_hash();
                let fresh = store.alloc(data.clone(), Taint::Clean);
                store.incref(fresh);
                by_hash.insert(hash, fresh);
                fresh
            })
            .collect();
        out.push((*start, refs));
    }
    let pages = FrameRuns::new(out);
    stats.dedup_misses += pages.total_pages();
    stats.logical_pages += pages.total_pages();
    BaseImage { pages, by_hash }
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

    /// Interns `pages` as one capture: the contents are allocated in a
    /// fresh process frame table and passed as maximal runs.
    fn intern(s: &mut SnapshotStore, key: &str, pages: &BTreeMap<u64, FrameData>) -> FrameRuns {
        let mut table = FrameTable::new();
        let mut runs: Vec<(Vpn, Vec<FrameId>)> = Vec::new();
        for (&vpn, data) in pages {
            let id = table.alloc(data.clone(), Taint::Clean);
            match runs.last_mut() {
                Some((start, ids)) if start.0 + ids.len() as u64 == vpn => ids.push(id),
                _ => runs.push((Vpn(vpn), vec![id])),
            }
        }
        s.intern_refs(key, &runs, &table)
    }

    #[test]
    fn first_intern_establishes_base() {
        let mut s = SnapshotStore::new();
        let refs = intern(&mut s, "f", &image(7, 16));
        assert_eq!(refs.total_pages(), 16);
        assert_eq!(s.live_frames(), 16, "base only, no duplicates");
        assert_eq!(s.stats().logical_pages, 16);
        assert_eq!(s.dedup_ratio(), 1.0, "a pool of one shares nothing");
    }

    #[test]
    fn identical_snapshots_dedup_fully() {
        let mut s = SnapshotStore::new();
        let a = intern(&mut s, "f", &image(7, 16));
        let b = intern(&mut s, "f", &image(7, 16));
        assert_eq!(s.live_frames(), 16, "second container adds no frames");
        assert_eq!(s.resident_bytes(), 16 * PAGE_SIZE);
        assert!((s.dedup_ratio() - 2.0).abs() < 1e-12);
        for (va, vb) in a.iter().zip(b.iter()) {
            assert_eq!(va, vb, "shared frames are the same ids");
        }
    }

    #[test]
    fn differing_pages_get_private_deltas() {
        let mut s = SnapshotStore::new();
        intern(&mut s, "f", &image(7, 16));
        let mut second = image(7, 16);
        second.insert(3, FrameData::Pattern(999));
        second.insert(20, FrameData::Zero); // page the base never had
        let refs = intern(&mut s, "f", &second);
        assert_eq!(refs.total_pages(), 17);
        assert_eq!(s.live_frames(), 18, "base 16 + delta + new page");
        assert_eq!(s.stats().dedup_hits, 15);
    }

    #[test]
    fn distinct_functions_do_not_share() {
        let mut s = SnapshotStore::new();
        intern(&mut s, "f", &image(7, 8));
        intern(&mut s, "g", &image(7, 8));
        // Same contents but different keys: bases are separate.
        assert_eq!(s.live_frames(), 16);
    }

    #[test]
    fn release_drops_references_but_keeps_base() {
        let mut s = SnapshotStore::new();
        let mut a = intern(&mut s, "f", &image(7, 8));
        let mut b = intern(&mut s, "f", &image(7, 8));
        s.release_runs(&mut a);
        s.release_runs(&mut b);
        assert_eq!(s.live_frames(), 8, "the base image stays resident");
        assert_eq!(s.stats().logical_pages, 0);
        assert_eq!(s.dedup_ratio(), 1.0);
    }

    #[test]
    fn identical_deltas_dedup_across_snapshots_via_hash() {
        let mut s = SnapshotStore::new();
        intern(&mut s, "f", &image(7, 16));
        // Two later containers carry the same delta page (a per-container
        // value that happens to repeat): the second must share the
        // first's delta frame through the content-hash index.
        let mut second = image(7, 16);
        second.insert(3, FrameData::Pattern(999));
        let mut third = image(7, 16);
        third.insert(3, FrameData::Pattern(999));
        intern(&mut s, "f", &second);
        let live_after_second = s.live_frames();
        intern(&mut s, "f", &third);
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
        intern(&mut s, "f", &image(7, 8));
        // The second container has page 3's content at vpn 100 (e.g. the
        // allocator placed the same object elsewhere).
        let mut moved = image(7, 8);
        moved.remove(&3);
        moved.insert(100, FrameData::Pattern(7 ^ 3));
        let refs = intern(&mut s, "f", &moved);
        assert_eq!(s.live_frames(), 8, "moved content shares the base frame");
        let base_frame = intern(&mut s, "f", &image(7, 8)).get(Vpn(3));
        assert_eq!(refs.get(Vpn(100)).expect("moved page"), base_frame.unwrap());
        assert_eq!(s.stats().hash_hits, 1);
    }

    #[test]
    fn freed_delta_frames_are_pruned_from_the_hash_index() {
        let mut s = SnapshotStore::new();
        intern(&mut s, "f", &image(7, 4));
        let mut with_delta = image(7, 4);
        with_delta.insert(9, FrameData::Pattern(42));
        let mut refs = intern(&mut s, "f", &with_delta);
        let live = s.live_frames();
        s.release_runs(&mut refs); // delta frame freed (only the caller held it)
        assert_eq!(s.live_frames(), live - 1);
        // Interning the same delta again must allocate a fresh frame —
        // the stale index entry is pruned, not resurrected.
        let refs2 = intern(&mut s, "f", &with_delta);
        let delta = refs2.get(Vpn(9)).expect("delta interned");
        assert!(s.frames().is_live(delta));
        assert!(s.data(delta).logical_eq(&FrameData::Pattern(42)));
    }

    #[test]
    fn intern_refs_reads_contents_in_place() {
        let mut table = FrameTable::new();
        let ids: Vec<FrameId> = (0..8u64)
            .map(|v| table.alloc(FrameData::Pattern(7 ^ v), Taint::Clean))
            .collect();
        let runs = vec![(Vpn(0), ids)];
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
        let refs = intern(&mut s, "f", &image(3, 4));
        for (vpn, id) in refs.iter() {
            assert!(s.data(id).logical_eq(&FrameData::Pattern(3 ^ vpn.0)));
        }
    }
}
