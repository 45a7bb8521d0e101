//! Cached write plans for batched request execution.
//!
//! A request's memory behaviour is a strided write set plus a strided
//! read set over the image's writable regions. Computed naively that is
//! one `ImageRegions::dirtyable_page` binary search *per touch, per
//! request*; computed here it is a [`WritePlan`] — the write and read
//! sets materialized once as pre-sorted vpn vectors. Steady-state
//! invocations replay the write set straight into a [`TouchBatch`] and
//! read the read set in place, as one span
//! (`gh_mem::AddressSpace::read_span`).
//!
//! Write sets are keyed by `(writes, phase)` — the stride phase varies
//! with the request sequence number, rotating the write set across the
//! image. Read sets are **phase-invariant** and keyed by `reads` alone,
//! so even request shapes whose write stride exceeds the cache bound
//! (tiny write set over a huge image ⇒ a fresh phase every request)
//! keep replaying the big read sweep from cache and only rebuild the
//! small write set. Both maps are bounded: when full, they reset rather
//! than grow without bound. A cache belongs to one
//! [`FunctionProcess`](crate::FunctionProcess), whose regions are fixed
//! once built (layout churn maps arenas outside them), and only the
//! process builds plans into it — so plans never outlive the addressing
//! they were derived from, by construction.

use std::collections::HashMap;

use gh_mem::{TouchBatch, Vpn};

use crate::image::ImageRegions;

/// Maximum cached vpn sets per map before that map resets.
const MAX_PLANS: usize = 64;

/// A borrowed view of one request shape's touch addressing: pre-sorted
/// write and read vpn sets, the writes ready to replay into a
/// [`TouchBatch`], the reads to read as a span.
#[derive(Clone, Copy, Debug)]
pub struct WritePlan<'a> {
    /// The strided write set, ascending (`dirtyable_page(i·wstride +
    /// phase)` for `i` in `0..writes`).
    pub write_vpns: &'a [Vpn],
    /// The strided read set, ascending (`dirtyable_page(i·rstride)`).
    pub read_vpns: &'a [Vpn],
}

/// Per-process plan cache plus the reusable [`TouchBatch`] scratch the
/// executor fills from the active plan's write set each invocation and
/// hands to the read span as its slow batch (no per-request allocation
/// in steady state).
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Write sets keyed by `(writes, phase)`.
    write_sets: HashMap<(u64, u64), Vec<Vpn>>,
    /// Read sets keyed by `reads` (phase-invariant).
    read_sets: HashMap<u64, Vec<Vpn>>,
    /// Retired vpn vectors recycled into the next plan build. Plan churn
    /// — phase-rotating write sets, bound resets, layout invalidation —
    /// reuses capacity instead of allocating one fresh `Vec` per built
    /// plan.
    retired: Vec<Vec<Vpn>>,
    scratch: TouchBatch,
    /// Vpn sets built so far (observability).
    builds: u64,
}

/// Retires a map's vpn vectors into the free list instead of dropping
/// them, keeping the list bounded.
fn retire<K>(map: &mut HashMap<K, Vec<Vpn>>, retired: &mut Vec<Vec<Vpn>>) {
    retired.extend(map.drain().map(|(_, v)| v));
    retired.truncate(MAX_PLANS);
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Number of vpn sets built so far — cache misses (observability
    /// for tests).
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Number of cached vpn sets (observability for tests).
    pub fn len(&self) -> usize {
        self.write_sets.len() + self.read_sets.len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.write_sets.is_empty() && self.read_sets.is_empty()
    }

    /// The scratch batch alone, for touch sets that no plan describes
    /// (the GC and leak steps).
    pub(crate) fn scratch(&mut self) -> &mut TouchBatch {
        &mut self.scratch
    }

    /// The plan for `(writes, reads, phase)` over `regions`, built on
    /// first use, plus the shared scratch batch. Returned together so a
    /// caller can fill the scratch from the plan under one borrow of the
    /// cache. Reached through
    /// [`FunctionProcess::plan_for`](crate::FunctionProcess::plan_for),
    /// which passes the process's own regions.
    pub(crate) fn plan_for(
        &mut self,
        regions: &ImageRegions,
        writes: u64,
        reads: u64,
        phase: u64,
    ) -> (WritePlan<'_>, &mut TouchBatch) {
        let PlanCache {
            write_sets,
            read_sets,
            retired,
            scratch,
            builds,
        } = self;
        let total = regions.dirtyable_pages().max(1);
        if write_sets.len() >= MAX_PLANS && !write_sets.contains_key(&(writes, phase)) {
            retire(write_sets, retired);
        }
        let write_vpns = write_sets.entry((writes, phase)).or_insert_with(|| {
            *builds += 1;
            let wstride = (total / writes.max(1)).max(1);
            let mut v = retired.pop().unwrap_or_default();
            v.clear();
            v.extend(regions.resolve_ascending((0..writes).map(|i| i * wstride + phase)));
            v
        });
        if read_sets.len() >= MAX_PLANS && !read_sets.contains_key(&reads) {
            retire(read_sets, retired);
        }
        let read_vpns = read_sets.entry(reads).or_insert_with(|| {
            *builds += 1;
            let rstride = (total / reads.max(1)).max(1);
            let mut v = retired.pop().unwrap_or_default();
            v.clear();
            v.extend(regions.resolve_ascending((0..reads).map(|i| i * rstride)));
            v
        });
        (
            WritePlan {
                write_vpns,
                read_vpns,
            },
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{RuntimeKind, RuntimeProfile};
    use gh_proc::Kernel;

    fn regions() -> ImageRegions {
        let mut k = Kernel::boot();
        crate::FunctionProcess::build(
            &mut k,
            "f",
            RuntimeProfile::for_kind(RuntimeKind::Python),
            4_000,
        )
        .regions()
        .clone()
    }

    #[test]
    fn plan_matches_per_page_addressing() {
        let regions = regions();
        let total = regions.dirtyable_pages();
        let mut cache = PlanCache::new();
        for (writes, phase) in [(1u64, 0u64), (37, 3), (500, 7), (total, 0)] {
            let reads = (2 * writes + 256).min(total);
            let (plan, _) = cache.plan_for(&regions, writes, reads, phase);
            let wstride = (total / writes.max(1)).max(1);
            let rstride = (total / reads.max(1)).max(1);
            let expect_w: Vec<Vpn> = (0..writes)
                .map(|i| regions.dirtyable_page(i * wstride + phase))
                .collect();
            let expect_r: Vec<Vpn> = (0..reads)
                .map(|i| regions.dirtyable_page(i * rstride))
                .collect();
            assert_eq!(plan.write_vpns, expect_w, "writes={writes} phase={phase}");
            assert_eq!(plan.read_vpns, expect_r, "reads={reads}");
            assert!(plan.write_vpns.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(plan.read_vpns.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn cache_reuses_and_bounds() {
        let regions = regions();
        let mut cache = PlanCache::new();
        let p0 = cache.plan_for(&regions, 100, 200, 0).0.write_vpns.to_vec();
        assert_eq!(cache.len(), 2, "one write set + one read set");
        let p1 = cache.plan_for(&regions, 100, 200, 0).0.write_vpns.to_vec();
        assert_eq!(cache.len(), 2, "hit, not rebuild");
        assert_eq!(p0, p1);
        for phase in 0..(2 * MAX_PLANS as u64) {
            cache.plan_for(&regions, 3, 262, phase);
        }
        assert!(
            cache.len() <= 2 * MAX_PLANS,
            "both maps stay bounded independently"
        );
    }

    #[test]
    fn read_sets_survive_phase_churn() {
        // A tiny write set over a big image cycles through more phases
        // than the write map holds; the (identical) read sweep must stay
        // cached throughout — only the small write set rebuilds.
        let regions = regions();
        let mut cache = PlanCache::new();
        let reads = 300u64;
        let first: *const Vpn = cache.plan_for(&regions, 2, reads, 0).0.read_vpns.as_ptr();
        for phase in 1..(3 * MAX_PLANS as u64) {
            let (plan, _) = cache.plan_for(&regions, 2, reads, phase);
            assert_eq!(
                plan.read_vpns.as_ptr(),
                first,
                "read set re-used across write-phase churn (phase {phase})"
            );
        }
    }
}
