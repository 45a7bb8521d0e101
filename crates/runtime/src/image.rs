//! Building concrete function-process memory images.
//!
//! A [`FunctionProcess`] is a simulated process whose address-space shape
//! matches a benchmark's measured footprint (Table 3's `#pages`): a
//! file-backed text/library region, a small data region holding the
//! runtime-state page, a `brk` heap, and one or more anonymous mmap
//! regions. The build pages in `resident_fraction` of the image, exactly
//! like an initialized runtime that has executed its dummy warm-up
//! request (§4.1).

use gh_mem::{PageRange, Perms, Taint, Touch, VmaKind, Vpn};
use gh_proc::{Kernel, Pid};
use gh_sim::Nanos;

use crate::profile::{RuntimeKind, RuntimeProfile};

/// The regions of a built function image.
///
/// Carries a precomputed flat index over the writable regions so that
/// page addressing is allocation-free O(log R) — behaviours resolve
/// hundreds of thousands of pages per request.
#[derive(Clone, Debug)]
pub struct ImageRegions {
    /// Program text + shared libraries (file-backed, read-exec).
    pub text: PageRange,
    /// Globals / runtime static state (anon, read-write). The first page
    /// is the *runtime-state page* holding the GC clock.
    pub data: PageRange,
    /// The `brk` heap.
    pub heap: PageRange,
    /// Anonymous mmap regions (managed heaps, arenas).
    pub anon: Vec<PageRange>,
    /// Flat index: `(cumulative_start, region)` sorted by cumulative
    /// offset; rebuilt by [`ImageRegions::new`].
    index: Vec<(u64, PageRange)>,
    /// Total writable pages.
    total: u64,
}

impl ImageRegions {
    /// Builds the regions and their flat index.
    pub fn new(text: PageRange, data: PageRange, heap: PageRange, anon: Vec<PageRange>) -> Self {
        let mut regions = ImageRegions {
            text,
            data,
            heap,
            anon,
            index: Vec::new(),
            total: 0,
        };
        regions.rebuild_index();
        regions
    }

    fn rebuild_index(&mut self) {
        let mut sorted = self.dirtyable();
        sorted.sort_by_key(|r| r.start.0);
        let mut cum = 0u64;
        self.index = sorted
            .iter()
            .map(|r| {
                let entry = (cum, *r);
                cum += r.len();
                entry
            })
            .collect();
        self.total = cum;
    }

    /// The runtime-state page (GC clock lives at word 0).
    pub fn state_page(&self) -> Vpn {
        self.data.start
    }

    /// All writable regions a function may dirty, in address order.
    pub fn dirtyable(&self) -> Vec<PageRange> {
        let mut v = vec![self.data, self.heap];
        v.extend(self.anon.iter().copied());
        v.sort_by_key(|r| r.start.0);
        v
    }

    /// Total writable pages.
    pub fn dirtyable_pages(&self) -> u64 {
        self.total
    }

    /// Resolves the `i`-th writable page (wrapping), giving behaviours a
    /// stable, uniform, allocation-free way to address the write set.
    pub fn dirtyable_page(&self, i: u64) -> Vpn {
        let idx = i % self.total.max(1);
        let pos = self
            .index
            .partition_point(|&(cum, _)| cum <= idx)
            .saturating_sub(1);
        let (cum, range) = self.index[pos];
        Vpn(range.start.0 + (idx - cum))
    }

    /// Resolves an ascending sequence of flat indices with one region
    /// cursor (`O(indices + regions)` instead of a binary search per
    /// index) — the [`WritePlan`](crate::plan::WritePlan) build and GC
    /// paths. Indices wrap like [`ImageRegions::dirtyable_page`]; a
    /// wrapped (non-ascending) index resets the cursor, preserving
    /// exactness at a one-off probe cost.
    pub fn resolve_ascending<'a>(
        &'a self,
        indices: impl Iterator<Item = u64> + 'a,
    ) -> impl Iterator<Item = Vpn> + 'a {
        let mut pos = 0usize;
        indices.map(move |i| {
            let idx = i % self.total.max(1);
            if idx < self.index[pos].0 {
                pos = 0;
            }
            while pos + 1 < self.index.len() && self.index[pos + 1].0 <= idx {
                pos += 1;
            }
            let (cum, range) = self.index[pos];
            Vpn(range.start.0 + (idx - cum))
        })
    }
}

/// A built, initialized function process.
#[derive(Debug)]
pub struct FunctionProcess {
    /// The process id.
    pub pid: Pid,
    /// The runtime profile it runs.
    pub profile: RuntimeProfile,
    /// Its memory image — fixed once built (see [`FunctionProcess::regions`]).
    regions: ImageRegions,
    /// Monotonic count of requests executed (for deterministic placement).
    pub invocations: u64,
    /// Cached write/read plans + batch scratch for the request executor,
    /// all derived from `regions`.
    plans: crate::plan::PlanCache,
    /// The arenas the last layout churn mapped, kept so the next churn
    /// reuses the list's allocation.
    churned: Vec<PageRange>,
}

/// Word index of the GC clock on the runtime-state page.
const GC_CLOCK_WORD: usize = 0;

impl FunctionProcess {
    /// Builds a function process with roughly `total_pages` mapped pages.
    ///
    /// Charges the runtime's initialization time (Fig. 1's "runtime
    /// initialization") plus the demand-paging faults of bringing
    /// `resident_fraction` of the image in.
    pub fn build(
        kernel: &mut Kernel,
        name: &str,
        profile: RuntimeProfile,
        total_pages: u64,
    ) -> Self {
        let total_pages = total_pages.max(64);
        let pid = kernel.spawn(name);
        kernel.charge(profile.init_time);

        // Region budget.
        let text_pages = ((total_pages as f64 * profile.file_fraction) as u64).max(8);
        let data_pages = (total_pages / 50).clamp(4, 512);
        let heap_pages = ((total_pages as f64 * 0.35) as u64).max(16);
        let stack_pages = {
            let (proc, _) = kernel.mem_ctx(pid).expect("fresh pid");
            proc.mem.config().stack_pages
        };
        let anon_total = total_pages
            .saturating_sub(text_pages + data_pages + heap_pages + stack_pages)
            .max(16);
        // Region counts match real /proc/pid/maps sizes: a C binary maps
        // a handful of regions, CPython ~100 (every extension .so plus
        // obmalloc arenas), Node/V8 several hundred (code ranges, semi-
        // spaces, large-object spaces).
        let anon_regions = match profile.kind {
            RuntimeKind::NativeC => 2,
            RuntimeKind::Python => 60,
            RuntimeKind::NodeJs => 150,
        };

        let lib_name = format!(
            "{}.rt",
            match profile.kind {
                RuntimeKind::NativeC => "libc",
                RuntimeKind::Python => "libpython3.10",
                RuntimeKind::NodeJs => "libnode.so",
            }
        );

        let (regions, resident_budget) = {
            let (proc, frames) = kernel.mem_ctx(pid).expect("fresh pid");
            let text = proc
                .mem
                .mmap(text_pages, Perms::RX, VmaKind::File(lib_name))
                .expect("text fits");
            let data = proc
                .mem
                .mmap(data_pages, Perms::RW, VmaKind::Anon)
                .expect("data fits");
            let heap_base = proc.mem.config().heap_base;
            proc.mem
                .set_brk(Vpn(heap_base.0 + heap_pages), frames)
                .expect("brk grows");
            let heap = PageRange::new(heap_base, Vpn(heap_base.0 + heap_pages));
            let mut anon = Vec::new();
            let per = (anon_total / anon_regions).max(8);
            for _ in 0..anon_regions {
                // Leave one-page gaps so regions do not merge: real
                // runtimes interleave guard pages and differently-typed
                // arenas, and the maps diff needs distinct VMAs.
                let r = proc
                    .mem
                    .mmap(per, Perms::RW, VmaKind::Anon)
                    .expect("anon fits");
                let _guard = proc
                    .mem
                    .mmap_fixed(
                        PageRange::at(Vpn(r.start.0 - 1), 1),
                        Perms::NONE,
                        VmaKind::Guard,
                    )
                    .ok();
                anon.push(r);
            }
            let regions = ImageRegions::new(text, data, heap, anon);
            let resident_budget = (total_pages as f64 * profile.resident_fraction) as u64;
            (regions, resident_budget)
        };

        // Demand-page the image in: text read-faulted, data/heap/anon
        // write-faulted (runtime initialization writes them). Each region
        // is one contiguous ascending run, so the paging goes through the
        // batched fault path — one cursor walk per region instead of a
        // page-table probe per page (bit-identical faults either way).
        let (_, _dt) = kernel
            .run_charged(pid, |proc, frames| {
                let mut budget = resident_budget;
                let mut batch = gh_mem::TouchBatch::new();
                let mut page_in = |proc: &mut gh_proc::Process,
                                   frames: &mut _,
                                   range: PageRange,
                                   touch: Touch,
                                   budget: &mut u64| {
                    batch.clear();
                    for vpn in range.iter().take(*budget as usize) {
                        batch.push(vpn, touch, Taint::Clean);
                    }
                    *budget -= batch.len() as u64;
                    let d = proc.mem.touch_batch(&batch, frames);
                    // touch_batch skips per-item failures; init paging
                    // must touch every page (the old loops `expect`ed).
                    assert_eq!(d.failed, 0, "init paging touched every page of {range:?}");
                };
                page_in(proc, frames, regions.text, Touch::Read, &mut budget);
                page_in(
                    proc,
                    frames,
                    regions.data,
                    Touch::WriteWord(0xD0D0),
                    &mut budget,
                );
                for r in std::iter::once(regions.heap).chain(regions.anon.iter().copied()) {
                    if budget == 0 {
                        break;
                    }
                    page_in(proc, frames, r, Touch::WriteWord(0x1417), &mut budget);
                }
            })
            .expect("init paging");

        // Helper threads (V8 / libuv / CPython helper).
        for _ in 1..profile.threads {
            kernel.spawn_thread(pid).expect("spawn helper thread");
        }

        // Initialize the GC clock to "now".
        let now = kernel.clock.now().as_nanos();
        let state = regions.state_page();
        kernel
            .run_charged(pid, |proc, frames| {
                let pte_present = proc.mem.pte(state).is_some();
                debug_assert!(pte_present, "state page paged in during init");
                proc.mem
                    .touch(state, Touch::WriteWord(now), Taint::Clean, frames)
                    .expect("state write");
                // Store at the dedicated clock word as well.
                let pte = proc.mem.pte(state).expect("present");
                let _ = pte;
            })
            .expect("state init");
        Self::poke_gc_clock(kernel, pid, state, now);

        FunctionProcess {
            pid,
            profile,
            regions,
            invocations: 0,
            plans: crate::plan::PlanCache::new(),
            churned: Vec::new(),
        }
    }

    /// The image's regions. They are fixed when the process is built:
    /// layout churn maps and unmaps arenas outside them, so the cached
    /// plans derived from them stay valid for the process's lifetime.
    pub fn regions(&self) -> &ImageRegions {
        &self.regions
    }

    /// The request executor's plan cache (observability).
    pub fn plans(&self) -> &crate::plan::PlanCache {
        &self.plans
    }

    /// The touch plan for `(writes, reads, phase)` over this image's
    /// regions, built on first use, plus the shared scratch batch (see
    /// [`PlanCache`](crate::plan::PlanCache)).
    pub fn plan_for(
        &mut self,
        writes: u64,
        reads: u64,
        phase: u64,
    ) -> (crate::plan::WritePlan<'_>, &mut gh_mem::TouchBatch) {
        self.plans.plan_for(&self.regions, writes, reads, phase)
    }

    /// The plan cache's scratch batch, for one-off touch sets outside a
    /// plan replay (the leak step). Its contents last until the next
    /// step that fills it, so fill it after `clear`.
    pub fn scratch_batch(&mut self) -> &mut gh_mem::TouchBatch {
        self.plans.scratch()
    }

    /// A view of the same image bound to another pid — used to run a
    /// request inside a `fork`ed child, whose layout is a CoW copy of
    /// this image. The view starts with an empty plan cache (fork-based
    /// isolation rebuilds per request; the parent keeps its own cache).
    pub fn with_pid(&self, pid: Pid) -> FunctionProcess {
        FunctionProcess {
            pid,
            profile: self.profile.clone(),
            regions: self.regions.clone(),
            invocations: self.invocations,
            plans: crate::plan::PlanCache::new(),
            churned: Vec::new(),
        }
    }

    /// Stores `value` at the GC clock word — a privileged write, so a
    /// state page still shared with the snapshot is unshared first and
    /// the snapshot's saved clock stays as it was.
    fn poke_gc_clock(kernel: &mut Kernel, pid: Pid, state: Vpn, value: u64) {
        let (proc, frames) = kernel.mem_ctx(pid).expect("live pid");
        proc.mem
            .poke_word(state, GC_CLOCK_WORD, value, frames)
            .expect("state page present");
    }

    /// Re-bases the in-memory runtime clock to "now" — the paper's
    /// proposed time-virtualization fix (§5.3.1): after a restore, the
    /// platform adjusts the process's notion of time so time-driven
    /// behaviours (V8's GC) do not observe the rewind.
    pub fn rebase_gc_clock(&self, kernel: &mut Kernel) {
        let now = kernel.clock.now().as_nanos();
        Self::poke_gc_clock(kernel, self.pid, self.regions.state_page(), now);
    }

    /// Reads the GC clock from process memory.
    pub fn gc_clock(&self, kernel: &Kernel) -> Nanos {
        let proc = kernel.process(self.pid).expect("live pid");
        let v = proc
            .mem
            .peek_word(self.regions.state_page(), GC_CLOCK_WORD, kernel.frames())
            .unwrap_or(0);
        Nanos::from_nanos(v)
    }

    /// Runs a time-driven GC check (Node.js, §5.3.1). If the period has
    /// elapsed *according to the in-memory clock* — which restoration
    /// rewinds — the collector runs: it dirties pages, consumes its pause
    /// time, and stores the new clock value in memory.
    ///
    /// Returns the GC pause charged, if a collection ran.
    pub fn maybe_gc(&mut self, kernel: &mut Kernel) -> Option<Nanos> {
        let gc = self.profile.gc?;
        let last = self.gc_clock(kernel);
        let now = kernel.clock.now();
        if now.checked_sub(last).is_none_or(|dt| dt < gc.period) {
            return None;
        }
        let regions = &self.regions;
        let pages = gc.pages_dirtied.min(regions.dirtyable_pages());
        let nowns = now.as_nanos();
        // The collector walks and compacts: dirty `pages` strided pages
        // spread across the managed regions — an ascending set, batched
        // in the plan cache's scratch, then the clock store (same order
        // as the per-page loop).
        let total = regions.dirtyable_pages();
        let stride = (total / pages.max(1)).max(1);
        let batch = self.plans.scratch();
        batch.clear();
        for (i, vpn) in regions
            .resolve_ascending((0..pages).map(|i| i * stride))
            .enumerate()
        {
            batch.push(vpn, Touch::WriteWord(nowns ^ i as u64), Taint::Clean);
        }
        kernel
            .run_charged(self.pid, |proc, frames| {
                let d = proc.mem.touch_batch(batch, frames);
                assert_eq!(d.failed, 0, "gc dirtied every strided page");
                proc.mem
                    .touch(
                        regions.state_page(),
                        Touch::WriteWord(nowns),
                        Taint::Clean,
                        frames,
                    )
                    .expect("clock write");
            })
            .expect("gc run");
        Self::poke_gc_clock(kernel, self.pid, self.regions.state_page(), nowns);
        kernel.charge(gc.pause);
        Some(gc.pause)
    }

    /// Performs the runtime's per-request layout churn (Node.js maps and
    /// unmaps aggressively, §5.4): mmaps fresh arenas, munmaps old ones,
    /// grows `brk`. Returns the number of layout syscalls performed. The
    /// new arenas lie outside `regions`, so cached plans stay valid.
    pub fn churn_layout(&mut self, kernel: &mut Kernel) -> u32 {
        let churn = self.profile.churn;
        let mut ops = 0u32;
        if churn.mmaps == 0 && churn.munmaps == 0 && churn.brk_growth == 0 {
            return 0;
        }
        let new_regions = &mut self.churned;
        new_regions.clear();
        kernel
            .run_charged(self.pid, |proc, frames| {
                for _ in 0..churn.mmaps {
                    if let Ok(r) = proc
                        .mem
                        .mmap(churn.mmap_pages.max(1), Perms::RW, VmaKind::Anon)
                    {
                        // Touch the first page (arenas are used immediately).
                        let _ =
                            proc.mem
                                .touch(r.start, Touch::WriteWord(0xA4EA), Taint::Clean, frames);
                        new_regions.push(r);
                        ops += 1;
                    }
                }
                // Unmap a prefix of what we just mapped (plus nothing if
                // munmaps exceed mmaps — regions from previous requests
                // were already restored/unmapped).
                for r in new_regions.iter().take(churn.munmaps as usize) {
                    if proc.mem.munmap(*r, frames).is_ok() {
                        ops += 1;
                    }
                }
                if churn.brk_growth > 0 {
                    let cur = proc.mem.brk();
                    if proc
                        .mem
                        .set_brk(Vpn(cur.0 + churn.brk_growth), frames)
                        .is_ok()
                    {
                        ops += 1;
                    }
                }
            })
            .expect("churn");
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_proc::Kernel;

    fn build(kind: RuntimeKind, pages: u64) -> (Kernel, FunctionProcess) {
        let mut k = Kernel::boot();
        let fp = FunctionProcess::build(&mut k, "f", RuntimeProfile::for_kind(kind), pages);
        (k, fp)
    }

    #[test]
    fn image_footprint_matches_request() {
        let (k, fp) = build(RuntimeKind::Python, 6_000);
        let proc = k.process(fp.pid).unwrap();
        let mapped = proc.mem.mapped_pages();
        // Within 25% of the requested footprint (stack + rounding).
        assert!(
            (4_500..8_500).contains(&mapped),
            "mapped {mapped} pages for a 6000-page request"
        );
        proc.mem.check_invariants().unwrap();
    }

    #[test]
    fn resident_fraction_respected() {
        let (k, fp) = build(RuntimeKind::NodeJs, 20_000);
        let proc = k.process(fp.pid).unwrap();
        let resident = proc.mem.present_pages() as f64;
        let mapped = proc.mem.mapped_pages() as f64;
        let frac = resident / mapped;
        assert!(
            (0.1..0.5).contains(&frac),
            "Node image should be sparse, got {frac:.2}"
        );
    }

    #[test]
    fn c_image_is_mostly_resident() {
        let (k, fp) = build(RuntimeKind::NativeC, 1_000);
        let proc = k.process(fp.pid).unwrap();
        let frac = proc.mem.present_pages() as f64 / proc.mem.mapped_pages() as f64;
        assert!(frac > 0.5, "C image mostly resident, got {frac:.2}");
    }

    #[test]
    fn thread_counts_follow_profile() {
        let (k, fp) = build(RuntimeKind::NodeJs, 8_000);
        assert_eq!(k.process(fp.pid).unwrap().thread_count(), 7);
        let (k, fp) = build(RuntimeKind::NativeC, 1_000);
        assert_eq!(k.process(fp.pid).unwrap().thread_count(), 1);
    }

    #[test]
    fn dirtyable_page_addressing_is_total() {
        let (_, fp) = build(RuntimeKind::Python, 4_000);
        let total = fp.regions.dirtyable_pages();
        assert!(total > 0);
        // Wrapping: out-of-range index maps back in.
        let a = fp.regions.dirtyable_page(0);
        let b = fp.regions.dirtyable_page(total);
        assert_eq!(a, b);
        // Every index resolves to a writable region.
        for i in (0..total).step_by((total as usize / 64).max(1)) {
            let vpn = fp.regions.dirtyable_page(i);
            assert!(fp.regions.dirtyable().iter().any(|r| r.contains(vpn)));
        }
    }

    #[test]
    fn gc_clock_roundtrips_through_memory() {
        let (mut k, fp) = build(RuntimeKind::NodeJs, 8_000);
        let t = fp.gc_clock(&k);
        assert!(t.as_nanos() > 0, "initialized to build time");
        // Advance and run GC.
        let mut fp = fp;
        k.charge(Nanos::from_secs(5));
        let pause = fp.maybe_gc(&mut k);
        assert!(pause.is_some(), "period elapsed → GC runs");
        let t2 = fp.gc_clock(&k);
        assert!(t2 > t);
        // Immediately after, no GC.
        assert!(fp.maybe_gc(&mut k).is_none());
    }

    #[test]
    fn gc_never_runs_for_c() {
        let (mut k, mut fp) = build(RuntimeKind::NativeC, 1_000);
        k.charge(Nanos::from_secs(100));
        assert!(fp.maybe_gc(&mut k).is_none());
    }

    #[test]
    fn churn_changes_layout() {
        let (mut k, mut fp) = build(RuntimeKind::NodeJs, 8_000);
        let vmas_before = k.process(fp.pid).unwrap().mem.vma_count();
        let ops = fp.churn_layout(&mut k);
        assert!(ops > 0);
        let vmas_after = k.process(fp.pid).unwrap().mem.vma_count();
        assert_ne!(
            vmas_before, vmas_after,
            "net mmaps > munmaps changes the map"
        );
        k.process(fp.pid).unwrap().mem.check_invariants().unwrap();
    }

    #[test]
    fn churn_is_noop_for_c() {
        let (mut k, mut fp) = build(RuntimeKind::NativeC, 1_000);
        assert_eq!(fp.churn_layout(&mut k), 0);
    }
}
