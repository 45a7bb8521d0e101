//! The per-process address space: VMAs, page table, fault paths.
//!
//! [`AddressSpace`] implements the kernel-side semantics Groundhog's
//! manager drives from user space:
//!
//! - `mmap` / `munmap` / `mprotect` / `brk` / `madvise(DONTNEED)` with VMA
//!   splitting and merging;
//! - demand paging with a shared zero frame, copy-on-write after `fork`,
//!   soft-dirty tracking with write-protect arming (`clear_refs`), and an
//!   optional userfaultfd write-protect mode;
//! - fault accounting for the cost model ([`FaultCounters`]);
//! - `/proc`-style introspection: `maps()` and `pagemap()` iteration.
//!
//! The address space does not own frames; all frame operations go through
//! the machine-wide [`FrameTable`], so `fork` children and snapshots share
//! frames exactly as processes share physical memory.
//!
//! # Extent-based bookkeeping
//!
//! The page table is **extent-based** (`crate::extent`): maximal runs
//! of contiguous present pages sharing one flag value, with per-page
//! frames in flat chunks. On top of it sit three [`VpnIndex`] bitmaps —
//! soft-dirty pages, userfaultfd-logged pages, and taint-carrying pages —
//! so the manager-facing queries scale with the *interesting* pages, not
//! the mapped address space:
//!
//! - [`AddressSpace::soft_dirty_pages`] is an `O(dirty)` index scan (no
//!   pagemap walk);
//! - [`AddressSpace::clear_soft_dirty`], `arm_uffd_wp`, `disarm_uffd`
//!   and `mark_all_cow` are `O(extents)` flag transforms (the armed
//!   steady state is a handful of extents, so re-arming after a request
//!   that dirtied D pages costs `O(extents + D)`, not `O(present)`);
//! - [`AddressSpace::tainted_pages`] scans only pages whose frames carry
//!   request data;
//! - [`AddressSpace::capture_frame_runs`] hands the snapshotter
//!   refcounted frame runs in `O(extents)` run metadata plus one incref
//!   per page — no per-page map construction, no content copies;
//! - [`AddressSpace::touch`] and [`AddressSpace::touch_batch`] make one
//!   fault decision per page (`Tracking::touch`, a lazy fault-in
//!   included): a batch resolves a pre-sorted [`TouchBatch`] in one
//!   ordered cursor walk — `O(batch + touched extents/chunks)` plus one
//!   edit fold (the request-execution hot path of
//!   `gh_functions::Executor`) — and a single touch is a one-item walk;
//! - [`AddressSpace::read_span`] reads an ascending vpn slice with one
//!   extent, one VMA and one lazy-pending cursor: a warm page costs at
//!   most one cursor step and a comparison, and only the pages that
//!   fault or fail go, in order, through `touch_batch` (the executor's
//!   read set);
//! - [`AddressSpace::restore_runs`] and [`AddressSpace::evict_runs`] do
//!   the same for the restorer's writeback and stack-zero passes and its
//!   madvise pass: one walk and one edit fold per pass — one frame-chunk
//!   probe per 512-page window across the runs in it, one VMA lookup per
//!   VMA crossed, one forward [`VpnIndex::clear_runs`] pass.
//!   `restore_page`, `zero_page` and `evict_page` are one-page passes,
//!   and [`AddressSpace::drain_lazy`] is one walk over the pages it
//!   drains.
//!
//! Every per-page edit — a touch, a lazy fault-in or drain, a writeback
//! and `poke_word`'s unshare — is a decision over the page table's one
//! per-page walk (`PageTable::walk` in `crate::extent`); only
//! `evict_runs` removes pages, through the table's range removal.
//!
//! # Change indices
//!
//! The restore planner needs to know how the present set moved since
//! the snapshot: which present pages the snapshot did not capture
//! (*fresh*: newly paged, to be madvised away or, on the stack, zeroed)
//! and which captured pages are gone (*dropped*: by munmap, madvise or
//! a brk shrink, to be written back). Recomputing that from the page
//! table costs `O(extents + snapshot runs)` per restore, so the space
//! keeps it as two [`VpnIndex`]es relative to a *baseline*:
//!
//! - [`AddressSpace::reset_change_baseline`] — called by the snapshotter
//!   when it captures the present pages — makes the present set the
//!   baseline (sorted runs, `O(extents)`) and empties both indices;
//! - from then on, every site that makes a page present (a touch's
//!   minor fault, lazy fault-in, `restore_runs`) or absent (`evict_runs`
//!   — behind `munmap`, `madvise` and brk shrink — and `release_all`)
//!   updates them with one `O(log runs)` baseline lookup,
//!   so `fresh = present ∖ baseline` and `dropped = baseline ∖ present`
//!   hold at every step (`check_invariants` recomputes both);
//! - before the first reset there is no baseline and the sites skip the
//!   update, so building an image pays nothing; a `fork` child starts
//!   without one (it has never been snapshotted).
//!
//! The restorer's own passes go through the same sites, so the indices
//! carry across restores: a zeroed stack page stays present and fresh,
//! a rewritten page leaves `dropped`. [`AddressSpace::fresh_runs_into`]
//! and [`AddressSpace::dropped_runs_into`] read them in `O(changed)`,
//! and [`AddressSpace::change_epoch`] names the baseline they refer to.
//!
//! # VMA bookkeeping
//!
//! Layout syscalls cost work proportional to the VMAs they touch, not
//! to the map. Beside the VMA map the space keeps the unmapped intervals
//! of `[0, mmap_top)` (an end → start map, exactly the complement of
//! the VMAs there) and the mapped-page total, both updated by two
//! private helpers at the only calls that change VMA coverage (`mmap`,
//! `mmap_fixed`, `munmap`, `set_brk`, `release_all`, construction;
//! `fork` clones them). The helpers check — in release builds too —
//! that the edited range was wholly free or wholly mapped. So:
//!
//! - `mmap` takes the top of the highest free interval that fits:
//!   `O(log F + k)` for the `k` intervals above it that are too short;
//!   VMAs packed against each other form no interval;
//! - [`AddressSpace::mapped_pages`] is `O(1)`;
//! - `munmap` and `mprotect` find the affected VMAs by walking down
//!   from the range's end until a VMA ends at or below its start —
//!   `O(log V)` per affected VMA — and `set_brk` finds the heap VMA
//!   with one lookup.

use std::collections::BTreeMap;

use crate::addr::{PageRange, Vpn};
use crate::batch::{BatchOutcome, TouchBatch, TouchItem};
use crate::extent::{BatchDecision, PageTable};
use crate::frame::{FrameData, FrameId, FrameTable};
use crate::index::VpnIndex;
use crate::pte::{Pte, PteFlags};
use crate::store::StoreHandle;
use crate::taint::Taint;
use crate::vma::{Perms, Vma, VmaKind};

/// Address space geometry.
#[derive(Clone, Copy, Debug)]
pub struct SpaceConfig {
    /// First page of the `brk` heap.
    pub heap_base: Vpn,
    /// Pages are allocated top-down for `mmap` starting below this page.
    pub mmap_top: Vpn,
    /// Highest stack page + 1 (stack grows down from here).
    pub stack_top: Vpn,
    /// Initial stack size in pages.
    pub stack_pages: u64,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        // A 47-bit-ish layout, page numbers (not bytes).
        Self {
            heap_base: Vpn(0x0010_0000),
            mmap_top: Vpn(0x7000_0000),
            stack_top: Vpn(0x7fff_f000),
            // The stack VMA starts small and grows on demand; Linux maps
            // ~132 KiB up front. Table 3's C benchmarks map <1K pages in
            // total, so the initial stack must not dominate.
            stack_pages: 34,
        }
    }
}

/// Counts of fault events taken since the last [`FaultCounters::take`].
///
/// These are the quantities the cost model converts into in-function
/// latency: each counter maps 1:1 to a `CostModel` constant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// First-touch minor faults (zero page / file page-in).
    pub minor: u64,
    /// Soft-dirty write-protect faults (tracking overhead, §5.2.1).
    pub sd_wp: u64,
    /// Copy-on-write faults (fork-based isolation, §5.2.3).
    pub cow: u64,
    /// Userfaultfd write-protect notifications (§4.3).
    pub uffd_wp: u64,
    /// First post-fork accesses (dTLB miss + lazy PTE, §5.2.3).
    pub tlb_cold: u64,
    /// First touches of pages whose restore was deferred: the page is
    /// faulted in from the snapshot image on demand (lazy restore mode).
    pub lazy: u64,
    /// Warm page touches (no fault; baseline work).
    pub warm: u64,
}

impl FaultCounters {
    /// Total faults excluding warm touches.
    pub fn total_faults(&self) -> u64 {
        self.minor + self.sd_wp + self.cow + self.uffd_wp + self.tlb_cold + self.lazy
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: FaultCounters) {
        self.minor += other.minor;
        self.sd_wp += other.sd_wp;
        self.cow += other.cow;
        self.uffd_wp += other.uffd_wp;
        self.tlb_cold += other.tlb_cold;
        self.lazy += other.lazy;
        self.warm += other.warm;
    }

    /// Returns the current counts and resets them to zero.
    pub fn take(&mut self) -> FaultCounters {
        std::mem::take(self)
    }

    /// Counts accumulated since `earlier` (fieldwise difference; callers
    /// pass a snapshot taken from the same monotonically-growing
    /// accumulator).
    pub fn since(&self, earlier: FaultCounters) -> FaultCounters {
        FaultCounters {
            minor: self.minor - earlier.minor,
            sd_wp: self.sd_wp - earlier.sd_wp,
            cow: self.cow - earlier.cow,
            uffd_wp: self.uffd_wp - earlier.uffd_wp,
            tlb_cold: self.tlb_cold - earlier.tlb_cold,
            lazy: self.lazy - earlier.lazy,
            warm: self.warm - earlier.warm,
        }
    }
}

/// Errors from memory accesses and mapping syscalls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessError {
    /// No VMA covers the page.
    Unmapped(Vpn),
    /// The VMA's permissions forbid the access.
    PermissionDenied(Vpn),
    /// A mapping call was given an invalid or conflicting range.
    BadRange,
}

impl core::fmt::Display for AccessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AccessError::Unmapped(v) => write!(f, "segfault: unmapped page {v:?}"),
            AccessError::PermissionDenied(v) => {
                write!(f, "segfault: permission denied at {v:?}")
            }
            AccessError::BadRange => write!(f, "invalid range"),
        }
    }
}

impl std::error::Error for AccessError {}

/// Kind of page touch performed by function code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Touch {
    /// Read one word from the page.
    Read,
    /// Write the given word into the page (at word index 1).
    WriteWord(u64),
}

impl Touch {
    /// True when a VMA with `perms` allows this touch.
    fn permitted(self, perms: Perms) -> bool {
        match self {
            Touch::Read => perms.r,
            Touch::WriteWord(_) => perms.w,
        }
    }
}

/// Where a lazily-restored page's clean contents come from when its
/// first-touch fault fires (lazy restore mode: the restorer registers
/// the deferred set instead of writing it back, and the fault handler
/// installs each page on demand from the snapshot image).
///
/// Sources are **non-owning**: `Frame` borrows the CoW snapshot's
/// reference into this machine's frame table and `Store` borrows the
/// shared snapshot's reference into the pool store. The manager keeps
/// its snapshot alive for as long as any arming is pending, so the
/// referenced frames cannot be freed underneath a pending entry.
#[derive(Clone, Debug)]
pub enum LazyPageSource {
    /// Snapshot contents held by value (eager/private snapshots).
    Data(FrameData),
    /// Reference into this machine's frame table (a CoW snapshot,
    /// §5.5). A read fault installs the frame *shared* (incref + CoW
    /// PTE) — genuine frame sharing between snapshot and process — and
    /// only a write pays for a private copy.
    Frame(FrameId),
    /// Reference into a pool-shared
    /// [`SnapshotStore`](crate::store::SnapshotStore). The store keeps
    /// the only resident copy until the fault fires; fault-in copies
    /// the page out of the store (store frames live in a separate
    /// table and cannot be PTE-mapped).
    Store {
        /// The pool's store.
        store: StoreHandle,
        /// The page's frame in the store's table.
        frame: FrameId,
    },
}

impl LazyPageSource {
    /// The page contents this source denotes.
    fn resolve(self, frames: &FrameTable) -> FrameData {
        match self {
            LazyPageSource::Data(d) => d,
            LazyPageSource::Frame(id) => frames.data(id).clone(),
            LazyPageSource::Store { store, frame } => {
                store.lock().expect("store poisoned").data(frame).clone()
            }
        }
    }
}

/// Page-presence changes relative to the last snapshot: which present
/// pages the snapshot did not capture (`fresh`) and which captured pages
/// are gone (`dropped`). See the module docs.
#[derive(Clone, Debug, Default)]
struct ChangeIndex {
    /// The present pages when the baseline was last reset, as sorted
    /// maximal runs; `None` until the first reset (so building an image
    /// pays nothing for the indices).
    baseline: Option<Vec<PageRange>>,
    /// Number of baseline resets so far (0: no baseline yet).
    epoch: u64,
    /// Present pages outside the baseline.
    fresh: VpnIndex,
    /// Baseline pages that are not present.
    dropped: VpnIndex,
}

impl ChangeIndex {
    /// True when `vpn` lies in the baseline (`O(log runs)`).
    #[inline]
    fn in_baseline(baseline: &[PageRange], vpn: Vpn) -> bool {
        let i = baseline.partition_point(|r| r.end.0 <= vpn.0);
        baseline.get(i).is_some_and(|r| r.start.0 <= vpn.0)
    }

    /// Records that `vpn` became present.
    #[inline]
    fn inserted(&mut self, vpn: Vpn) {
        if let Some(baseline) = &self.baseline {
            if Self::in_baseline(baseline, vpn) {
                self.dropped.clear(vpn);
            } else {
                self.fresh.set(vpn);
            }
        }
    }

    /// Records that `vpn` stopped being present.
    #[inline]
    fn removed(&mut self, vpn: Vpn) {
        if let Some(baseline) = &self.baseline {
            if Self::in_baseline(baseline, vpn) {
                self.dropped.set(vpn);
            } else {
                self.fresh.clear(vpn);
            }
        }
    }
}

/// The state a page decision updates, borrowed apart from the VMAs, the
/// page table and the lazy-pending set (see [`AddressSpace::split`]) so
/// a walk's decisions can hold it beside the page-table borrow.
struct Tracking<'a> {
    counters: &'a mut FaultCounters,
    dirty: &'a mut VpnIndex,
    tainted: &'a mut VpnIndex,
    changes: &'a mut ChangeIndex,
    uffd_log: &'a mut VpnIndex,
    /// Userfaultfd write-protect mode armed space-wide.
    uffd_armed: bool,
}

impl Tracking<'_> {
    /// The fault decision of one permitted touch `it` of a page whose
    /// state is `cur` (`None` when absent), with `pending` its lazy-restore
    /// source when it had one (already taken from the pending set): the
    /// one copy of the fault state machine, made per item by every touch
    /// walk. It counts the fault, updates the dirty, taint, uffd-log and
    /// change indices, allocates, copies or installs the frame, performs
    /// a write's word write and taint merge, and returns the page's new
    /// PTE for the walk to apply. `fresh_base` is the VMA's
    /// [`AddressSpace::fresh_base`].
    ///
    /// Index writes that provably change nothing are skipped (`dirty` of
    /// an already soft-dirty page, taint bits whose frame taint did not
    /// change): no-ops by the `check_invariants` index⇔flag agreement.
    #[inline(always)]
    fn touch(
        &mut self,
        it: &TouchItem,
        fresh_base: Option<u64>,
        pending: Option<LazyPageSource>,
        cur: Option<(FrameId, PteFlags)>,
        frames: &mut FrameTable,
    ) -> BatchDecision {
        let TouchItem { vpn, touch, taint } = *it;
        if let Some(src) = pending {
            // Deferred restoration: one fault installs the snapshot
            // contents and services the access; for a write the same
            // single #PF resolves the tracking write-protect (no
            // separate SD/UFFD fault is charged).
            self.counters.lazy += 1;
            let Touch::WriteWord(val) = touch else {
                let (frame, flags) = self.install_lazy(vpn, src, self.armed(), true, cur, frames);
                return BatchDecision::Set { frame, flags };
            };
            if self.uffd_armed {
                self.uffd_log.set(vpn);
            }
            let (frame, flags) =
                self.install_lazy(vpn, src, PteFlags::SOFT_DIRTY, false, cur, frames);
            self.write_word(vpn, frame, val, taint, frames);
            return BatchDecision::Set { frame, flags };
        }
        let Some((old_frame, old_flags)) = cur else {
            // Minor fault. Linux marks every newly installed PTE
            // soft-dirty (Documentation/admin-guide/mm/soft-dirty.rst:
            // "the kernel always marks new memory regions ... as soft
            // dirty") so that unmap/remap churn cannot hide changes —
            // Groundhog's restore correctness depends on this.
            self.counters.minor += 1;
            let frame = frames.alloc(AddressSpace::fresh_from_base(fresh_base, vpn), Taint::Clean);
            if let Touch::WriteWord(val) = touch {
                self.write_word(vpn, frame, val, taint, frames);
            }
            self.dirty.set(vpn);
            self.changes.inserted(vpn);
            return BatchDecision::Set {
                frame,
                flags: PteFlags::PRESENT.with(PteFlags::SOFT_DIRTY),
            };
        };
        let Touch::WriteWord(val) = touch else {
            // A read faults only on a TLB-cold page.
            let flags = if old_flags.contains(PteFlags::TLB_COLD) {
                self.counters.tlb_cold += 1;
                old_flags.without(PteFlags::TLB_COLD)
            } else {
                self.counters.warm += 1;
                old_flags
            };
            return BatchDecision::Set {
                frame: old_frame,
                flags,
            };
        };
        let mut frame = old_frame;
        let mut flags = old_flags;
        let mut faulted = false;
        if flags.contains(PteFlags::TLB_COLD) {
            self.counters.tlb_cold += 1;
            flags = flags.without(PteFlags::TLB_COLD);
            faulted = true;
        }
        if flags.contains(PteFlags::COW) {
            self.counters.cow += 1;
            if frames.is_shared(frame) {
                frame = frames.cow_copy(frame);
            }
            flags = flags.without(PteFlags::COW);
            faulted = true;
        }
        if flags.contains(PteFlags::UFFD_WP) {
            self.counters.uffd_wp += 1;
            self.uffd_log.set(vpn);
            flags = flags.without(PteFlags::UFFD_WP).with(PteFlags::SOFT_DIRTY);
            faulted = true;
        } else if flags.contains(PteFlags::SD_WP) {
            // One hardware #PF resolves CoW and soft-dirty arming
            // together: don't double-count when a CoW fault already
            // fired for this write.
            if !faulted {
                self.counters.sd_wp += 1;
            }
            flags = flags.without(PteFlags::SD_WP).with(PteFlags::SOFT_DIRTY);
            faulted = true;
        } else {
            flags |= PteFlags::SOFT_DIRTY;
        }
        if !faulted {
            self.counters.warm += 1;
        }
        // A frame shared *without* a CoW arming is structural sharing
        // only (an eager snapshot's run capture): the write silently
        // unshares it — real page-copy work on the host, but no fault is
        // charged, exactly like the eager full-copy snapshot it stands
        // in for.
        if frames.is_shared(frame) {
            frame = frames.cow_copy(frame);
        }
        // Every branch above left the page soft-dirty.
        if !old_flags.contains(PteFlags::SOFT_DIRTY) {
            self.dirty.set(vpn);
        }
        self.write_word(vpn, frame, val, taint, frames);
        BatchDecision::Set { frame, flags }
    }

    /// Writes `val` into word 1 of `vpn`'s private `frame` and merges the
    /// request's `taint` into the frame's. A merge never clears taint,
    /// so the taint bit only ever needs setting.
    #[inline(always)]
    fn write_word(
        &mut self,
        vpn: Vpn,
        frame: FrameId,
        val: u64,
        taint: Taint,
        frames: &mut FrameTable,
    ) {
        let (data, t) = frames.data_mut(frame);
        data.write_word(1, val);
        let was_tainted = t.is_tainted();
        *t = t.merge(taint);
        if t.is_tainted() && !was_tainted {
            self.tainted.set(vpn);
        }
    }

    /// The write-protect flag a clean page is armed with: userfaultfd's
    /// while it is armed, soft-dirty's otherwise.
    fn armed(&self) -> PteFlags {
        if self.uffd_armed {
            PteFlags::UFFD_WP
        } else {
            PteFlags::SD_WP
        }
    }

    /// Installs the snapshot contents `src` of the lazy-pending page
    /// `vpn` (state `cur`) with the tracking `flags`, leaving the page as
    /// an eager restore plus tracker re-arm would (both the lazy fault
    /// and the drain end here): a read fault of a CoW snapshot's frame
    /// (`share`) maps that frame shared and copy-on-write (the §5.5
    /// memory win carried into the fault path; a later write takes the
    /// normal CoW copy), and every other install writes the contents
    /// back into a private, clean frame as [`Tracking::overwrite`] does.
    /// The page's dirty and taint bits follow its new flags and frame.
    /// Returns the page's new frame and flags.
    fn install_lazy(
        &mut self,
        vpn: Vpn,
        src: LazyPageSource,
        flags: PteFlags,
        share: bool,
        cur: Option<(FrameId, PteFlags)>,
        frames: &mut FrameTable,
    ) -> (FrameId, PteFlags) {
        let (frame, flags) = match src {
            LazyPageSource::Frame(id) if share => {
                frames.incref(id);
                match cur {
                    Some((old, _)) => frames.decref(old),
                    None => self.changes.inserted(vpn),
                }
                (id, flags.with(PteFlags::COW))
            }
            src => {
                let data = src.resolve(frames);
                let (frame, _) = self.overwrite(vpn, data, Taint::Clean, cur, frames);
                (frame, flags)
            }
        };
        if flags.contains(PteFlags::SOFT_DIRTY) {
            self.dirty.set(vpn);
        } else {
            self.dirty.clear(vpn);
        }
        if frames.taint(frame).is_tainted() {
            self.tainted.set(vpn);
        } else {
            self.tainted.clear(vpn);
        }
        (frame, PteFlags::PRESENT.with(flags))
    }

    /// The writeback of `page` with `taint` over `vpn` (state `cur`),
    /// bypassing fault accounting: the one overwrite decision of
    /// [`AddressSpace::restore_runs`] and the lazy installs. A private
    /// frame is overwritten in place. A shared one is replaced by a
    /// freshly allocated private frame, dropping the CoW mark, instead of
    /// CoW-copying contents the overwrite would discard (an eager
    /// snapshot shares every frame it captured). An absent page is
    /// installed present with no tracking flags. Returns the page's new
    /// frame and flags.
    fn overwrite(
        &mut self,
        vpn: Vpn,
        page: FrameData,
        taint: Taint,
        cur: Option<(FrameId, PteFlags)>,
        frames: &mut FrameTable,
    ) -> (FrameId, PteFlags) {
        match cur {
            Some((frame, flags)) if frames.is_shared(frame) => {
                frames.decref(frame);
                (frames.alloc(page, taint), flags.without(PteFlags::COW))
            }
            Some((frame, flags)) => {
                frames.overwrite(frame, page, taint);
                (frame, flags)
            }
            None => {
                self.changes.inserted(vpn);
                (frames.alloc(page, taint), PteFlags::PRESENT)
            }
        }
    }
}

/// Pages armed for on-demand restoration, keyed by vpn.
type Pending = BTreeMap<u64, LazyPageSource>;

/// A process's virtual address space.
#[derive(Debug)]
pub struct AddressSpace {
    cfg: SpaceConfig,
    /// VMAs keyed by start vpn; invariant: non-overlapping, each non-empty.
    vmas: BTreeMap<u64, Vma>,
    /// Unmapped intervals of `[0, mmap_top)`, keyed by end vpn → start
    /// vpn; invariant: exactly the complement of `vmas` within
    /// `[0, mmap_top)` — disjoint, non-empty and maximal (no two touch).
    /// Once built, only `cover` and `uncover` edit it.
    free: BTreeMap<u64, u64>,
    /// Total pages covered by `vmas`; invariant: the sum of their lengths.
    mapped: u64,
    /// Extent-based page table; invariant: every present page lies in a VMA.
    pt: PageTable,
    /// Soft-dirty index; invariant: bit set ⇔ present page with
    /// [`PteFlags::SOFT_DIRTY`].
    dirty: VpnIndex,
    /// Pages whose frame carries request taint; invariant: bit set ⇔
    /// present page whose frame's taint is not `Clean`.
    tainted: VpnIndex,
    /// Present-set changes since the last snapshot; invariant (once a
    /// baseline exists): `fresh` = present ∖ baseline and `dropped` =
    /// baseline ∖ present.
    changes: ChangeIndex,
    /// Current program break (one past the last heap page).
    brk: Vpn,
    /// Fault accounting.
    counters: FaultCounters,
    /// Userfaultfd write-protect mode armed space-wide.
    uffd_armed: bool,
    /// Pages reported by userfaultfd since arming (ascending index; a
    /// page notifies at most once per arming, so no dedup is needed).
    uffd_log: VpnIndex,
    /// Pages armed for on-demand restoration (lazy restore mode), keyed
    /// by vpn. A touch of a pending page takes one lazy fault that
    /// installs the snapshot contents before the access proceeds; pages
    /// never touched stay pending (their stale frames are unobservable —
    /// every access is intercepted) until the next arming or a drain.
    lazy_pending: Pending,
    /// Obligations discarded because their mapping was dropped
    /// (`munmap`/`madvise`/brk shrink) before they were touched —
    /// harvested by the manager so the page-work conservation law
    /// (`deferred = faulted + drained + dropped + pending`) stays exact
    /// under VMA churn.
    lazy_dropped: u64,
}

impl AddressSpace {
    /// Creates an address space with an empty heap and an initial stack.
    pub fn new(cfg: SpaceConfig, frames: &mut FrameTable) -> AddressSpace {
        let _ = frames; // reserved for future eager mappings
        let stack_range = PageRange::new(Vpn(cfg.stack_top.0 - cfg.stack_pages), cfg.stack_top);
        let mut space = AddressSpace {
            cfg,
            vmas: BTreeMap::new(),
            // Nothing is mapped yet: all of `[0, mmap_top)` is free.
            free: (cfg.mmap_top.0 > 0)
                .then_some((cfg.mmap_top.0, 0))
                .into_iter()
                .collect(),
            mapped: 0,
            pt: PageTable::new(),
            dirty: VpnIndex::new(),
            tainted: VpnIndex::new(),
            changes: ChangeIndex::default(),
            brk: cfg.heap_base,
            counters: FaultCounters::default(),
            uffd_armed: false,
            uffd_log: VpnIndex::new(),
            lazy_pending: BTreeMap::new(),
            lazy_dropped: 0,
        };
        space.cover(stack_range);
        space.vmas.insert(
            stack_range.start.0,
            Vma::new(stack_range, Perms::RW, VmaKind::Stack),
        );
        space
    }

    /// The geometry this space was created with.
    pub fn config(&self) -> SpaceConfig {
        self.cfg
    }

    // ---------------------------------------------------------------
    // VMA queries
    // ---------------------------------------------------------------

    /// The VMA containing `vpn`, if any.
    pub fn vma_at(&self, vpn: Vpn) -> Option<&Vma> {
        Self::vma_in(&self.vmas, vpn)
    }

    /// The VMA of `vmas` containing `vpn`, if any.
    fn vma_in(vmas: &BTreeMap<u64, Vma>, vpn: Vpn) -> Option<&Vma> {
        vmas.range(..=vpn.0)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.range.contains(vpn))
    }

    /// Splits the space into its VMAs, its page table, its lazy-pending
    /// set and the state a page decision updates.
    fn split(
        &mut self,
    ) -> (
        &BTreeMap<u64, Vma>,
        &mut PageTable,
        &mut Pending,
        Tracking<'_>,
    ) {
        let AddressSpace {
            vmas,
            pt,
            dirty,
            tainted,
            changes,
            counters,
            uffd_armed,
            uffd_log,
            lazy_pending,
            ..
        } = self;
        let tracking = Tracking {
            counters,
            dirty,
            tainted,
            changes,
            uffd_log,
            uffd_armed: *uffd_armed,
        };
        (vmas, pt, lazy_pending, tracking)
    }

    /// All VMAs in address order, borrowed (allocation-free `maps` view).
    pub fn vmas_iter(&self) -> impl Iterator<Item = &Vma> + '_ {
        self.vmas.values()
    }

    /// All VMAs in address order (a `/proc/pid/maps` read).
    pub fn maps(&self) -> Vec<Vma> {
        self.vmas.values().cloned().collect()
    }

    /// Renders `/proc/pid/maps`.
    pub fn render_maps(&self) -> String {
        let mut s = String::new();
        for v in self.vmas.values() {
            s.push_str(&v.render());
            s.push('\n');
        }
        s
    }

    /// Number of VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Total pages covered by VMAs — `O(1)`: the total is kept current
    /// by every call that changes VMA coverage.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Pages with a present PTE (the RSS).
    pub fn present_pages(&self) -> u64 {
        self.pt.len()
    }

    /// Number of page-table extents (maximal equal-flag runs).
    pub fn extent_count(&self) -> usize {
        self.pt.extent_count()
    }

    /// Current program break page.
    pub fn brk(&self) -> Vpn {
        self.brk
    }

    /// Fault counters (mutable so callers can `take()` deltas).
    pub fn counters_mut(&mut self) -> &mut FaultCounters {
        &mut self.counters
    }

    /// Fault counters, read-only.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    // ---------------------------------------------------------------
    // Mapping syscalls
    // ---------------------------------------------------------------

    /// Finds a free region of `len` pages below `mmap_top`, top-down:
    /// the top `len` pages of the highest free interval at least `len`
    /// long. Walks the free-interval map down from `mmap_top`, so the
    /// work is `O(log F + k)` for the `k` intervals too short to fit —
    /// VMAs packed against each other (image regions with their guards)
    /// form no interval and cost nothing.
    fn find_free(&self, len: u64) -> Option<PageRange> {
        if len == 0 {
            return None;
        }
        self.free
            .iter()
            .rev()
            .find(|&(&end, &start)| end - start >= len)
            .map(|(&end, _)| PageRange::new(Vpn(end - len), Vpn(end)))
    }

    /// Records that `range`, wholly unmapped until now, is covered by a
    /// VMA: adds its pages to the mapped total and carves its part below
    /// `mmap_top` out of the one free interval that must hold it.
    /// Panics (in release builds too) if any page of that part was
    /// already mapped.
    fn cover(&mut self, range: PageRange) {
        self.mapped += range.len();
        let (start, end) = (range.start.0, range.end.0.min(self.cfg.mmap_top.0));
        if start >= end {
            return;
        }
        // The free interval holding `start` is the first ending above it.
        let hole = self.free.range(start + 1..).next().map(|(&e, &s)| (s, e));
        let Some((hole_start, hole_end)) = hole.filter(|&(s, e)| s <= start && end <= e) else {
            panic!("cover {range:?}: range is not wholly free (hole {hole:?})");
        };
        if end < hole_end {
            self.free.insert(hole_end, end);
        } else {
            self.free.remove(&hole_end);
        }
        if hole_start < start {
            self.free.insert(start, hole_start);
        }
    }

    /// Records that `range`, wholly mapped until now, lost its VMA
    /// coverage: subtracts its pages from the mapped total and returns
    /// its part below `mmap_top` to the free map, merged with the free
    /// intervals it touches. Panics (in release builds too) if any page
    /// of that part was already free.
    fn uncover(&mut self, range: PageRange) {
        self.mapped = self
            .mapped
            .checked_sub(range.len())
            .unwrap_or_else(|| panic!("uncover {range:?}: more pages than are mapped"));
        let (mut start, end) = (range.start.0, range.end.0.min(self.cfg.mmap_top.0));
        if start >= end {
            return;
        }
        let mut merged_end = end;
        // The first free interval ending above `start` must begin at or
        // above `end`; it is the right neighbour when it begins exactly
        // there.
        if let Some((&above_end, &above_start)) = self.free.range(start + 1..).next() {
            assert!(
                above_start >= end,
                "uncover {range:?}: free interval [{above_start:#x}, {above_end:#x}) overlaps it"
            );
            if above_start == end {
                self.free.remove(&above_end);
                merged_end = above_end;
            }
        }
        // The left neighbour is the interval ending exactly at `start`.
        if let Some(below_start) = self.free.remove(&start) {
            start = below_start;
        }
        self.free.insert(merged_end, start);
    }

    /// `mmap(NULL, len, ...)`: maps `len` pages at a kernel-chosen address.
    pub fn mmap(
        &mut self,
        len: u64,
        perms: Perms,
        kind: VmaKind,
    ) -> Result<PageRange, AccessError> {
        let range = self.find_free(len).ok_or(AccessError::BadRange)?;
        self.cover(range);
        self.insert_vma(Vma::new(range, perms, kind));
        Ok(range)
    }

    /// `mmap(addr, len, ..., MAP_FIXED)`: maps exactly `range`, failing on
    /// any overlap with an existing mapping.
    pub fn mmap_fixed(
        &mut self,
        range: PageRange,
        perms: Perms,
        kind: VmaKind,
    ) -> Result<(), AccessError> {
        if range.is_empty() {
            return Err(AccessError::BadRange);
        }
        if self.overlaps_any(range) {
            return Err(AccessError::BadRange);
        }
        self.cover(range);
        self.insert_vma(Vma::new(range, perms, kind));
        Ok(())
    }

    fn overlaps_any(&self, range: PageRange) -> bool {
        self.vmas
            .range(..range.end.0)
            .next_back()
            .is_some_and(|(_, v)| v.range.overlaps(range))
            || self.vmas.range(range.start.0..range.end.0).next().is_some()
    }

    /// Inserts a VMA, merging with adjacent compatible anonymous VMAs.
    fn insert_vma(&mut self, mut vma: Vma) {
        // Merge with predecessor.
        if let Some((&start, prev)) = self.vmas.range(..vma.range.start.0).next_back() {
            if prev.range.end == vma.range.start && prev.can_merge_with(&vma) {
                vma.range.start = prev.range.start;
                self.vmas.remove(&start);
            }
        }
        // Merge with successor.
        if let Some((&start, next)) = self.vmas.range(vma.range.end.0..).next() {
            if next.range.start == vma.range.end && vma.can_merge_with(next) {
                vma.range.end = next.range.end;
                self.vmas.remove(&start);
            }
        }
        self.vmas.insert(vma.range.start.0, vma);
    }

    /// `munmap(range)`: removes all mappings in `range`, splitting VMAs
    /// that straddle the boundary and releasing frames of present pages.
    /// Finds the affected VMAs by walking down from `range.end` until a
    /// VMA ends at or below `range.start`: `O(log V)` per affected VMA.
    pub fn munmap(&mut self, range: PageRange, frames: &mut FrameTable) -> Result<(), AccessError> {
        if range.is_empty() {
            return Err(AccessError::BadRange);
        }
        // Each step removes the highest affected VMA; its right remainder
        // starts at `range.end` and its left remainder ends at
        // `range.start`, so neither is visited again.
        while let Some(vma) = self.pop_overlapping(range) {
            let cut = vma.range.intersect(range);
            self.uncover(cut);
            // Left remainder.
            if vma.range.start.0 < cut.start.0 {
                let left = Vma::new(
                    PageRange::new(vma.range.start, cut.start),
                    vma.perms,
                    vma.kind.clone(),
                );
                self.vmas.insert(left.range.start.0, left);
            }
            // Right remainder.
            if cut.end.0 < vma.range.end.0 {
                let right = Vma::new(PageRange::new(cut.end, vma.range.end), vma.perms, vma.kind);
                self.vmas.insert(right.range.start.0, right);
            }
        }
        self.drop_pages_in(range, frames);
        Ok(())
    }

    /// Removes and returns the highest VMA overlapping `range`: the last
    /// one starting below `range.end`, if it ends above `range.start`.
    fn pop_overlapping(&mut self, range: PageRange) -> Option<Vma> {
        let (&start, vma) = self.vmas.range(..range.end.0).next_back()?;
        if vma.range.end.0 <= range.start.0 {
            return None;
        }
        self.vmas.remove(&start)
    }

    /// `mprotect(range, perms)`: changes permissions, splitting VMAs.
    pub fn mprotect(&mut self, range: PageRange, perms: Perms) -> Result<(), AccessError> {
        if range.is_empty() {
            return Err(AccessError::BadRange);
        }
        // Every page of the range must be mapped (POSIX ENOMEM otherwise).
        let mut cursor = range.start;
        while cursor.0 < range.end.0 {
            let vma = self.vma_at(cursor).ok_or(AccessError::Unmapped(cursor))?;
            cursor = vma.range.end;
        }
        // Remove every affected VMA before inserting pieces: `insert_vma`
        // may merge a piece with an adjacent affected VMA. Pieces go back
        // in ascending address order, which fixes which neighbours they
        // merge with.
        let removed: Vec<Vma> = std::iter::from_fn(|| self.pop_overlapping(range)).collect();
        for vma in removed.into_iter().rev() {
            let cut = vma.range.intersect(range);
            if vma.range.start.0 < cut.start.0 {
                self.vmas.insert(
                    vma.range.start.0,
                    Vma::new(
                        PageRange::new(vma.range.start, cut.start),
                        vma.perms,
                        vma.kind.clone(),
                    ),
                );
            }
            self.insert_vma(Vma::new(cut, perms, vma.kind.clone()));
            if cut.end.0 < vma.range.end.0 {
                self.vmas.insert(
                    cut.end.0,
                    Vma::new(PageRange::new(cut.end, vma.range.end), vma.perms, vma.kind),
                );
            }
        }
        Ok(())
    }

    /// `brk(new_brk)`: grows or shrinks the heap. Returns the new break.
    pub fn set_brk(&mut self, new_brk: Vpn, frames: &mut FrameTable) -> Result<Vpn, AccessError> {
        if new_brk.0 < self.cfg.heap_base.0 {
            return Err(AccessError::BadRange);
        }
        let old = self.brk;
        if new_brk.0 > old.0 {
            // Grow: extend or create the heap VMA.
            let grow = PageRange::new(old, new_brk);
            if self.overlaps_any(grow) {
                return Err(AccessError::BadRange);
            }
            self.cover(grow);
            if let Some(s) = self.heap_ending_at(old) {
                let mut v = self.vmas.remove(&s).expect("heap vma");
                v.range.end = new_brk;
                self.vmas.insert(v.range.start.0, v);
            } else {
                self.vmas
                    .insert(grow.start.0, Vma::new(grow, Perms::RW, VmaKind::Heap));
            }
        } else if new_brk.0 < old.0 {
            let shrink = PageRange::new(new_brk, old);
            // Heap VMA must cover the released range.
            let Some(s) = self.heap_ending_at(old) else {
                return Err(AccessError::BadRange);
            };
            let mut v = self.vmas.remove(&s).expect("heap vma");
            if new_brk.0 <= v.range.start.0 {
                // Whole heap VMA released.
                self.uncover(v.range);
            } else {
                self.uncover(PageRange::new(new_brk, old));
                v.range.end = new_brk;
                self.vmas.insert(v.range.start.0, v);
            }
            self.drop_pages_in(shrink, frames);
        }
        self.brk = new_brk;
        Ok(self.brk)
    }

    /// Start key of the heap VMA ending exactly at `end`, if any. Such a
    /// VMA is the last one starting below `end` (VMAs are disjoint), so
    /// this is one map lookup.
    fn heap_ending_at(&self, end: Vpn) -> Option<u64> {
        self.vmas
            .range(..end.0)
            .next_back()
            .filter(|(_, v)| matches!(v.kind, VmaKind::Heap) && v.range.end == end)
            .map(|(&s, _)| s)
    }

    /// `madvise(range, MADV_DONTNEED)`: releases frames; contents are lost
    /// and the next touch takes a fresh minor fault.
    pub fn madvise_dontneed(
        &mut self,
        range: PageRange,
        frames: &mut FrameTable,
    ) -> Result<(), AccessError> {
        if range.is_empty() {
            return Err(AccessError::BadRange);
        }
        self.drop_pages_in(range, frames);
        Ok(())
    }

    fn drop_pages_in(&mut self, range: PageRange, frames: &mut FrameTable) {
        self.evict_runs(&[range], frames);
        // A dropped mapping takes its deferred-restore obligation with it
        // (matching eager semantics: post-restore madvise/munmap loses
        // the restored contents; the *next* restore re-arms the page via
        // its snapshot ∖ present term).
        if !self.lazy_pending.is_empty() {
            let doomed: Vec<u64> = self
                .lazy_pending
                .range(range.start.0..range.end.0)
                .map(|(&v, _)| v)
                .collect();
            for v in doomed {
                self.lazy_pending.remove(&v);
                self.lazy_dropped += 1;
            }
        }
    }

    // ---------------------------------------------------------------
    // Fault paths
    // ---------------------------------------------------------------

    /// Pattern seed of a VMA's fresh pages: `Some(base)` for file
    /// mappings (page `vpn` reads as `Pattern(base ^ vpn)`), `None` for
    /// zero-filled.
    fn fresh_base(vma: &Vma) -> Option<u64> {
        match &vma.kind {
            VmaKind::File(name) => {
                // Deterministic per (file, page) pattern standing in for
                // file contents (FNV-1a over the name).
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in name.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
                Some(h)
            }
            _ => None,
        }
    }

    /// Fresh contents of page `vpn` given a VMA's pattern base.
    fn fresh_from_base(base: Option<u64>, vpn: Vpn) -> FrameData {
        match base {
            Some(h) => FrameData::Pattern(h ^ vpn.0),
            None => FrameData::Zero,
        }
    }

    /// Performs a page-granular touch (the unit of work function
    /// behaviours are built from): a one-item walk of
    /// [`AddressSpace::touch_batch`], so it makes the batch's fault
    /// decision, a lazy fault for a page with a pending lazy-restore
    /// obligation included.
    pub fn touch(
        &mut self,
        vpn: Vpn,
        touch: Touch,
        taint: Taint,
        frames: &mut FrameTable,
    ) -> Result<(), AccessError> {
        let mut result = Ok(());
        self.apply_touches(&[TouchItem { vpn, touch, taint }], frames, |e| {
            result = Err(e)
        });
        result
    }

    /// Applies a whole [`TouchBatch`] — bit-identical to calling
    /// [`AddressSpace::touch`] once per item in item order with per-item
    /// errors ignored, but resolved in **one ordered cursor walk** over
    /// the extent map and frame chunks: `O(batch + touched extents +
    /// touched chunks)` instead of `O(batch × log extents)`. A page with
    /// a pending lazy-restore obligation takes its lazy fault inside the
    /// same walk. Returns the batch's aggregate fault counters (also
    /// accumulated into [`AddressSpace::counters`] exactly like per-page
    /// touches) plus the number of items that errored (unmapped /
    /// permission-denied — the items a `let _ = touch(..)` loop would
    /// silently skip; callers that used to `expect` every touch assert
    /// `failed == 0`).
    pub fn touch_batch(&mut self, batch: &TouchBatch, frames: &mut FrameTable) -> BatchOutcome {
        let before = self.counters;
        let mut failed = 0u64;
        if batch.is_sorted() {
            self.apply_touches(batch.items(), frames, |_| failed += 1);
        } else {
            // Correctness fallback: one walk per item, in item order.
            for it in batch.items() {
                self.apply_touches(std::slice::from_ref(it), frames, |_| failed += 1);
            }
        }
        BatchOutcome {
            faults: self.counters.since(before),
            failed,
        }
    }

    /// Reads every page of `vpns` — bit-identical to calling
    /// [`AddressSpace::touch`] with [`Touch::Read`] once per page in
    /// slice order with per-page errors ignored — as a **span**: one
    /// extent cursor, one VMA cursor and one cursor over the lazy-pending
    /// set walk the ascending slice. A *warm* page (present, not
    /// TLB-cold, in a readable VMA, no pending lazy obligation) costs at
    /// most one cursor step: the first page of a quiet run takes it, and
    /// the cursors bound the run — the end of the page's extent, of its
    /// VMA and the next pending page — so every later page of the slice
    /// below that bound is one comparison. The run's pages are added to
    /// `warm` at once. A warm read changes nothing but that count, so it
    /// commutes with every other read of the span.
    ///
    /// Every other page — absent, TLB-cold, lazy-pending, unmapped or
    /// unreadable, and each later duplicate of such a page — goes, in
    /// order, into `slow` (cleared first; the caller's reused scratch),
    /// which [`AddressSpace::touch_batch`] then applies: the only slow
    /// path. An unsorted slice goes into `slow` whole, so it takes
    /// `touch_batch`'s per-item fallback.
    ///
    /// Returns the aggregate fault counters (also accumulated into
    /// [`AddressSpace::counters`]) and the number of pages that errored.
    pub fn read_span(
        &mut self,
        vpns: &[Vpn],
        frames: &mut FrameTable,
        slow: &mut TouchBatch,
    ) -> BatchOutcome {
        let before = self.counters;
        slow.clear();
        let Some(first) = vpns.first() else {
            return BatchOutcome::default();
        };
        let mut cursor = self.pt.cursor(first.0);
        let mut lazy = self.lazy_pending.range(first.0..).map(|(&v, _)| v);
        let mut next_lazy = lazy.next();
        // `(range, readable)` of the VMA — or the unmapped gap — that held
        // the last page looked up: one tree lookup per VMA or gap crossed.
        let mut vma: Option<(PageRange, bool)> = None;
        let mut warm = 0u64;
        let mut i = 0usize;
        // The highest page handled so far.
        let mut last = first.0;
        while let Some(&vpn) = vpns.get(i) {
            if vpn.0 < last {
                // Unsorted: every page takes the per-item path.
                slow.clear();
                for &v in vpns {
                    slow.push(v, Touch::Read, Taint::Clean);
                }
                warm = 0;
                break;
            }
            while next_lazy.is_some_and(|v| v < vpn.0) {
                next_lazy = lazy.next();
            }
            let (vma_end, readable) = match vma {
                Some((range, readable)) if range.contains(vpn) => (range.end.0, readable),
                _ => {
                    let (range, readable) = match self.vma_at(vpn) {
                        Some(v) => (v.range, v.perms.r),
                        None => {
                            // The gap up to the next VMA.
                            let end = self.vmas.range(vpn.0..).next();
                            let end = Vpn(end.map_or(u64::MAX, |(&s, _)| s));
                            (PageRange::new(vpn, end), false)
                        }
                    };
                    vma = Some((range, readable));
                    (range.end.0, readable)
                }
            };
            match cursor.extent(vpn.0) {
                Some((extent_end, flags))
                    if readable
                        && next_lazy != Some(vpn.0)
                        && !flags.contains(PteFlags::TLB_COLD) =>
                {
                    // Every page from `vpn` up to the end of its extent,
                    // its VMA and the next pending page is warm: count the
                    // ascending run of the slice below that bound.
                    let quiet_end = extent_end.min(vma_end).min(next_lazy.unwrap_or(u64::MAX));
                    let from = i;
                    while let Some(&v) = vpns.get(i) {
                        if v.0 >= quiet_end || v.0 < last {
                            break;
                        }
                        last = v.0;
                        i += 1;
                    }
                    warm += (i - from) as u64;
                }
                _ => {
                    // This page and its duplicates take the slow path.
                    while vpns.get(i) == Some(&vpn) {
                        slow.push(vpn, Touch::Read, Taint::Clean);
                        i += 1;
                    }
                    last = vpn.0;
                }
            }
        }
        self.counters.warm += warm;
        let failed = self.touch_batch(slow, frames).failed;
        BatchOutcome {
            faults: self.counters.since(before),
            failed,
        }
    }

    /// The walk behind [`AddressSpace::touch`] and
    /// [`AddressSpace::touch_batch`]: applies `items` (sorted by vpn) in
    /// item order in one page-table walk. Looks up each item's VMA with a
    /// cursor (one map probe per distinct VMA), checks its permission,
    /// takes its pending lazy-restore source if it has one, and hands the
    /// walk the fault decision. Each item that errors (unmapped or
    /// denied, left untouched) goes to `failed`.
    fn apply_touches(
        &mut self,
        items: &[TouchItem],
        frames: &mut FrameTable,
        mut failed: impl FnMut(AccessError),
    ) {
        let (vmas, pt, pending, mut tracking) = self.split();
        // (range, perms, fresh-pattern base) of the current VMA.
        let mut cur_vma: Option<(PageRange, Perms, Option<u64>)> = None;
        pt.walk(items.iter().map(|it| (it.vpn.0, it)), |_, it, cur| {
            let (perms, fresh_base) = match cur_vma {
                Some((range, perms, base)) if range.contains(it.vpn) => (perms, base),
                _ => {
                    let Some(vma) = Self::vma_in(vmas, it.vpn) else {
                        failed(AccessError::Unmapped(it.vpn));
                        return BatchDecision::Skip;
                    };
                    let base = Self::fresh_base(vma);
                    cur_vma = Some((vma.range, vma.perms, base));
                    (vma.perms, base)
                }
            };
            if !it.touch.permitted(perms) {
                failed(AccessError::PermissionDenied(it.vpn));
                return BatchDecision::Skip;
            }
            let src = pending.remove(&it.vpn.0);
            tracking.touch(it, fresh_base, src, cur, frames)
        });
    }

    // ---------------------------------------------------------------
    // Lazy (on-demand) restoration
    // ---------------------------------------------------------------

    /// Arms pages for on-demand restoration: the restorer's `DeferArm`
    /// pass registers the restore set here instead of writing it back.
    /// Entries merge with any still-pending pages from earlier armings
    /// (a page that was never touched keeps its obligation; its source
    /// still denotes the same snapshot contents).
    pub fn arm_lazy(&mut self, pages: BTreeMap<u64, LazyPageSource>) {
        self.lazy_pending.extend(pages);
    }

    /// Number of pages still awaiting on-demand restoration.
    pub fn lazy_pending_len(&self) -> usize {
        self.lazy_pending.len()
    }

    /// Pages still awaiting on-demand restoration, ascending.
    pub fn lazy_pending_vpns(&self) -> Vec<Vpn> {
        self.lazy_pending.keys().map(|&v| Vpn(v)).collect()
    }

    /// Still-pending pages coalesced into maximal runs, ascending
    /// (`O(pending)`).
    pub fn lazy_pending_runs(&self) -> Vec<PageRange> {
        crate::runs::runs_from_sorted(self.lazy_pending.keys().copied())
    }

    /// Returns (and resets) the count of obligations discarded by
    /// mapping drops since the last harvest.
    pub fn take_lazy_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.lazy_dropped)
    }

    /// The unharvested dropped-obligation count, non-destructively.
    pub fn lazy_dropped(&self) -> u64 {
        self.lazy_dropped
    }

    /// Writes back up to `limit` pending pages in address order (the
    /// background-drain path: the manager copies pages back during idle
    /// time, so no fault is counted) in one page-table walk, each in a
    /// private frame, clean and write-protect armed. Returns the number
    /// drained.
    pub fn drain_lazy(&mut self, limit: u64, frames: &mut FrameTable) -> u64 {
        let (_, pt, pending, mut tracking) = self.split();
        let before = pending.len();
        let armed = tracking.armed();
        let pages = std::iter::from_fn(|| pending.pop_first()).take(limit as usize);
        pt.walk(pages, |vpn, src, cur| {
            let (frame, flags) = tracking.install_lazy(Vpn(vpn), src, armed, false, cur, frames);
            BatchDecision::Set { frame, flags }
        });
        (before - self.lazy_pending.len()) as u64
    }

    // ---------------------------------------------------------------
    // Tracking: soft-dirty and userfaultfd
    // ---------------------------------------------------------------

    /// Marks every present page copy-on-write (a CoW snapshot sharing
    /// frames with an observer; the next write to each page copies it).
    /// The caller is responsible for holding references to the frames.
    /// `O(extents)`.
    pub fn mark_all_cow(&mut self) {
        self.pt.transform_flags(|f| f.with(PteFlags::COW));
    }

    /// `echo 4 > /proc/pid/clear_refs`: clears all soft-dirty bits and
    /// write-protects present pages so the next write faults.
    /// `O(extents)` — the steady state after a request that dirtied `D`
    /// pages holds `O(initial extents + D)` extents, so re-arming costs
    /// `O(extents + D)`, never `O(present)`.
    pub fn clear_soft_dirty(&mut self) {
        self.pt
            .transform_flags(|f| f.without(PteFlags::SOFT_DIRTY).with(PteFlags::SD_WP));
        self.dirty.clear_all();
    }

    /// Arms userfaultfd write-protection on all present pages and starts a
    /// fresh event log (the UFFD tracking backend of §4.3). `O(extents)`.
    pub fn arm_uffd_wp(&mut self) {
        self.uffd_armed = true;
        self.uffd_log.clear_all();
        self.pt
            .transform_flags(|f| f.with(PteFlags::UFFD_WP).without(PteFlags::SOFT_DIRTY));
        self.dirty.clear_all();
    }

    /// Disarms userfaultfd mode, returning the logged dirty pages
    /// (ascending). `O(extents + logged)`.
    pub fn disarm_uffd(&mut self) -> Vec<Vpn> {
        self.uffd_armed = false;
        self.pt.transform_flags(|f| f.without(PteFlags::UFFD_WP));
        let log = self.uffd_log.to_vec();
        self.uffd_log.clear_all();
        log
    }

    /// True if userfaultfd mode is armed.
    pub fn uffd_armed(&self) -> bool {
        self.uffd_armed
    }

    /// The soft-dirty pages in ascending order — an `O(dirty)` index
    /// scan, not a pagemap walk.
    pub fn soft_dirty_pages(&self) -> Vec<Vpn> {
        self.dirty.to_vec()
    }

    /// Work units a [`AddressSpace::soft_dirty_pages`] scan performs
    /// (index groups + leaves + set bits). Depends only on the dirty set
    /// and its spread — **never** on the mapped or present page count;
    /// the O(dirty) counter tests assert on this.
    pub fn soft_dirty_scan_work(&self) -> u64 {
        self.dirty.scan_work()
    }

    /// Iterates `(vpn, pte)` over present pages in ascending order.
    pub fn pagemap(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.pt.iter()
    }

    /// Iterates the page-table extents as `(range, flags)` in address
    /// order. `O(extents)`.
    pub fn extents(&self) -> impl Iterator<Item = (PageRange, PteFlags)> + '_ {
        self.pt.extents()
    }

    /// Present pages coalesced into maximal runs irrespective of flags.
    /// `O(extents)`.
    pub fn present_runs(&self) -> Vec<PageRange> {
        let mut out = Vec::new();
        self.pt.present_runs_into(&mut out);
        out
    }

    /// Appends the soft-dirty pages, ascending, to `out` — the
    /// allocation-free form of [`AddressSpace::soft_dirty_pages`].
    pub fn soft_dirty_into(&self, out: &mut Vec<Vpn>) {
        out.extend(self.dirty.iter());
    }

    // ---------------------------------------------------------------
    // Change indices (relative to the last snapshot)
    // ---------------------------------------------------------------

    /// Makes the present pages the change baseline — the snapshotter
    /// calls this when it captures them — and empties both change
    /// indices. Returns the new baseline's epoch, which the snapshot
    /// records so a restore can check it plans against its own
    /// baseline. `O(extents)`.
    pub fn reset_change_baseline(&mut self) -> u64 {
        let c = &mut self.changes;
        let mut baseline = c.baseline.take().unwrap_or_default();
        baseline.clear();
        self.pt.present_runs_into(&mut baseline);
        c.baseline = Some(baseline);
        c.fresh.clear_all();
        c.dropped.clear_all();
        c.epoch += 1;
        c.epoch
    }

    /// Epoch of the current change baseline (0 before the first reset).
    pub fn change_epoch(&self) -> u64 {
        self.changes.epoch
    }

    /// Appends the present pages the baseline does not hold, as sorted
    /// maximal runs, to `out`. `O(fresh)`.
    pub fn fresh_runs_into(&self, out: &mut Vec<PageRange>) {
        self.changes.fresh.runs_into(out);
    }

    /// Appends the baseline pages that are no longer present, as sorted
    /// maximal runs, to `out`. `O(dropped)`.
    pub fn dropped_runs_into(&self, out: &mut Vec<PageRange>) {
        self.changes.dropped.runs_into(out);
    }

    /// Looks up the PTE of `vpn`.
    pub fn pte(&self, vpn: Vpn) -> Option<Pte> {
        self.pt.get(vpn)
    }

    // ---------------------------------------------------------------
    // Privileged operations (manager via ptrace / kernel)
    // ---------------------------------------------------------------

    /// Reads one word from a present page without fault accounting (the
    /// manager reading memory via `process_vm_readv`/ptrace).
    pub fn peek_word(&self, vpn: Vpn, word_index: usize, frames: &FrameTable) -> Option<u64> {
        self.pt
            .get(vpn)
            .map(|pte| frames.data(pte.frame).read_word(word_index))
    }

    /// Writes one word of a present page without fault accounting (the
    /// manager poking memory via ptrace): a one-page walk. A frame shared
    /// with a snapshot or a `fork` relative is unshared first, so the
    /// write lands in this process only; flags, dirty state and taint are
    /// left as they are. Returns `None` when the page is absent.
    pub fn poke_word(
        &mut self,
        vpn: Vpn,
        word_index: usize,
        value: u64,
        frames: &mut FrameTable,
    ) -> Option<()> {
        let mut poked = None;
        self.pt.walk([(vpn.0, ())], |_, (), cur| {
            let Some((mut frame, flags)) = cur else {
                return BatchDecision::Skip;
            };
            if frames.is_shared(frame) {
                frame = frames.cow_copy(frame);
            }
            frames.data_mut(frame).0.write_word(word_index, value);
            poked = Some(());
            BatchDecision::Set { frame, flags }
        });
        poked
    }

    /// The present pages as `(run start, frames)` runs, **without**
    /// taking references — the read-only view store interning captures
    /// from. `O(extents)` run metadata plus one id copy per page.
    pub fn present_frame_runs(&self) -> Vec<(Vpn, Vec<FrameId>)> {
        self.present_runs()
            .into_iter()
            .map(|range| {
                let mut ids = Vec::new();
                self.pt.frames_in_into(range, &mut ids);
                (range.start, ids)
            })
            .collect()
    }

    /// Captures the present pages as refcounted frame runs: one incref
    /// per page, `O(extents)` run metadata, **no content copies** — the
    /// snapshotter's run-based capture path. The caller owns the
    /// returned references and must decref them when the capture is
    /// released.
    pub fn capture_frame_runs(&self, frames: &mut FrameTable) -> Vec<(Vpn, Vec<FrameId>)> {
        let out = self.present_frame_runs();
        for (_, run) in &out {
            for &id in run {
                frames.incref(id);
            }
        }
        out
    }

    /// Overwrites a whole page with `data`, bypassing fault accounting
    /// (the restorer writing via ptrace): a one-page
    /// [`AddressSpace::restore_runs`]. Creates the PTE if necessary.
    ///
    /// Returns an error if the page is outside any VMA.
    pub fn restore_page(
        &mut self,
        vpn: Vpn,
        data: &FrameData,
        taint: Taint,
        frames: &mut FrameTable,
    ) -> Result<(), AccessError> {
        self.restore_runs(&[PageRange::at(vpn, 1)], |_, _| data.clone(), taint, frames)
    }

    /// Overwrites every page of `runs` (sorted, disjoint, possibly
    /// adjacent) with the contents `data` yields for it, bypassing fault
    /// accounting — the restore-writeback path. `data` is called once
    /// per page, in ascending order, with a view of the frame table (so
    /// a snapshot whose frames live there can resolve through it); the
    /// returned contents move into the page's frame uncopied.
    ///
    /// The cost is one VMA probe per run and overlapped VMA, one chunk
    /// probe per 512-page window and **one** page-table walk and extent
    /// edit fold for the whole call; [`AddressSpace::restore_page`] is
    /// its one-page call. Each page takes the overwrite decision the
    /// lazy installs take too: a private frame is overwritten in place,
    /// a shared one is replaced by a fresh private frame.
    ///
    /// Errors with [`AccessError::Unmapped`] — before mutating anything —
    /// if any page of `runs` lies outside every VMA.
    pub fn restore_runs(
        &mut self,
        runs: &[PageRange],
        mut data: impl FnMut(Vpn, &FrameTable) -> FrameData,
        taint: Taint,
        frames: &mut FrameTable,
    ) -> Result<(), AccessError> {
        // Whole-set VMA coverage, with a forward cursor: one tree lookup
        // per VMA the runs cross. Unlike the per-page loop this rejects
        // the set before any write, but the restorer aborts on the first
        // error either way.
        let mut vma: Option<PageRange> = None;
        for run in runs {
            let mut v = run.start;
            while v < run.end {
                let range = match vma {
                    Some(range) if range.contains(v) => range,
                    _ => self.vma_at(v).ok_or(AccessError::Unmapped(v))?.range,
                };
                vma = Some(range);
                v = Vpn(range.end.0.min(run.end.0));
            }
        }
        let (_, pt, _, mut tracking) = self.split();
        let pages = runs.iter().flat_map(|run| run.start.0..run.end.0);
        pt.walk(pages.map(|vpn| (vpn, ())), |vpn, (), cur| {
            let page = data(Vpn(vpn), frames);
            let (frame, flags) = tracking.overwrite(Vpn(vpn), page, taint, cur, frames);
            BatchDecision::Set { frame, flags }
        });
        // `sync_taint_bit` per page, run-wise.
        if taint.is_tainted() {
            for vpn in runs.iter().flat_map(|run| run.iter()) {
                self.tainted.set(vpn);
            }
        } else {
            self.tainted.clear_runs(runs);
        }
        Ok(())
    }

    /// Removes the PTE of `vpn`, releasing its frame (restorer dropping a
    /// newly paged page via `madvise`): a one-page
    /// [`AddressSpace::evict_runs`].
    pub fn evict_page(&mut self, vpn: Vpn, frames: &mut FrameTable) {
        self.evict_runs(&[PageRange::at(vpn, 1)], frames);
    }

    /// Removes the PTEs of every page of `ranges` (sorted, disjoint),
    /// releasing their frames in ascending page order, in one extent edit
    /// fold for the whole set; [`AddressSpace::evict_page`] is its
    /// one-page call.
    pub fn evict_runs(&mut self, ranges: &[PageRange], frames: &mut FrameTable) {
        let changes = &mut self.changes;
        self.pt.remove_ranges(ranges, |vpn, frame| {
            frames.decref(frame);
            changes.removed(vpn);
        });
        // Index bits are only ever set on present pages, so clearing the
        // whole ranges clears exactly the evicted pages' bits.
        self.dirty.clear_runs(ranges);
        self.tainted.clear_runs(ranges);
    }

    /// Zeroes a page in place (stack zeroing during restore; the
    /// restorer zeroes whole runs through [`AddressSpace::restore_runs`]).
    pub fn zero_page(&mut self, vpn: Vpn, frames: &mut FrameTable) -> Result<(), AccessError> {
        self.restore_page(vpn, &FrameData::Zero, Taint::Clean, frames)
    }

    /// Releases every frame (process teardown). The space is unusable
    /// afterwards.
    pub fn release_all(&mut self, frames: &mut FrameTable) {
        for (vpn, pte) in self.pt.iter() {
            frames.decref(pte.frame);
            self.changes.removed(vpn);
        }
        self.pt = PageTable::new();
        self.dirty.clear_all();
        self.tainted.clear_all();
        for vma in std::mem::take(&mut self.vmas).into_values() {
            self.uncover(vma.range);
        }
        // Teardown discards outstanding obligations like any other
        // mapping drop, keeping the page-work conservation law exact
        // for stats read after the process is gone.
        self.lazy_dropped += self.lazy_pending.len() as u64;
        self.lazy_pending.clear();
    }

    // ---------------------------------------------------------------
    // fork
    // ---------------------------------------------------------------

    /// Duplicates the address space for `fork`: VMAs are copied, present
    /// pages become shared CoW in **both** parent and child, and the child
    /// is fully TLB-cold.
    pub fn fork(&mut self, frames: &mut FrameTable) -> AddressSpace {
        // Writable private pages become CoW on both sides. (Read-only
        // pages can stay shared without COW, but marking them is
        // harmless: the write path checks VMA perms first.)
        self.pt.transform_flags(|f| f.with(PteFlags::COW));
        let mut child_pt = self.pt.clone();
        child_pt.transform_flags(|f| f.with(PteFlags::TLB_COLD));
        for (_, pte) in child_pt.iter() {
            frames.incref(pte.frame);
        }
        AddressSpace {
            cfg: self.cfg,
            vmas: self.vmas.clone(),
            // Same VMAs, so the same complement and total.
            free: self.free.clone(),
            mapped: self.mapped,
            pt: child_pt,
            dirty: self.dirty.clone(),
            tainted: self.tainted.clone(),
            // The child has never been snapshotted: no change baseline.
            changes: ChangeIndex::default(),
            brk: self.brk,
            counters: FaultCounters::default(),
            uffd_armed: false,
            uffd_log: VpnIndex::new(),
            // Lazy arming is per-manager state; a forked child starts
            // with no pending restorations (FORK isolation never layers
            // on a Groundhog manager).
            lazy_pending: BTreeMap::new(),
            lazy_dropped: 0,
        }
    }

    // ---------------------------------------------------------------
    // Taint scanning (test support)
    // ---------------------------------------------------------------

    /// Pages whose taint may contain `req` — an `O(tainted)` index scan:
    /// only pages whose frames carry *any* request data are visited.
    pub fn tainted_pages(&self, req: crate::taint::RequestId, frames: &FrameTable) -> Vec<Vpn> {
        self.tainted
            .iter()
            .filter(|vpn| {
                self.pt
                    .get(*vpn)
                    .is_some_and(|pte| frames.taint(pte.frame).may_contain(req))
            })
            .collect()
    }

    /// Debug invariant check: VMAs are sorted, non-overlapping and
    /// non-empty; the free-interval map and the mapped-page total equal
    /// what the VMA map implies (recomputed here from scratch); the
    /// extent table is structurally sound (sorted, disjoint, *maximal* —
    /// no adjacent mergeable extents — with chunk occupancy matching
    /// coverage); every present page lies in some VMA; and the
    /// dirty/taint indices agree bit-for-bit with the page state they
    /// cache.
    pub fn check_invariants(&self) -> Result<(), String> {
        let top = self.cfg.mmap_top.0;
        let mut prev_end = 0u64;
        let mut free = BTreeMap::new();
        let mut mapped = 0u64;
        for (&start, vma) in &self.vmas {
            if start != vma.range.start.0 {
                return Err(format!("vma key {start:#x} != range start {:?}", vma.range));
            }
            if vma.range.is_empty() {
                return Err(format!("empty vma at {start:#x}"));
            }
            if vma.range.start.0 < prev_end {
                return Err(format!("overlapping vmas at {start:#x}"));
            }
            if prev_end < start.min(top) {
                free.insert(start.min(top), prev_end);
            }
            mapped += vma.range.len();
            prev_end = vma.range.end.0;
        }
        if prev_end < top {
            free.insert(top, prev_end);
        }
        if free != self.free {
            return Err(format!(
                "free-interval map {:?} != complement of the vmas {free:?}",
                self.free
            ));
        }
        if mapped != self.mapped {
            return Err(format!(
                "mapped-page total {} != {mapped} pages in vmas",
                self.mapped
            ));
        }
        self.pt.check()?;
        for (range, flags) in self.pt.extents() {
            for vpn in range.iter() {
                if self.vma_at(vpn).is_none() {
                    return Err(format!("present page {:#x} outside any vma", vpn.0));
                }
                // Index ⇔ flag agreement, both directions.
                if flags.contains(PteFlags::SOFT_DIRTY) != self.dirty.contains(vpn) {
                    return Err(format!(
                        "dirty index bit for {:#x} disagrees with SOFT_DIRTY flag",
                        vpn.0
                    ));
                }
            }
        }
        for vpn in self.dirty.iter() {
            if !self.pt.contains(vpn) {
                return Err(format!("dirty index bit for absent page {:#x}", vpn.0));
            }
        }
        for vpn in self.tainted.iter() {
            if !self.pt.contains(vpn) {
                return Err(format!("tainted index bit for absent page {:#x}", vpn.0));
            }
        }
        for &vpn in self.lazy_pending.keys() {
            if self.vma_at(Vpn(vpn)).is_none() {
                return Err(format!("lazy-pending page {vpn:#x} outside any vma"));
            }
        }
        // Change indices: recomputed from the baseline and the table.
        let c = &self.changes;
        let present = self.present_runs();
        let (fresh, dropped) = match &c.baseline {
            Some(b) => (
                crate::runs::runs_subtract(&present, b),
                crate::runs::runs_subtract(b, &present),
            ),
            None => (Vec::new(), Vec::new()),
        };
        if c.fresh.runs() != fresh {
            return Err(format!(
                "fresh index {:?} != present ∖ baseline {fresh:?}",
                c.fresh.runs()
            ));
        }
        if c.dropped.runs() != dropped {
            return Err(format!(
                "dropped index {:?} != baseline ∖ present {dropped:?}",
                c.dropped.runs()
            ));
        }
        Ok(())
    }

    /// Like [`AddressSpace::check_invariants`], but additionally verifies
    /// the taint index against the frame table (bit set ⇔ frame taint
    /// non-clean). Separate because it needs the frame table.
    pub fn check_invariants_with_frames(&self, frames: &FrameTable) -> Result<(), String> {
        self.check_invariants()?;
        for (vpn, pte) in self.pt.iter() {
            if frames.taint(pte.frame).is_tainted() != self.tainted.contains(vpn) {
                return Err(format!(
                    "tainted index bit for {:#x} disagrees with frame taint",
                    vpn.0
                ));
            }
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::RequestId;

    fn setup() -> (AddressSpace, FrameTable) {
        let mut frames = FrameTable::new();
        let space = AddressSpace::new(SpaceConfig::default(), &mut frames);
        (space, frames)
    }

    #[test]
    fn new_space_has_stack_only() {
        let (s, _) = setup();
        assert_eq!(s.vma_count(), 1);
        assert_eq!(s.mapped_pages(), SpaceConfig::default().stack_pages);
        assert_eq!(s.present_pages(), 0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn mmap_allocates_top_down_and_munmap_releases() {
        let (mut s, mut f) = setup();
        let a = s.mmap(10, Perms::RW, VmaKind::Anon).unwrap();
        let b = s.mmap(5, Perms::RW, VmaKind::Anon).unwrap();
        assert!(b.end.0 <= a.start.0, "second mapping below first");
        // Merging: adjacent same-perm anon mappings coalesce.
        assert_eq!(s.vma_count(), 2, "stack + merged anon block");
        s.munmap(a, &mut f).unwrap();
        assert_eq!(s.vma_count(), 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn mmap_fixed_rejects_overlap() {
        let (mut s, _) = setup();
        let r = s.mmap(4, Perms::RW, VmaKind::Anon).unwrap();
        let err = s.mmap_fixed(r, Perms::RW, VmaKind::Anon);
        assert_eq!(err, Err(AccessError::BadRange));
    }

    #[test]
    fn munmap_splits_vma() {
        let (mut s, mut f) = setup();
        let r = s.mmap(10, Perms::RW, VmaKind::Anon).unwrap();
        // Unmap the middle 2 pages.
        let mid = PageRange::at(Vpn(r.start.0 + 4), 2);
        s.munmap(mid, &mut f).unwrap();
        assert_eq!(s.vma_count(), 3, "stack + two fragments");
        assert!(s.vma_at(Vpn(r.start.0 + 4)).is_none());
        assert!(s.vma_at(Vpn(r.start.0 + 3)).is_some());
        assert!(s.vma_at(Vpn(r.start.0 + 6)).is_some());
        s.check_invariants().unwrap();
    }

    #[test]
    fn munmap_drops_frames() {
        let (mut s, mut f) = setup();
        let r = s.mmap(4, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            s.touch(vpn, Touch::WriteWord(1), Taint::Clean, &mut f)
                .unwrap();
        }
        assert_eq!(f.live(), 4);
        s.munmap(r, &mut f).unwrap();
        assert_eq!(f.live(), 0);
        assert_eq!(s.present_pages(), 0);
    }

    #[test]
    fn mprotect_splits_and_denies() {
        let (mut s, mut f) = setup();
        let r = s.mmap(6, Perms::RW, VmaKind::Anon).unwrap();
        let ro = PageRange::at(Vpn(r.start.0 + 2), 2);
        s.mprotect(ro, Perms::R).unwrap();
        assert_eq!(s.vma_count(), 4, "stack + 3 fragments");
        let err = s.touch(ro.start, Touch::WriteWord(1), Taint::Clean, &mut f);
        assert_eq!(err, Err(AccessError::PermissionDenied(ro.start)));
        s.touch(ro.start, Touch::Read, Taint::Clean, &mut f)
            .unwrap();
        s.check_invariants().unwrap();
    }

    #[test]
    fn mprotect_unmapped_fails() {
        let (mut s, _) = setup();
        let err = s.mprotect(PageRange::at(Vpn(0x500), 1), Perms::R);
        assert!(matches!(err, Err(AccessError::Unmapped(_))));
    }

    #[test]
    fn brk_grow_and_shrink() {
        let (mut s, mut f) = setup();
        let base = s.config().heap_base;
        s.set_brk(Vpn(base.0 + 100), &mut f).unwrap();
        assert_eq!(s.brk(), Vpn(base.0 + 100));
        assert!(s.vma_at(Vpn(base.0 + 50)).is_some());
        // Touch a heap page then shrink past it: frame released.
        s.touch(Vpn(base.0 + 80), Touch::WriteWord(7), Taint::Clean, &mut f)
            .unwrap();
        assert_eq!(f.live(), 1);
        s.set_brk(Vpn(base.0 + 50), &mut f).unwrap();
        assert_eq!(f.live(), 0);
        assert!(s.vma_at(Vpn(base.0 + 80)).is_none());
        // Shrink to zero-size heap removes the VMA.
        s.set_brk(base, &mut f).unwrap();
        assert!(s.vma_at(base).is_none());
        s.check_invariants().unwrap();
    }

    #[test]
    fn brk_below_base_fails() {
        let (mut s, mut f) = setup();
        let base = s.config().heap_base;
        assert_eq!(
            s.set_brk(Vpn(base.0 - 1), &mut f),
            Err(AccessError::BadRange)
        );
    }

    #[test]
    fn demand_paging_counts_minor_faults() {
        let (mut s, mut f) = setup();
        let r = s.mmap(3, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        let c = s.counters();
        assert_eq!(c.minor, 1, "second read is warm");
        assert_eq!(c.warm, 1);
        assert_eq!(s.present_pages(), 1);
    }

    #[test]
    fn every_new_pte_is_born_soft_dirty() {
        // Linux semantics: both read- and write-faulted fresh PTEs carry
        // the soft-dirty bit, so remap churn cannot hide modifications.
        let (mut s, mut f) = setup();
        let r = s.mmap(2, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(r.start, Touch::WriteWord(1), Taint::Clean, &mut f)
            .unwrap();
        s.touch(r.start.next(), Touch::Read, Taint::Clean, &mut f)
            .unwrap();
        assert!(s.pte(r.start).unwrap().soft_dirty());
        assert!(s.pte(r.start.next()).unwrap().soft_dirty());
        assert_eq!(s.soft_dirty_pages(), vec![r.start, r.start.next()]);
        // After a clear, re-reading a *present* page stays clean.
        s.clear_soft_dirty();
        s.touch(r.start.next(), Touch::Read, Taint::Clean, &mut f)
            .unwrap();
        assert!(!s.pte(r.start.next()).unwrap().soft_dirty());
    }

    #[test]
    fn clear_soft_dirty_arms_wp_faults() {
        let (mut s, mut f) = setup();
        let r = s.mmap(2, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(r.start, Touch::WriteWord(1), Taint::Clean, &mut f)
            .unwrap();
        s.clear_soft_dirty();
        assert!(s.soft_dirty_pages().is_empty());
        let before = s.counters();
        s.touch(r.start, Touch::WriteWord(2), Taint::Clean, &mut f)
            .unwrap();
        let after = s.counters();
        assert_eq!(
            after.sd_wp - before.sd_wp,
            1,
            "armed write takes an SD fault"
        );
        assert_eq!(s.soft_dirty_pages(), vec![r.start]);
        // A second write to the same page is warm.
        s.touch(r.start, Touch::WriteWord(3), Taint::Clean, &mut f)
            .unwrap();
        assert_eq!(s.counters().sd_wp, after.sd_wp);
    }

    #[test]
    fn untracked_write_sets_soft_dirty_without_fault() {
        let (mut s, mut f) = setup();
        let r = s.mmap(1, Perms::RW, VmaKind::Anon).unwrap();
        // A restorer-written page is present, clean, and unarmed — the
        // only way to reach that state.
        s.restore_page(r.start, &FrameData::Zero, Taint::Clean, &mut f)
            .unwrap();
        assert!(!s.pte(r.start).unwrap().soft_dirty());
        let c0 = s.counters();
        s.touch(r.start, Touch::WriteWord(9), Taint::Clean, &mut f)
            .unwrap();
        assert!(s.pte(r.start).unwrap().soft_dirty());
        assert_eq!(s.counters().sd_wp, c0.sd_wp, "no SD fault when not armed");
    }

    #[test]
    fn uffd_logs_dirty_pages() {
        let (mut s, mut f) = setup();
        let r = s.mmap(4, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            s.touch(vpn, Touch::WriteWord(1), Taint::Clean, &mut f)
                .unwrap();
        }
        s.arm_uffd_wp();
        s.touch(r.start, Touch::WriteWord(2), Taint::Clean, &mut f)
            .unwrap();
        s.touch(
            Vpn(r.start.0 + 2),
            Touch::WriteWord(2),
            Taint::Clean,
            &mut f,
        )
        .unwrap();
        assert_eq!(s.counters().uffd_wp, 2);
        let log = s.disarm_uffd();
        assert_eq!(log, vec![r.start, Vpn(r.start.0 + 2)]);
        assert!(!s.uffd_armed());
    }

    #[test]
    fn file_pages_have_deterministic_content() {
        let (mut s, mut f) = setup();
        let r = s
            .mmap(2, Perms::RX, VmaKind::File("libpython.so".into()))
            .unwrap();
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        let w1 = s.peek_word(r.start, 0, &f).unwrap();
        assert_ne!(w1, 0, "file pages are not zero");
        // Re-fault the same page in a fresh space: identical contents.
        let (mut s2, mut f2) = setup();
        let r2 = s2
            .mmap(2, Perms::RX, VmaKind::File("libpython.so".into()))
            .unwrap();
        // Same kind and same vpn layout → same pattern.
        assert_eq!(r.start, r2.start);
        s2.touch(r2.start, Touch::Read, Taint::Clean, &mut f2)
            .unwrap();
        assert_eq!(s2.peek_word(r2.start, 0, &f2).unwrap(), w1);
    }

    #[test]
    fn madvise_dontneed_loses_contents() {
        let (mut s, mut f) = setup();
        let r = s.mmap(1, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(r.start, Touch::WriteWord(0xAA), Taint::Clean, &mut f)
            .unwrap();
        assert_eq!(s.peek_word(r.start, 1, &f), Some(0xAA));
        s.madvise_dontneed(r, &mut f).unwrap();
        assert_eq!(s.present_pages(), 0);
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        assert_eq!(s.peek_word(r.start, 1, &f), Some(0), "fresh zero page");
    }

    #[test]
    fn unmapped_access_errors() {
        let (mut s, mut f) = setup();
        let err = s.touch(Vpn(0x4242), Touch::Read, Taint::Clean, &mut f);
        assert_eq!(err, Err(AccessError::Unmapped(Vpn(0x4242))));
    }

    #[test]
    fn fork_cow_semantics() {
        let (mut parent, mut f) = setup();
        let r = parent.mmap(2, Perms::RW, VmaKind::Anon).unwrap();
        parent
            .touch(r.start, Touch::WriteWord(0x11), Taint::Clean, &mut f)
            .unwrap();
        let mut child = parent.fork(&mut f);
        assert_eq!(f.refcount(parent.pte(r.start).unwrap().frame), 2);

        // Child write takes CoW fault and does not affect parent.
        child
            .touch(r.start, Touch::WriteWord(0x22), Taint::Clean, &mut f)
            .unwrap();
        assert_eq!(child.counters().cow, 1);
        assert_eq!(parent.peek_word(r.start, 1, &f), Some(0x11));
        assert_eq!(child.peek_word(r.start, 1, &f), Some(0x22));

        // Parent's subsequent write also CoW-faults (its PTE was marked).
        parent
            .touch(r.start, Touch::WriteWord(0x33), Taint::Clean, &mut f)
            .unwrap();
        assert_eq!(parent.counters().cow, 1);
        assert_eq!(child.peek_word(r.start, 1, &f), Some(0x22));
    }

    #[test]
    fn fork_child_is_tlb_cold() {
        let (mut parent, mut f) = setup();
        let r = parent.mmap(3, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            parent
                .touch(vpn, Touch::Read, Taint::Clean, &mut f)
                .unwrap();
        }
        let mut child = parent.fork(&mut f);
        for vpn in r.iter() {
            child.touch(vpn, Touch::Read, Taint::Clean, &mut f).unwrap();
        }
        assert_eq!(child.counters().tlb_cold, 3, "every first access is cold");
        // Parent stays warm.
        let before = parent.counters().tlb_cold;
        parent
            .touch(r.start, Touch::Read, Taint::Clean, &mut f)
            .unwrap();
        assert_eq!(parent.counters().tlb_cold, before);
        child.release_all(&mut f);
    }

    #[test]
    fn taint_merge_on_write() {
        let (mut s, mut f) = setup();
        let r = s.mmap(1, Perms::RW, VmaKind::Anon).unwrap();
        let r1 = RequestId(1);
        let r2 = RequestId(2);
        s.touch(r.start, Touch::WriteWord(1), Taint::One(r1), &mut f)
            .unwrap();
        assert_eq!(s.tainted_pages(r1, &f), vec![r.start]);
        assert!(s.tainted_pages(r2, &f).is_empty());
        s.touch(r.start, Touch::WriteWord(2), Taint::One(r2), &mut f)
            .unwrap();
        // Frame now carries both requests' data (Many).
        assert_eq!(s.tainted_pages(r1, &f), vec![r.start]);
        assert_eq!(s.tainted_pages(r2, &f), vec![r.start]);
    }

    #[test]
    fn restore_page_is_untracked_and_untainted() {
        let (mut s, mut f) = setup();
        let r = s.mmap(1, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(
            r.start,
            Touch::WriteWord(5),
            Taint::One(RequestId(1)),
            &mut f,
        )
        .unwrap();
        s.clear_soft_dirty();
        let c0 = s.counters();
        s.restore_page(r.start, &FrameData::Zero, Taint::Clean, &mut f)
            .unwrap();
        assert_eq!(s.counters(), c0, "restore takes no accounted faults");
        assert_eq!(s.peek_word(r.start, 1, &f), Some(0));
        assert!(s.tainted_pages(RequestId(1), &f).is_empty());
    }

    #[test]
    fn restore_page_outside_vma_fails() {
        let (mut s, mut f) = setup();
        let err = s.restore_page(Vpn(0x1), &FrameData::Zero, Taint::Clean, &mut f);
        assert!(matches!(err, Err(AccessError::Unmapped(_))));
    }

    #[test]
    fn evict_and_zero_page() {
        let (mut s, mut f) = setup();
        let r = s.mmap(2, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(r.start, Touch::WriteWord(5), Taint::Clean, &mut f)
            .unwrap();
        s.evict_page(r.start, &mut f);
        assert_eq!(s.present_pages(), 0);
        assert_eq!(f.live(), 0);
        s.touch(r.start, Touch::WriteWord(6), Taint::Clean, &mut f)
            .unwrap();
        s.zero_page(r.start, &mut f).unwrap();
        assert_eq!(s.peek_word(r.start, 1, &f), Some(0));
    }

    #[test]
    fn release_all_frees_everything() {
        let (mut s, mut f) = setup();
        let r = s.mmap(8, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            s.touch(vpn, Touch::WriteWord(1), Taint::Clean, &mut f)
                .unwrap();
        }
        assert_eq!(f.live(), 8);
        s.release_all(&mut f);
        assert_eq!(f.live(), 0);
        assert_eq!(s.vma_count(), 0);
    }

    #[test]
    fn fork_then_teardown_is_leak_free() {
        let (mut parent, mut f) = setup();
        let r = parent.mmap(4, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            parent
                .touch(vpn, Touch::WriteWord(1), Taint::Clean, &mut f)
                .unwrap();
        }
        let mut child = parent.fork(&mut f);
        child
            .touch(r.start, Touch::WriteWord(2), Taint::Clean, &mut f)
            .unwrap();
        child.release_all(&mut f);
        // Parent frames intact.
        assert_eq!(parent.peek_word(r.start, 1, &f), Some(1));
        parent.release_all(&mut f);
        assert_eq!(f.live(), 0);
    }

    #[test]
    fn pagemap_iterates_in_order() {
        let (mut s, mut f) = setup();
        let r = s.mmap(5, Perms::RW, VmaKind::Anon).unwrap();
        // Touch out of order.
        s.touch(Vpn(r.start.0 + 3), Touch::Read, Taint::Clean, &mut f)
            .unwrap();
        s.touch(Vpn(r.start.0 + 1), Touch::Read, Taint::Clean, &mut f)
            .unwrap();
        let vpns: Vec<u64> = s.pagemap().map(|(v, _)| v.0).collect();
        assert_eq!(vpns, vec![r.start.0 + 1, r.start.0 + 3]);
    }

    #[test]
    fn render_maps_contains_stack() {
        let (s, _) = setup();
        let maps = s.render_maps();
        assert!(maps.contains("[stack]"));
        assert!(maps.contains("rw-p"));
    }
}

#[cfg(test)]
mod lazy_tests {
    use super::*;
    use crate::store::SnapshotStore;
    use crate::taint::RequestId;

    fn setup() -> (AddressSpace, FrameTable) {
        let mut frames = FrameTable::new();
        let space = AddressSpace::new(SpaceConfig::default(), &mut frames);
        (space, frames)
    }

    /// A region with dirty contents and an armed lazy set mapping every
    /// page back to a distinct snapshot pattern.
    fn armed_region(s: &mut AddressSpace, f: &mut FrameTable, pages: u64) -> PageRange {
        let r = s.mmap(pages, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            s.touch(
                vpn,
                Touch::WriteWord(0xD1127 ^ vpn.0),
                Taint::One(RequestId(1)),
                f,
            )
            .unwrap();
        }
        s.clear_soft_dirty();
        let set: BTreeMap<u64, LazyPageSource> = r
            .iter()
            .map(|v| (v.0, LazyPageSource::Data(FrameData::Pattern(v.0))))
            .collect();
        s.arm_lazy(set);
        r
    }

    #[test]
    fn read_fault_installs_snapshot_content_armed() {
        let (mut s, mut f) = setup();
        let r = armed_region(&mut s, &mut f, 4);
        assert_eq!(s.lazy_pending_len(), 4);
        let c0 = s.counters();
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        assert_eq!(s.counters().lazy - c0.lazy, 1);
        assert_eq!(s.lazy_pending_len(), 3);
        // Snapshot content visible, stale content and taint gone.
        assert!(f
            .data(s.pte(r.start).unwrap().frame)
            .logical_eq(&FrameData::Pattern(r.start.0)));
        assert!(s.tainted_pages(RequestId(1), &f).len() < 4);
        // Clean and armed, like an eager restore + re-arm.
        let pte = s.pte(r.start).unwrap();
        assert!(!pte.soft_dirty());
        assert!(pte.flags.contains(PteFlags::SD_WP));
        // A second read is warm (one fault per deferred page).
        let c1 = s.counters();
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        assert_eq!(s.counters().lazy, c1.lazy);
        assert_eq!(s.counters().warm - c1.warm, 1);
    }

    #[test]
    fn write_fault_installs_then_dirties_in_one_fault() {
        let (mut s, mut f) = setup();
        let r = armed_region(&mut s, &mut f, 2);
        let c0 = s.counters();
        s.touch(
            r.start,
            Touch::WriteWord(0xFF),
            Taint::One(RequestId(2)),
            &mut f,
        )
        .unwrap();
        let c1 = s.counters();
        assert_eq!(c1.lazy - c0.lazy, 1);
        assert_eq!(c1.sd_wp, c0.sd_wp, "single #PF resolves install + WP");
        let pte = s.pte(r.start).unwrap();
        assert!(pte.soft_dirty());
        // The write landed on top of the snapshot contents.
        assert_eq!(s.peek_word(r.start, 1, &f), Some(0xFF));
        assert_eq!(
            f.data(pte.frame).read_word(0),
            FrameData::Pattern(r.start.0).read_word(0)
        );
    }

    #[test]
    fn untouched_pages_stay_pending_and_drain_restores_them() {
        let (mut s, mut f) = setup();
        let r = armed_region(&mut s, &mut f, 6);
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        assert_eq!(s.lazy_pending_len(), 5);
        let c = s.counters();
        assert_eq!(s.drain_lazy(2, &mut f), 2);
        assert_eq!(s.counters(), c, "drain counts no faults");
        assert_eq!(s.lazy_pending_len(), 3);
        assert_eq!(s.drain_lazy(u64::MAX, &mut f), 3);
        assert_eq!(s.lazy_pending_len(), 0);
        for vpn in r.iter() {
            assert!(f
                .data(s.pte(vpn).unwrap().frame)
                .logical_eq(&FrameData::Pattern(vpn.0)));
        }
        assert!(s.tainted_pages(RequestId(1), &f).is_empty());
    }

    #[test]
    fn frame_source_shares_on_read_and_copies_on_write() {
        let (mut s, mut f) = setup();
        let r = s.mmap(2, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            s.touch(vpn, Touch::WriteWord(9), Taint::Clean, &mut f)
                .unwrap();
        }
        // A "snapshot" holding CoW references to both frames.
        let snap: Vec<FrameId> = r.iter().map(|v| s.pte(v).unwrap().frame).collect();
        for &id in &snap {
            f.incref(id);
        }
        s.mark_all_cow();
        // Dirty both pages (CoW copies them), then arm lazily from the
        // snapshot's frames.
        for vpn in r.iter() {
            s.touch(
                vpn,
                Touch::WriteWord(0xBAD),
                Taint::One(RequestId(3)),
                &mut f,
            )
            .unwrap();
        }
        s.clear_soft_dirty();
        let set: BTreeMap<u64, LazyPageSource> = r
            .iter()
            .zip(&snap)
            .map(|(v, &id)| (v.0, LazyPageSource::Frame(id)))
            .collect();
        s.arm_lazy(set);
        // Read fault: the PTE points at the snapshot's own frame.
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        assert_eq!(s.pte(r.start).unwrap().frame, snap[0], "shared frame");
        assert_eq!(f.refcount(snap[0]), 2);
        assert_eq!(s.peek_word(r.start, 1, &f), Some(9));
        // Write fault on the other page: private copy, snapshot intact.
        s.touch(r.start.next(), Touch::WriteWord(0x22), Taint::Clean, &mut f)
            .unwrap();
        assert_ne!(s.pte(r.start.next()).unwrap().frame, snap[1]);
        assert_eq!(f.data(snap[1]).read_word(1), 9, "snapshot unchanged");
        for &id in &snap {
            f.decref(id);
        }
    }

    #[test]
    fn store_source_faults_in_from_shared_store() {
        let (mut s, mut f) = setup();
        let r = s.mmap(2, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            s.touch(vpn, Touch::WriteWord(7), Taint::One(RequestId(4)), &mut f)
                .unwrap();
        }
        let store = SnapshotStore::new_handle();
        let mut image = FrameTable::new();
        let ids = r
            .iter()
            .map(|v| image.alloc(FrameData::Pattern(0x57025 ^ v.0), Taint::Clean))
            .collect();
        let refs = store
            .lock()
            .unwrap()
            .intern_refs("f", &[(r.start, ids)], &image);
        let live_before = store.lock().unwrap().live_frames();
        let set: BTreeMap<u64, LazyPageSource> = refs
            .iter()
            .map(|(vpn, frame)| {
                (
                    vpn.0,
                    LazyPageSource::Store {
                        store: store.clone(),
                        frame,
                    },
                )
            })
            .collect();
        s.arm_lazy(set);
        // Arming copied nothing; the store still holds the only image.
        assert_eq!(store.lock().unwrap().live_frames(), live_before);
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        assert!(f
            .data(s.pte(r.start).unwrap().frame)
            .logical_eq(&FrameData::Pattern(0x57025 ^ r.start.0)));
        // Fault-in copies out of the store, never into it.
        assert_eq!(store.lock().unwrap().live_frames(), live_before);
    }

    #[test]
    fn unmap_drops_pending_obligations() {
        let (mut s, mut f) = setup();
        let r = armed_region(&mut s, &mut f, 8);
        let mid = PageRange::at(Vpn(r.start.0 + 2), 3);
        s.munmap(mid, &mut f).unwrap();
        assert_eq!(s.lazy_pending_len(), 5);
        s.check_invariants().unwrap();
        // madvise drops obligations too: the touch must see a fresh zero
        // page, exactly as it would after an eager restore + madvise.
        let tail = PageRange::at(Vpn(r.start.0 + 6), 1);
        s.madvise_dontneed(tail, &mut f).unwrap();
        assert_eq!(s.lazy_pending_len(), 4);
        s.touch(tail.start, Touch::Read, Taint::Clean, &mut f)
            .unwrap();
        assert_eq!(s.peek_word(tail.start, 1, &f), Some(0));
    }

    #[test]
    fn missing_page_faults_in_from_snapshot() {
        // A page that was madvised away *before* arming (snapshot ∖
        // present): the entry has no PTE, and the fault installs one.
        let (mut s, mut f) = setup();
        let r = s.mmap(2, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(r.start, Touch::WriteWord(1), Taint::Clean, &mut f)
            .unwrap();
        s.madvise_dontneed(PageRange::at(r.start, 1), &mut f)
            .unwrap();
        assert!(s.pte(r.start).is_none());
        let mut set = BTreeMap::new();
        set.insert(r.start.0, LazyPageSource::Data(FrameData::Pattern(42)));
        s.arm_lazy(set);
        let c0 = s.counters();
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        assert_eq!(s.counters().lazy - c0.lazy, 1);
        assert_eq!(s.counters().minor, c0.minor, "lazy fault, not minor");
        assert!(f
            .data(s.pte(r.start).unwrap().frame)
            .logical_eq(&FrameData::Pattern(42)));
    }

    #[test]
    fn uffd_armed_lazy_write_logs_dirty_page() {
        let (mut s, mut f) = setup();
        let r = s.mmap(2, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            s.touch(vpn, Touch::WriteWord(3), Taint::Clean, &mut f)
                .unwrap();
        }
        s.arm_uffd_wp();
        let set: BTreeMap<u64, LazyPageSource> = r
            .iter()
            .map(|v| (v.0, LazyPageSource::Data(FrameData::Zero)))
            .collect();
        s.arm_lazy(set);
        s.touch(r.start, Touch::WriteWord(5), Taint::Clean, &mut f)
            .unwrap();
        s.touch(r.start.next(), Touch::Read, Taint::Clean, &mut f)
            .unwrap();
        let log = s.disarm_uffd();
        assert_eq!(log, vec![r.start], "write logged, read not");
        let c = s.counters();
        assert_eq!(c.lazy, 2);
        assert_eq!(c.uffd_wp, 0, "lazy faults subsume the WP notification");
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    fn setup() -> (AddressSpace, FrameTable) {
        let mut frames = FrameTable::new();
        let space = AddressSpace::new(SpaceConfig::default(), &mut frames);
        (space, frames)
    }

    #[test]
    fn mmap_exhaustion_is_bad_range() {
        let (mut s, _) = setup();
        // Far larger than the whole mmap area.
        let err = s.mmap(u64::MAX / 2, Perms::RW, VmaKind::Anon);
        assert_eq!(err, Err(AccessError::BadRange));
        // Zero-length mappings are rejected too.
        assert_eq!(
            s.mmap(0, Perms::RW, VmaKind::Anon),
            Err(AccessError::BadRange)
        );
    }

    #[test]
    fn guard_pages_deny_all_access() {
        let (mut s, mut f) = setup();
        let r = s.mmap(1, Perms::NONE, VmaKind::Guard).unwrap();
        assert_eq!(
            s.touch(r.start, Touch::Read, Taint::Clean, &mut f),
            Err(AccessError::PermissionDenied(r.start))
        );
        assert_eq!(
            s.touch(r.start, Touch::WriteWord(1), Taint::Clean, &mut f),
            Err(AccessError::PermissionDenied(r.start))
        );
    }

    #[test]
    fn mmap_fills_gaps_top_down() {
        let (mut s, mut f) = setup();
        let a = s.mmap(10, Perms::RW, VmaKind::Anon).unwrap();
        let b = s.mmap(10, Perms::RW, VmaKind::Anon).unwrap();
        // Free the upper region; a smaller request should reuse that gap.
        s.munmap(a, &mut f).unwrap();
        let c = s.mmap(4, Perms::RW, VmaKind::Anon).unwrap();
        assert!(c.start.0 >= a.start.0, "gap above {b:?} reused: {c:?}");
        s.check_invariants().unwrap();
    }

    #[test]
    fn mark_all_cow_makes_next_write_copy() {
        let (mut s, mut f) = setup();
        let r = s.mmap(2, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(r.start, Touch::WriteWord(1), Taint::Clean, &mut f)
            .unwrap();
        let frame = s.pte(r.start).unwrap().frame;
        f.incref(frame); // an observer (snapshot) holds a reference
        s.mark_all_cow();
        s.touch(r.start, Touch::WriteWord(2), Taint::Clean, &mut f)
            .unwrap();
        assert_eq!(s.counters().cow, 1);
        let new_frame = s.pte(r.start).unwrap().frame;
        assert_ne!(frame, new_frame, "write copied the shared frame");
        assert_eq!(f.data(frame).read_word(1), 1, "observer's copy unchanged");
        assert_eq!(f.data(new_frame).read_word(1), 2);
        f.decref(frame);
    }

    #[test]
    fn cow_plus_armed_sd_counts_single_fault() {
        let (mut s, mut f) = setup();
        let r = s.mmap(1, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(r.start, Touch::WriteWord(1), Taint::Clean, &mut f)
            .unwrap();
        let frame = s.pte(r.start).unwrap().frame;
        f.incref(frame);
        s.mark_all_cow();
        s.clear_soft_dirty();
        s.touch(r.start, Touch::WriteWord(2), Taint::Clean, &mut f)
            .unwrap();
        let c = s.counters();
        assert_eq!(c.cow, 1);
        assert_eq!(c.sd_wp, 0, "one #PF resolves CoW + soft-dirty arming");
        assert!(s.pte(r.start).unwrap().soft_dirty());
        f.decref(frame);
    }

    #[test]
    fn munmap_whole_space_then_remap() {
        let (mut s, mut f) = setup();
        let r = s.mmap(8, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            s.touch(vpn, Touch::WriteWord(9), Taint::Clean, &mut f)
                .unwrap();
        }
        s.munmap(r, &mut f).unwrap();
        // Remap the exact range; contents must be fresh zeroes.
        s.mmap_fixed(r, Perms::RW, VmaKind::Anon).unwrap();
        s.touch(r.start, Touch::Read, Taint::Clean, &mut f).unwrap();
        assert_eq!(s.peek_word(r.start, 1, &f), Some(0));
        // And the new PTE is born soft-dirty (Linux remap semantics).
        assert!(s.pte(r.start).unwrap().soft_dirty());
    }
}
