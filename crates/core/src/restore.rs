//! Restoring the function process to its snapshot (§4.4).
//!
//! "The manager identifies all changes to the memory layout by consulting
//! /proc/pid/maps and pagemap; these changes are later reversed by
//! injecting syscalls using ptrace. The manager restores brk, removes
//! added memory regions, remaps removed memory regions, zeroes the stack,
//! restores memory contents of pages that have their SD-bit set, restores
//! registers of all threads, madvises newly paged pages, and finally
//! resets SD-bits."
//!
//! The restore is a two-stage pipeline:
//!
//! ```text
//!  attach ─ interrupt ─ read maps ─ scan ─ diff          (collection)
//!     └──▶ RestorePlanner::build ──▶ RestorePlan         (crate::plan)
//!             └──▶ execute_plan: LayoutFixup → Madvise → StackZero
//!                  → PageWriteback (N copy lanes) → TrackerRearm
//!                  → RegsReset                           (this module)
//!                      └──▶ detach ──▶ RestoreReport + Breakdown
//! ```
//!
//! Every pass is timed against the virtual clock into the Fig. 8
//! [`Breakdown`]. With `restore_lanes = 1` the executor charges exactly
//! what the paper's serial implementation would — the breakdown and
//! report are bit-for-bit identical to the pre-pipeline monolith (pinned
//! by `tests/prop_plan.rs`). With more lanes, only the page-writeback
//! pass parallelizes; the ptrace-serialized passes stay serial.
//!
//! Host-side, each memory pass mutates the page table in one ordered
//! walk rather than page by page: `Madvise` evicts all its ranges in one
//! fold, `StackZero` goes through the writeback walk, and
//! `PageWriteback` writes every lane's runs through one
//! [`Snapshot::write_back`] call. Lanes are a virtual-time concept only;
//! the state outcome equals the per-page loops exactly.
//!
//! The sets come from the collection without a pagemap copy: the
//! soft-dirty scan reads the dirty index and the address space's change
//! indices (fresh = present ∖ snapshot, dropped = snapshot ∖ present),
//! and the planner takes madvise = (fresh ∖ munmap) ∖ stacks, stack-zero
//! = (fresh ∖ munmap) ∩ stacks and writeback = (dirty ∖ fresh) ∪ dropped
//! ∪ (snapshot ∩ munmap) — see [`crate::plan`]. The scan, diff and plan
//! buffers are per thread and refilled by every restore, so a steady
//! request loop restores without heap allocation.

use std::cell::RefCell;

use gh_mem::{runs_len, FrameData, Taint};
use gh_proc::{Kernel, Pid, PtraceSession};
use gh_sim::clock::Stopwatch;
use gh_sim::Nanos;

use crate::breakdown::{Breakdown, RestorePhase};
use crate::config::GroundhogConfig;
use crate::diff::LayoutDiff;
use crate::error::GhError;
use crate::plan::{RestorePass, RestorePlan, RestorePlanner};
use crate::snapshot::Snapshot;
use crate::track::{DirtyReport, MemoryTracker};

/// Outcome of one restore operation.
#[derive(Clone, Debug)]
pub struct RestoreReport {
    /// Per-phase timing (Fig. 8).
    pub breakdown: Breakdown,
    /// Total restore duration.
    pub total: Nanos,
    /// Dirty pages the tracker reported.
    pub dirty_pages: u64,
    /// Pages whose contents were written back from the snapshot.
    pub pages_restored: u64,
    /// Pages armed for on-demand fault-in instead of written back (lazy
    /// restore mode; zero under eager restoration).
    pub pages_deferred: u64,
    /// Contiguous runs those pages formed (coalescing units).
    pub runs: u64,
    /// Pages evicted because they became resident after the snapshot.
    pub newly_paged: u64,
    /// Stack pages zeroed.
    pub stack_zeroed: u64,
    /// Syscalls injected for layout restoration.
    pub syscalls_injected: usize,
}

/// The buffers one restore fills — the collected scan, the layout diff
/// and the plan.
#[derive(Default)]
struct RestoreBuffers {
    report: DirtyReport,
    diff: LayoutDiff,
    plan: RestorePlan,
}

thread_local! {
    /// Every restore on a thread refills the same buffers, so the steady
    /// request loop collects, plans and executes restores without heap
    /// allocation once they have grown to its working set, and the
    /// retained memory is per thread, not per process.
    static BUFFERS: RefCell<RestoreBuffers> = RefCell::default();
}

/// The restore engine: plans, then executes.
pub struct Restorer;

impl Restorer {
    /// Rolls `pid` back to `snapshot`, leaving tracking armed for the next
    /// request. Runs entirely *between* activations (the caller — the
    /// manager — guarantees no request is executing).
    pub fn restore(
        kernel: &mut Kernel,
        pid: Pid,
        snapshot: &Snapshot,
        tracker: &mut dyn MemoryTracker,
        cfg: &GroundhogConfig,
    ) -> Result<RestoreReport, GhError> {
        BUFFERS.with_borrow_mut(|bufs| Self::restore_in(kernel, pid, snapshot, tracker, cfg, bufs))
    }

    /// [`Restorer::restore`] over the thread's buffers.
    fn restore_in(
        kernel: &mut Kernel,
        pid: Pid,
        snapshot: &Snapshot,
        tracker: &mut dyn MemoryTracker,
        cfg: &GroundhogConfig,
        bufs: &mut RestoreBuffers,
    ) -> Result<RestoreReport, GhError> {
        let mut bd = Breakdown::new();
        let mut sw = Stopwatch::start(&kernel.clock);
        let mut s = PtraceSession::attach(kernel, pid)?;

        // Collection: interrupt all threads, read /proc/pid/maps, scan
        // page metadata (tracker-dependent), diff the memory layouts.
        s.interrupt_all()?;
        bd.add(RestorePhase::Interrupting, sw.lap());

        // The maps read is charged here; the diff below walks the live
        // VMA map, which the dirty scan leaves unchanged.
        let cur_vmas = s.charge_maps_read()?;
        bd.add(RestorePhase::ReadingMaps, sw.lap());

        tracker.collect_into(&mut s, &mut bufs.report)?;
        bd.add(RestorePhase::ScanningPageMetadata, sw.lap());

        let mem = &s.kernel().process(pid)?.mem;
        assert_eq!(
            mem.vma_count(),
            cur_vmas,
            "the dirty scan edited the layout"
        );
        bufs.diff
            .compute_into(&snapshot.vmas, snapshot.brk, mem.vmas_iter(), mem.brk());
        let diff_cost = s.kernel().cost.diff_cost(cur_vmas + snapshot.vmas.len());
        s.kernel().charge(diff_cost);
        bd.add(RestorePhase::DiffingMemoryLayouts, sw.lap());

        // Plan (pure), then execute pass by pass.
        let plan = &mut bufs.plan;
        RestorePlanner::build_into(plan, snapshot, &bufs.report, &bufs.diff, cfg);
        Self::execute_plan(&mut s, plan, snapshot, tracker, &mut bd, &mut sw)?;

        s.detach()?;
        bd.add(RestorePhase::Detaching, sw.lap());

        let total = bd.total();
        Ok(RestoreReport {
            breakdown: bd,
            total,
            dirty_pages: plan.dirty_pages,
            pages_restored: plan.pages_restored,
            pages_deferred: plan.pages_deferred,
            runs: plan.runs,
            newly_paged: plan.newly_paged,
            stack_zeroed: plan.stack_zeroed,
            syscalls_injected: plan.syscalls_injected,
        })
    }

    /// Runs every pass of `plan` under the virtual-clock cost model,
    /// attributing each pass to its Fig. 8 phase.
    fn execute_plan(
        s: &mut PtraceSession<'_>,
        plan: &RestorePlan,
        snapshot: &Snapshot,
        tracker: &mut dyn MemoryTracker,
        bd: &mut Breakdown,
        sw: &mut Stopwatch,
    ) -> Result<(), GhError> {
        for pass in plan.passes() {
            match pass {
                RestorePass::LayoutFixup { calls, batches } => {
                    // Batched injection: one trap round per syscall
                    // (charged inside `inject`), one breakdown lap per
                    // class batch.
                    for batch in batches {
                        for sc in &calls[batch.calls.clone()] {
                            s.inject(sc.clone())?;
                        }
                        bd.add(batch.phase, sw.lap());
                    }
                }
                RestorePass::Madvise { evict } => {
                    s.evict_runs(evict)?;
                    let pages = runs_len(evict);
                    let cost = s.kernel().cost.syscall_inject * evict.len() as u64
                        + s.kernel().cost.madvise_new_page * pages;
                    s.kernel().charge(cost);
                    bd.add(RestorePhase::Madvise, sw.lap());
                }
                RestorePass::StackZero { runs } => {
                    s.write_runs(runs, |_, _| FrameData::Zero, Taint::Clean)?;
                    // Stack zeroing is charged into the memory-restoration
                    // phase: no lap here, the writeback pass's lap absorbs
                    // it.
                    let cost = s.kernel().cost.zero_stack_page * runs_len(runs);
                    s.kernel().charge(cost);
                }
                RestorePass::PageWriteback {
                    runs,
                    lanes,
                    coalesce,
                } => {
                    // Lanes split the sorted run list in address order,
                    // so their concatenation is the whole restore set:
                    // one page-table walk writes every lane's runs.
                    snapshot.write_back(s, runs)?;
                    let cost = s.kernel().cost.restore_lanes_cost(lanes, coalesce);
                    s.kernel().charge(cost);
                    bd.add(RestorePhase::RestoringMemory, sw.lap());
                }
                RestorePass::DeferArm { runs } => {
                    // Lazy mode: register the restore set with the fault
                    // handler instead of copying it. Charged like the
                    // ioctl walk it models; attributed to the same Fig. 8
                    // phase the writeback would have filled, so
                    // eager-vs-lazy comparisons read off one column.
                    let set = snapshot.lazy_sources(runs, s.kernel().frames());
                    s.arm_lazy(set)?;
                    let cost = s
                        .kernel()
                        .cost
                        .defer_arm_cost(runs_len(runs), runs.len() as u64);
                    s.kernel().charge(cost);
                    bd.add(RestorePhase::RestoringMemory, sw.lap());
                }
                RestorePass::TrackerRearm => {
                    tracker.arm(s)?;
                    bd.add(RestorePhase::ClearingSoftDirtyBits, sw.lap());
                }
                RestorePass::RegsReset => {
                    s.restore_regs_all(&snapshot.regs)?;
                    bd.add(RestorePhase::RestoringRegisters, sw.lap());
                }
            }
        }
        Ok(())
    }
}

/// Verifies (for tests and debugging) that a process state matches a
/// snapshot bit-exactly: layout, brk, page contents, registers.
pub fn verify_matches_snapshot(
    kernel: &Kernel,
    pid: Pid,
    snapshot: &Snapshot,
) -> Result<(), String> {
    let proc = kernel.process(pid).map_err(|e| e.to_string())?;
    // Layout.
    let d = crate::diff::LayoutDiff::compute(
        &snapshot.vmas,
        snapshot.brk,
        proc.mem.vmas_iter(),
        proc.mem.brk(),
    );
    if !d.is_empty() {
        return Err(format!("layout differs: {d:?}"));
    }
    // Registers.
    for (tid, regs) in &snapshot.regs {
        let t = proc
            .thread(*tid)
            .ok_or_else(|| format!("thread {tid:?} missing"))?;
        if &t.regs != regs {
            return Err(format!("registers of {tid:?} differ"));
        }
    }
    // Page contents: every snapshot page must be present-or-restorable
    // with identical logical contents; pages absent from the snapshot must
    // not be resident (modulo the stack, which is zeroed instead).
    let stacks = snapshot.stack_ranges();
    for (vpn, pte) in proc.mem.pagemap() {
        let data = kernel.frames().data(pte.frame);
        match snapshot.page_data(vpn, kernel.frames()) {
            Some(saved) => {
                if !saved.logical_eq(data) {
                    return Err(format!("contents of {vpn:?} differ from snapshot"));
                }
            }
            None => {
                let zero = gh_mem::FrameData::Zero;
                if stacks.iter().any(|r| r.contains(vpn)) {
                    if !data.logical_eq(&zero) {
                        return Err(format!("stack page {vpn:?} not zeroed"));
                    }
                } else {
                    return Err(format!("page {vpn:?} resident but not in snapshot"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrackerKind;
    use crate::snapshot::Snapshotter;
    use crate::track::make_tracker;
    use gh_mem::{PageRange, Perms, RequestId, Taint, Touch, VmaKind, Vpn};

    struct Rig {
        kernel: Kernel,
        pid: Pid,
        snapshot: Snapshot,
        tracker: Box<dyn MemoryTracker>,
        region: PageRange,
        cfg: GroundhogConfig,
    }

    fn rig_with(kind: TrackerKind, pages: u64) -> Rig {
        let mut kernel = Kernel::boot();
        let pid = kernel.spawn("f");
        let region = kernel
            .run_charged(pid, |p, frames| {
                let r = p.mem.mmap(pages, Perms::RW, VmaKind::Anon).unwrap();
                for vpn in r.iter() {
                    p.mem
                        .touch(vpn, Touch::WriteWord(0x5EED), Taint::Clean, frames)
                        .unwrap();
                }
                r
            })
            .unwrap()
            .0;
        let mut tracker = make_tracker(kind);
        let (snapshot, _) = Snapshotter::take(&mut kernel, pid, tracker.as_mut()).unwrap();
        Rig {
            kernel,
            pid,
            snapshot,
            tracker,
            region,
            cfg: GroundhogConfig::gh(),
        }
    }

    fn rig() -> Rig {
        rig_with(TrackerKind::SoftDirty, 32)
    }

    fn taint_writes(rig: &mut Rig, offsets: &[u64], req: u64) {
        let region = rig.region;
        rig.kernel
            .run_charged(rig.pid, |p, frames| {
                for &off in offsets {
                    p.mem
                        .touch(
                            Vpn(region.start.0 + off),
                            Touch::WriteWord(0xDEAD_0000 | off),
                            Taint::One(RequestId(req)),
                            frames,
                        )
                        .unwrap();
                }
            })
            .unwrap();
    }

    fn restore(rig: &mut Rig) -> RestoreReport {
        Restorer::restore(
            &mut rig.kernel,
            rig.pid,
            &rig.snapshot,
            rig.tracker.as_mut(),
            &rig.cfg,
        )
        .unwrap()
    }

    #[test]
    fn restore_reverts_contents_exactly() {
        let mut r = rig();
        taint_writes(&mut r, &[1, 5, 9], 1);
        let report = restore(&mut r);
        assert_eq!(report.dirty_pages, 3);
        assert_eq!(report.pages_restored, 3);
        verify_matches_snapshot(&r.kernel, r.pid, &r.snapshot).unwrap();
        // No taint survives.
        let proc = r.kernel.process(r.pid).unwrap();
        assert!(proc
            .mem
            .tainted_pages(RequestId(1), r.kernel.frames())
            .is_empty());
    }

    #[test]
    fn restore_is_idempotent() {
        let mut r = rig();
        taint_writes(&mut r, &[0, 2], 1);
        restore(&mut r);
        let second = restore(&mut r);
        assert_eq!(second.dirty_pages, 0);
        assert_eq!(second.pages_restored, 0);
        verify_matches_snapshot(&r.kernel, r.pid, &r.snapshot).unwrap();
    }

    #[test]
    fn repeated_request_restore_cycles() {
        let mut r = rig();
        for round in 0..5u64 {
            taint_writes(&mut r, &[round, round + 7, round + 13], round);
            let report = restore(&mut r);
            assert_eq!(report.dirty_pages, 3, "round {round}");
            verify_matches_snapshot(&r.kernel, r.pid, &r.snapshot).unwrap();
        }
    }

    #[test]
    fn registers_are_restored() {
        let mut r = rig();
        r.kernel
            .process_mut(r.pid)
            .unwrap()
            .main_thread_mut()
            .regs
            .scramble(1234, Taint::One(RequestId(8)));
        restore(&mut r);
        verify_matches_snapshot(&r.kernel, r.pid, &r.snapshot).unwrap();
        let regs = &r.kernel.process(r.pid).unwrap().main_thread().regs;
        assert_eq!(regs.taint, Taint::Clean);
    }

    #[test]
    fn layout_churn_is_reversed() {
        let mut r = rig();
        // Function mmaps two regions, munmaps part of the original, moves brk.
        let heap_base = r.kernel.process(r.pid).unwrap().mem.config().heap_base;
        let region = r.region;
        r.kernel
            .run_charged(r.pid, |p, frames| {
                let a = p.mem.mmap(8, Perms::RW, VmaKind::Anon).unwrap();
                p.mem
                    .touch(
                        a.start,
                        Touch::WriteWord(1),
                        Taint::One(RequestId(1)),
                        frames,
                    )
                    .unwrap();
                p.mem
                    .munmap(PageRange::at(Vpn(region.start.0 + 4), 2), frames)
                    .unwrap();
                p.mem.set_brk(Vpn(heap_base.0 + 40), frames).unwrap();
                p.mem
                    .touch(
                        Vpn(heap_base.0 + 10),
                        Touch::WriteWord(2),
                        Taint::One(RequestId(1)),
                        frames,
                    )
                    .unwrap();
            })
            .unwrap();
        let report = restore(&mut r);
        assert!(
            report.syscalls_injected >= 3,
            "brk + munmap + mmap at least"
        );
        verify_matches_snapshot(&r.kernel, r.pid, &r.snapshot).unwrap();
        assert!(r
            .kernel
            .process(r.pid)
            .unwrap()
            .mem
            .tainted_pages(RequestId(1), r.kernel.frames())
            .is_empty());
    }

    #[test]
    fn madvised_pages_are_rewritten() {
        // A function that drops snapshot pages (madvise) must get the
        // snapshot contents back, even though those pages are not dirty.
        let mut r = rig();
        let region = r.region;
        r.kernel
            .run_charged(r.pid, |p, frames| {
                p.mem
                    .madvise_dontneed(PageRange::at(Vpn(region.start.0 + 3), 2), frames)
                    .unwrap();
            })
            .unwrap();
        let report = restore(&mut r);
        assert!(report.pages_restored >= 2, "dropped pages rewritten");
        verify_matches_snapshot(&r.kernel, r.pid, &r.snapshot).unwrap();
    }

    #[test]
    fn newly_paged_pages_are_madvised_away() {
        let mut r = rig();
        // Map extra space before snapshot? No: make the *function* read
        // pages of a region that existed but was never resident.
        let extra = r
            .kernel
            .run_charged(r.pid, |p, _| {
                p.mem.mmap(16, Perms::RW, VmaKind::Anon).unwrap()
            })
            .unwrap()
            .0;
        // Re-snapshot with the new layout but nothing resident there.
        let mut tracker = make_tracker(TrackerKind::SoftDirty);
        let (snapshot, _) = Snapshotter::take(&mut r.kernel, r.pid, tracker.as_mut()).unwrap();
        r.snapshot = snapshot;
        r.tracker = tracker;
        // Function reads (pages in) some of the extra region.
        r.kernel
            .run_charged(r.pid, |p, frames| {
                for vpn in extra.iter().take(5) {
                    p.mem.touch(vpn, Touch::Read, Taint::Clean, frames).unwrap();
                }
            })
            .unwrap();
        let report = restore(&mut r);
        assert_eq!(report.newly_paged, 5);
        verify_matches_snapshot(&r.kernel, r.pid, &r.snapshot).unwrap();
        // The pages are genuinely non-resident again.
        let present = r.kernel.process(r.pid).unwrap().mem.present_pages();
        assert_eq!(present, r.snapshot.present_pages());
    }

    #[test]
    fn stack_pages_are_zeroed() {
        let mut r = rig();
        let stack = r.snapshot.stack_ranges()[0];
        // Dirty a stack page that was not resident at snapshot time.
        r.kernel
            .run_charged(r.pid, |p, frames| {
                p.mem
                    .touch(
                        stack.start,
                        Touch::WriteWord(0x5EC2E7),
                        Taint::One(RequestId(2)),
                        frames,
                    )
                    .unwrap();
            })
            .unwrap();
        let report = restore(&mut r);
        assert_eq!(report.stack_zeroed, 1);
        verify_matches_snapshot(&r.kernel, r.pid, &r.snapshot).unwrap();
        let proc = r.kernel.process(r.pid).unwrap();
        assert!(proc
            .mem
            .tainted_pages(RequestId(2), r.kernel.frames())
            .is_empty());
    }

    #[test]
    fn uffd_backend_restores_too() {
        let mut r = rig_with(TrackerKind::Uffd, 32);
        taint_writes(&mut r, &[2, 4, 6], 5);
        let report = restore(&mut r);
        assert_eq!(report.dirty_pages, 3);
        // UFFD cannot see newly-paged pages, but contents must match for
        // everything it can see.
        let proc = r.kernel.process(r.pid).unwrap();
        assert!(proc
            .mem
            .tainted_pages(RequestId(5), r.kernel.frames())
            .is_empty());
    }

    #[test]
    fn coalescing_reduces_charged_time() {
        // Dense contiguous write set: coalesced restore must be cheaper
        // than the uncoalesced ablation.
        let offsets: Vec<u64> = (0..24).collect();

        let mut a = rig();
        taint_writes(&mut a, &offsets, 1);
        let t = restore(&mut a);
        assert_eq!(t.runs, 1, "contiguous set is one run");

        let mut b = rig();
        b.cfg.coalesce = false;
        taint_writes(&mut b, &offsets, 1);
        let u = restore(&mut b);

        let coalesced = t.breakdown.get(RestorePhase::RestoringMemory);
        let scattered = u.breakdown.get(RestorePhase::RestoringMemory);
        assert!(
            coalesced < scattered,
            "coalesced {coalesced} !< uncoalesced {scattered}"
        );
    }

    #[test]
    fn more_lanes_cut_writeback_time() {
        // The same dense write set restored on 1 vs 4 copy lanes: the
        // parallel writeback must be strictly faster, and everything else
        // identical.
        let offsets: Vec<u64> = (0..24).collect();

        let mut serial = rig();
        taint_writes(&mut serial, &offsets, 1);
        let one = restore(&mut serial);

        let mut wide = rig();
        wide.cfg.restore_lanes = 4;
        taint_writes(&mut wide, &offsets, 1);
        let four = restore(&mut wide);

        assert_eq!(one.pages_restored, four.pages_restored);
        assert_eq!(one.runs, four.runs, "report runs are pre-split");
        assert!(
            four.breakdown.get(RestorePhase::RestoringMemory)
                < one.breakdown.get(RestorePhase::RestoringMemory),
            "4 lanes {} !< 1 lane {}",
            four.breakdown.get(RestorePhase::RestoringMemory),
            one.breakdown.get(RestorePhase::RestoringMemory)
        );
        assert!(four.total < one.total);
        verify_matches_snapshot(&wide.kernel, wide.pid, &wide.snapshot).unwrap();
    }

    #[test]
    fn lanes_do_not_change_restored_state() {
        for lanes in [1usize, 2, 4, 8] {
            let mut r = rig();
            r.cfg.restore_lanes = lanes;
            taint_writes(&mut r, &[0, 3, 4, 5, 9, 20, 21], 1);
            let report = restore(&mut r);
            assert_eq!(report.pages_restored, 7, "lanes={lanes}");
            verify_matches_snapshot(&r.kernel, r.pid, &r.snapshot)
                .unwrap_or_else(|e| panic!("lanes={lanes}: {e}"));
        }
    }

    #[test]
    fn breakdown_phases_are_populated() {
        let mut r = rig();
        taint_writes(&mut r, &[1, 3], 1);
        let report = restore(&mut r);
        let bd = &report.breakdown;
        assert!(bd.get(RestorePhase::Interrupting) > Nanos::ZERO);
        assert!(bd.get(RestorePhase::ReadingMaps) > Nanos::ZERO);
        assert!(bd.get(RestorePhase::ScanningPageMetadata) > Nanos::ZERO);
        assert!(bd.get(RestorePhase::RestoringMemory) > Nanos::ZERO);
        assert!(bd.get(RestorePhase::ClearingSoftDirtyBits) > Nanos::ZERO);
        assert!(bd.get(RestorePhase::RestoringRegisters) > Nanos::ZERO);
        assert!(bd.get(RestorePhase::Detaching) > Nanos::ZERO);
        assert_eq!(report.total, bd.total());
    }
}
