//! The restore planner: compiling one rollback into typed passes.
//!
//! §4.4's restore is a *sequence of distinct phases* — layout fixup via
//! injected syscalls, madvise of newly paged pages, stack zeroing, page
//! writeback, tracker re-arm, register reset. The monolithic loop that
//! used to interleave "decide what to do" with "do it" is split here into
//! an explicit, inspectable [`RestorePlan`]:
//!
//! ```text
//!  DirtyReport ─┐
//!  Snapshot    ─┼─▶ RestorePlanner::build ─▶ RestorePlan ─▶ executor
//!  LayoutDiff  ─┘        (pure)              (typed passes)  (restore.rs)
//! ```
//!
//! Planning is **pure**: it consumes the collected scan (`DirtyReport`),
//! the snapshot, and the layout diff, and produces passes without
//! touching the process or the virtual clock. That makes the plan
//! unit-testable in isolation and lets the executor charge every pass
//! against the cost model exactly once.
//!
//! The page-writeback pass carries its coalesced runs pre-split across
//! [`GroundhogConfig::restore_lanes`] parallel copy lanes; all other
//! passes are inherently serialized (ptrace syscall injection, clear_refs,
//! SETREGS) and stay serial.
//!
//! # The restore sets
//!
//! With a pagemap view (soft-dirty) the collection hands over the dirty
//! pages plus the address space's change indices — *fresh* = present ∖
//! snapshot and *dropped* = snapshot ∖ present — and with `munmap` the
//! ranges layout fixup will unmap:
//!
//! ```text
//!  madvise    = (fresh ∖ munmap) ∖ stacks
//!  stack-zero = (fresh ∖ munmap) ∩ stacks
//!  writeback  = (dirty ∖ fresh) ∪ dropped ∪ (snapshot ∩ munmap)
//! ```
//!
//! These equal the textbook sets — madvise what is present but not
//! captured, write back `(dirty ∩ snapshot) ∪ (snapshot ∖ present)`,
//! with pages munmap drops counted as absent — because dirty pages are
//! present. Every term is run algebra over `O(dirty + changed)` runs;
//! only `snapshot ∩ munmap` touches the snapshot's runs, by one binary
//! search per munmapped range. Userfaultfd has no pagemap view: its
//! writeback is `(dirty ∩ snapshot) ∪ (snapshot ∩ remapped)`, and it has
//! no madvise or stack-zero pass.
//!
//! A [`RestorePlan`] owns the buffers of every pass and
//! [`RestorePlanner::build_into`] refills them in place, so a restore
//! plans without allocating once they have grown to the working set.

use std::ops::Range;

use gh_mem::{
    runs_from_sorted_into, runs_intersect_into, runs_len, runs_subtract_into, runs_union_into,
    PageRange,
};
use gh_proc::Syscall;

use crate::breakdown::RestorePhase;
use crate::config::GroundhogConfig;
use crate::snapshot::Snapshot;
use crate::track::DirtyReport;

/// A batch of layout-fixup syscalls of one class, injected back-to-back
/// and attributed to one Fig. 8 phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallBatch {
    /// The Fig. 8 phase this batch's injection time is charged to.
    pub phase: RestorePhase,
    /// The batch's calls, as a range of [`RestorePlan::fixup`].
    pub calls: Range<usize>,
}

/// One pass of the restore pipeline, in execution order: a typed view
/// borrowing the [`RestorePlan`] that owns its buffers.
#[derive(Clone, Copy, Debug)]
pub enum RestorePass<'a> {
    /// Inject the layout-fixup syscalls (brk / munmap / mmap / mprotect),
    /// batched per syscall class.
    LayoutFixup {
        /// The syscalls, in §4.4 injection order.
        calls: &'a [Syscall],
        /// Class batches over `calls`.
        batches: &'a [SyscallBatch],
    },
    /// `madvise(DONTNEED)` pages that became resident after the snapshot,
    /// coalesced into ranges. Present only when the tracker's collection
    /// walked the pagemap (soft-dirty does; userfaultfd cannot see
    /// newly paged pages).
    Madvise {
        /// Ranges to evict.
        evict: &'a [PageRange],
    },
    /// Zero stack pages that paged in after the snapshot (§4.4 restores
    /// the stack by zeroing, not by content copy).
    StackZero {
        /// The pages to zero, as sorted coalesced runs.
        runs: &'a [PageRange],
    },
    /// Write snapshot contents back over the restore set, split across
    /// parallel copy lanes.
    PageWriteback {
        /// Every lane's runs, concatenated in address order (a run split
        /// at a lane boundary appears as two adjacent runs).
        runs: &'a [PageRange],
        /// Per lane, `(pages, runs)` — what the copy time is charged on
        /// (one lane = the paper's serial copy loop).
        lanes: &'a [(u64, u64)],
        /// Whether runs are charged as coalesced bulk copies.
        coalesce: bool,
    },
    /// Lazy restore mode's replacement for [`RestorePass::PageWriteback`]:
    /// write-protect/unmap the restore set against the snapshot image so
    /// each page is faulted in on first touch during the next request.
    /// Cost is one registration per coalesced run plus a per-page PTE
    /// walk — far below the writeback it replaces.
    DeferArm {
        /// The coalesced runs of the deferred set.
        runs: &'a [PageRange],
    },
    /// Re-arm memory tracking (clear soft-dirty bits / re-protect).
    TrackerRearm,
    /// Restore the register files of all threads.
    RegsReset,
}

/// An executable restore plan: the buffers of every pass plus the
/// counters the [`RestoreReport`](crate::restore::RestoreReport)
/// surfaces. [`RestorePlanner::build_into`] refills a plan in place, so
/// a manager that keeps one plans every restore without allocating once
/// the buffers have grown to its working set.
#[derive(Clone, Debug, Default)]
pub struct RestorePlan {
    /// Layout-fixup syscalls, in §4.4 injection order.
    pub fixup: Vec<Syscall>,
    /// Class batches over `fixup`.
    pub batches: Vec<SyscallBatch>,
    /// Whether the madvise pass runs (the collection saw the pagemap).
    pub madvise: bool,
    /// Ranges the madvise pass evicts.
    pub evict: Vec<PageRange>,
    /// Stack runs the stack-zero pass zeroes.
    pub stack_zero: Vec<PageRange>,
    /// The restore set, as sorted maximal runs.
    pub restore: Vec<PageRange>,
    /// Lazy mode: the restore set is armed, not written back.
    pub lazy: bool,
    /// Eager mode: the restore set split across copy lanes, in address
    /// order (see [`split_lanes`]).
    pub lane_runs: Vec<PageRange>,
    /// Eager mode: `(pages, runs)` per copy lane.
    pub lanes: Vec<(u64, u64)>,
    /// Whether writeback runs are charged as coalesced bulk copies.
    pub coalesce: bool,
    /// Dirty pages the tracker reported.
    pub dirty_pages: u64,
    /// Pages whose contents the writeback pass restores.
    pub pages_restored: u64,
    /// Pages whose restoration the `DeferArm` pass defers to first-touch
    /// faults (lazy mode; zero for eager plans).
    pub pages_deferred: u64,
    /// Contiguous runs those pages form (before lane splitting).
    pub runs: u64,
    /// Pages the madvise pass evicts.
    pub newly_paged: u64,
    /// Stack pages the stack-zero pass zeroes.
    pub stack_zeroed: u64,
    /// Layout-fixup syscalls injected.
    pub syscalls_injected: usize,
    /// Intermediate run lists of the set algebra.
    scratch: [Vec<PageRange>; 3],
}

impl RestorePlan {
    /// The passes in execution order.
    pub fn passes(&self) -> impl Iterator<Item = RestorePass<'_>> {
        let memory = if self.lazy {
            RestorePass::DeferArm {
                runs: &self.restore,
            }
        } else {
            RestorePass::PageWriteback {
                runs: &self.lane_runs,
                lanes: &self.lanes,
                coalesce: self.coalesce,
            }
        };
        [
            Some(RestorePass::LayoutFixup {
                calls: &self.fixup,
                batches: &self.batches,
            }),
            self.madvise
                .then_some(RestorePass::Madvise { evict: &self.evict }),
            (!self.stack_zero.is_empty()).then_some(RestorePass::StackZero {
                runs: &self.stack_zero,
            }),
            Some(memory),
            Some(RestorePass::TrackerRearm),
            Some(RestorePass::RegsReset),
        ]
        .into_iter()
        .flatten()
    }
}

/// Groups a sorted page list into contiguous [`PageRange`]s — the
/// coalescing primitive. Run counts are derived from the grouped ranges
/// (`group_ranges(..).len()`), never recomputed separately.
pub fn group_ranges(sorted: &[u64]) -> Vec<PageRange> {
    gh_mem::runs_from_sorted(sorted.iter().copied())
}

/// Splits coalesced runs across `lanes` copy lanes, balancing by page
/// count. Runs are walked in address order and split at lane boundaries,
/// so one lane gets at most `⌈pages/lanes⌉` pages (+ the extra run setup
/// a split introduces). Writes the lanes' runs, concatenated in address
/// order, to `split` and each lane's `(pages, runs)` to `lane_costs`
/// (both cleared first). With `lanes == 1` the input runs pass through
/// untouched.
pub fn split_lanes(
    runs: &[PageRange],
    lanes: usize,
    split: &mut Vec<PageRange>,
    lane_costs: &mut Vec<(u64, u64)>,
) {
    split.clear();
    lane_costs.clear();
    let total = runs_len(runs);
    if total == 0 {
        return;
    }
    let lanes = lanes.max(1);
    let per = total.div_ceil(lanes as u64);
    let (mut cur_pages, mut cur_runs) = (0u64, 0u64);
    for &run in runs {
        let mut rest = run;
        while cur_pages + rest.len() > per && lane_costs.len() + 1 < lanes {
            let take = per - cur_pages;
            if take > 0 {
                split.push(PageRange::at(rest.start, take));
                rest = PageRange::new(gh_mem::Vpn(rest.start.0 + take), rest.end);
                cur_pages += take;
                cur_runs += 1;
            }
            lane_costs.push((cur_pages, cur_runs));
            (cur_pages, cur_runs) = (0, 0);
        }
        if !rest.is_empty() {
            split.push(rest);
            cur_pages += rest.len();
            cur_runs += 1;
        }
    }
    if cur_runs > 0 {
        lane_costs.push((cur_pages, cur_runs));
    }
}

/// Builds [`RestorePlan`]s.
pub struct RestorePlanner;

impl RestorePlanner {
    /// Compiles one restore into typed passes. Pure: no process access,
    /// no clock charges — the executor pays for every pass exactly once.
    pub fn build(
        snapshot: &Snapshot,
        dirty: &DirtyReport,
        diff: &crate::diff::LayoutDiff,
        cfg: &GroundhogConfig,
    ) -> RestorePlan {
        let mut plan = RestorePlan::default();
        Self::build_into(&mut plan, snapshot, dirty, diff, cfg);
        plan
    }

    /// [`RestorePlanner::build`] into `plan`, reusing its buffers.
    ///
    /// # Panics
    ///
    /// Panics if `dirty` carries change indices relative to another
    /// snapshot than `snapshot` (the process was snapshotted again, or
    /// the report comes from another process).
    pub fn build_into(
        plan: &mut RestorePlan,
        snapshot: &Snapshot,
        dirty: &DirtyReport,
        diff: &crate::diff::LayoutDiff,
        cfg: &GroundhogConfig,
    ) {
        // Pass 1: layout fixup, batched per syscall class. `plan_into`
        // emits §4.4 order (brk, munmaps, mmaps, mprotects), so
        // consecutive grouping yields one batch per class.
        plan.fixup.clear();
        diff.plan_into(&mut plan.fixup);
        plan.batches.clear();
        for (i, sc) in plan.fixup.iter().enumerate() {
            let phase = match sc.mnemonic() {
                "brk" => RestorePhase::Brk,
                "mmap" => RestorePhase::Mmap,
                "munmap" => RestorePhase::Munmap,
                "madvise" => RestorePhase::Madvise,
                _ => RestorePhase::Mprotect,
            };
            match plan.batches.last_mut() {
                Some(b) if b.phase == phase => b.calls.end = i + 1,
                _ => plan.batches.push(SyscallBatch {
                    phase,
                    calls: i..i + 1,
                }),
            }
        }
        plan.syscalls_injected = plan.fixup.len();

        // Set algebra over sorted run lists, `O(dirty + changed)` plus a
        // binary search into the snapshot's runs per munmapped range.
        // With a pagemap view the address space's change indices give
        // fresh = present ∖ snapshot and dropped = snapshot ∖ present,
        // and pages munmap will drop are not present for restore math:
        //
        //   madvise    = (fresh ∖ munmap) ∖ stacks
        //   stack-zero = (fresh ∖ munmap) ∩ stacks
        //   restore    = (dirty ∖ fresh) ∪ dropped ∪ (snapshot ∩ munmap)
        //
        // — the same sets as (dirty ∩ snapshot) ∪ (snapshot ∖ present'),
        // with present' = present ∖ munmap, since dirty ⊆ present. The
        // madvise pass evicts only non-snapshot pages, so it cannot
        // change the restore set. Without a pagemap view (UFFD) the
        // second term is limited to the regions we know we remapped.
        let stacks = snapshot.stack_ranges();
        let snap_runs = snapshot.page_runs();
        let [dirty_runs, a, b] = &mut plan.scratch;
        runs_from_sorted_into(dirty.dirty.iter().map(|v| v.0), dirty_runs);
        plan.madvise = dirty.pagemap;
        plan.evict.clear();
        plan.stack_zero.clear();
        if dirty.pagemap {
            assert_eq!(
                dirty.epoch, snapshot.baseline_epoch,
                "change indices are relative to another snapshot"
            );
            runs_subtract_into(&dirty.fresh, &diff.to_munmap, a);
            runs_intersect_into(a, stacks, &mut plan.stack_zero);
            runs_subtract_into(a, stacks, &mut plan.evict);
            runs_subtract_into(dirty_runs, &dirty.fresh, a);
            runs_union_into(a, &dirty.dropped, b);
            runs_intersect_into(snap_runs, &diff.to_munmap, a);
            runs_union_into(b, a, &mut plan.restore);
        } else {
            runs_intersect_into(dirty_runs, snap_runs, a);
            dirty_runs.clear();
            dirty_runs.extend(diff.to_remap.iter().map(|r| r.range));
            runs_intersect_into(snap_runs, dirty_runs, b);
            runs_union_into(a, b, &mut plan.restore);
        }
        plan.newly_paged = runs_len(&plan.evict);
        plan.stack_zeroed = runs_len(&plan.stack_zero);

        // Pass 4: page writeback, or its lazy-mode arming.
        plan.dirty_pages = dirty.dirty.len() as u64;
        plan.runs = plan.restore.len() as u64;
        let pages = runs_len(&plan.restore);
        plan.lazy = cfg.restore_mode.is_lazy();
        plan.coalesce = cfg.coalesce;
        plan.lane_runs.clear();
        plan.lanes.clear();
        if plan.lazy {
            // Lazy mode: the same restore set, armed for first-touch
            // fault-in instead of written back. Pages already pending
            // from an earlier arming are untouched-and-clean, so they
            // never re-enter this set; the address space keeps their
            // obligation alive across epochs.
            plan.pages_deferred = pages;
            plan.pages_restored = 0;
        } else {
            plan.pages_restored = pages;
            plan.pages_deferred = 0;
            split_lanes(
                &plan.restore,
                cfg.restore_lanes,
                &mut plan.lane_runs,
                &mut plan.lanes,
            );
        }
        // Passes 5+6 (tracker re-arm, register reset) carry no data.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::Vpn;

    fn range(start: u64, len: u64) -> PageRange {
        PageRange::at(Vpn(start), len)
    }

    fn split(runs: &[PageRange], lanes: usize) -> (Vec<PageRange>, Vec<(u64, u64)>) {
        let (mut out, mut costs) = (Vec::new(), Vec::new());
        split_lanes(runs, lanes, &mut out, &mut costs);
        (out, costs)
    }

    #[test]
    fn grouping_coalesces_contiguous_pages() {
        assert!(group_ranges(&[]).is_empty());
        assert_eq!(group_ranges(&[5]), vec![range(5, 1)]);
        assert_eq!(group_ranges(&[1, 2, 3]), vec![range(1, 3)]);
        assert_eq!(
            group_ranges(&[1, 2, 4, 5, 9]),
            vec![range(1, 2), range(4, 2), range(9, 1)]
        );
        // Run counts derive from the grouped ranges.
        assert_eq!(group_ranges(&[1, 3, 5]).len(), 3);
    }

    #[test]
    fn one_lane_passes_runs_through() {
        let runs = vec![range(0, 10), range(20, 5)];
        let (out, lanes) = split(&runs, 1);
        assert_eq!(out, runs);
        assert_eq!(lanes, vec![(15, 2)]);
    }

    #[test]
    fn lanes_balance_pages_and_split_large_runs() {
        let (out, lanes) = split(&[range(0, 64)], 4);
        assert_eq!(lanes, vec![(16, 1); 4], "even split of one big run");
        // Lanes cover the original set exactly, in order.
        let pages: Vec<u64> = out.iter().flat_map(|r| r.iter().map(|v| v.0)).collect();
        assert_eq!(pages, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn lanes_never_exceed_request_and_skip_empty() {
        assert_eq!(split(&[], 4), (Vec::new(), Vec::new()));
        let (_, lanes) = split(&[range(0, 2)], 8);
        assert!(lanes.len() <= 2, "2 pages cannot fill 8 lanes");
        let total: u64 = lanes.iter().map(|l| l.0).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn scattered_runs_distribute_across_lanes() {
        let runs: Vec<PageRange> = (0..16).map(|i| range(i * 10, 2)).collect();
        let (out, lanes) = split(&runs, 4);
        assert_eq!(lanes.len(), 4);
        let total: u64 = lanes.iter().map(|l| l.0).sum();
        assert_eq!(total, 32);
        assert_eq!(lanes.iter().map(|l| l.1).sum::<u64>(), out.len() as u64);
        for lane in &lanes {
            assert!(lane.0 <= 8 + 1, "balanced: {}", lane.0);
        }
    }
}
