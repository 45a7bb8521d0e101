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

use gh_mem::{runs_intersect, runs_len, runs_subtract, runs_union, PageRange, Vpn};
use gh_proc::Syscall;

use crate::breakdown::RestorePhase;
use crate::config::GroundhogConfig;
use crate::snapshot::Snapshot;
use crate::track::DirtyReport;

/// A batch of layout-fixup syscalls of one class, injected back-to-back
/// and attributed to one Fig. 8 phase.
#[derive(Clone, Debug)]
pub struct SyscallBatch {
    /// The Fig. 8 phase this batch's injection time is charged to.
    pub phase: RestorePhase,
    /// The syscalls, in §4.4 order.
    pub calls: Vec<Syscall>,
}

/// One parallel copy lane of the page-writeback pass.
#[derive(Clone, Debug, Default)]
pub struct WritebackLane {
    /// Coalesced contiguous runs assigned to this lane, in address order.
    pub runs: Vec<PageRange>,
}

impl WritebackLane {
    /// Pages this lane copies.
    pub fn pages(&self) -> u64 {
        self.runs.iter().map(|r| r.len()).sum()
    }
}

/// One pass of the restore pipeline, in execution order.
#[derive(Clone, Debug)]
pub enum RestorePass {
    /// Inject the layout-fixup syscalls (brk / munmap / mmap / mprotect),
    /// batched per syscall class.
    LayoutFixup {
        /// The batches, in §4.4 injection order.
        batches: Vec<SyscallBatch>,
    },
    /// `madvise(DONTNEED)` pages that became resident after the snapshot,
    /// coalesced into ranges. Present only when the tracker's collection
    /// walked the pagemap (soft-dirty does; userfaultfd cannot see
    /// newly paged pages).
    Madvise {
        /// Ranges to evict.
        evict: Vec<PageRange>,
    },
    /// Zero stack pages that paged in after the snapshot (§4.4 restores
    /// the stack by zeroing, not by content copy).
    StackZero {
        /// The pages to zero, as sorted coalesced runs.
        runs: Vec<PageRange>,
    },
    /// Write snapshot contents back over the restore set, split across
    /// parallel copy lanes.
    PageWriteback {
        /// Lane assignment (one lane = the paper's serial copy loop).
        lanes: Vec<WritebackLane>,
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
        runs: Vec<PageRange>,
    },
    /// Re-arm memory tracking (clear soft-dirty bits / re-protect).
    TrackerRearm,
    /// Restore the register files of all threads.
    RegsReset,
}

/// An executable restore plan: the typed passes plus the counters the
/// [`RestoreReport`](crate::restore::RestoreReport) surfaces.
#[derive(Clone, Debug, Default)]
pub struct RestorePlan {
    /// Passes in execution order.
    pub passes: Vec<RestorePass>,
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
/// a split introduces). With `lanes == 1` the input runs pass through
/// untouched.
pub fn split_lanes(runs: &[PageRange], lanes: usize) -> Vec<WritebackLane> {
    let total: u64 = runs.iter().map(|r| r.len()).sum();
    if total == 0 {
        return Vec::new();
    }
    let lanes = lanes.max(1);
    let per = total.div_ceil(lanes as u64);
    let mut out: Vec<WritebackLane> = Vec::new();
    let mut cur = WritebackLane::default();
    let mut cur_pages = 0u64;
    for &run in runs {
        let mut rest = run;
        while cur_pages + rest.len() > per && out.len() + 1 < lanes {
            let take = per - cur_pages;
            if take > 0 {
                cur.runs.push(PageRange::at(rest.start, take));
                rest = PageRange::new(Vpn(rest.start.0 + take), rest.end);
            }
            out.push(std::mem::take(&mut cur));
            cur_pages = 0;
        }
        if !rest.is_empty() {
            cur_pages += rest.len();
            cur.runs.push(rest);
        }
    }
    if !cur.runs.is_empty() {
        out.push(cur);
    }
    out
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
        let mut plan = RestorePlan {
            dirty_pages: dirty.dirty.len() as u64,
            ..RestorePlan::default()
        };

        // Pass 1: layout fixup, batched per syscall class. `diff.plan()`
        // already emits §4.4 order (brk, munmaps, mmaps, mprotects), so
        // consecutive grouping yields one batch per class.
        let mut batches: Vec<SyscallBatch> = Vec::new();
        for sc in diff.plan() {
            let phase = match sc.mnemonic() {
                "brk" => RestorePhase::Brk,
                "mmap" => RestorePhase::Mmap,
                "munmap" => RestorePhase::Munmap,
                "madvise" => RestorePhase::Madvise,
                _ => RestorePhase::Mprotect,
            };
            plan.syscalls_injected += 1;
            match batches.last_mut() {
                Some(b) if b.phase == phase => b.calls.push(sc),
                _ => batches.push(SyscallBatch {
                    phase,
                    calls: vec![sc],
                }),
            }
        }
        plan.passes.push(RestorePass::LayoutFixup { batches });

        // Passes 2+3: newly paged pages (pagemap view required). Stack
        // pages are zeroed; everything else is madvised away. All set
        // work is run algebra over sorted run lists — `O(dirty + runs)`,
        // never a per-page walk.
        let stacks = snapshot.stack_ranges();
        let snap_runs = snapshot.page_runs();

        let mut still_present: Option<Vec<PageRange>> = None;
        let mut stack_zero: Vec<PageRange> = Vec::new();
        if let Some(present_runs) = &dirty.present_runs {
            // Pages munmap will drop are not present for restore math.
            let present = runs_subtract(present_runs, &diff.to_munmap);
            // Fresh = resident now but absent from the snapshot.
            let fresh = runs_subtract(&present, snap_runs);
            if cfg.zero_stack {
                stack_zero = runs_intersect(&fresh, stacks);
            }
            let evict = if cfg.madvise_new {
                runs_subtract(&fresh, stacks)
            } else {
                Vec::new()
            };
            plan.newly_paged = runs_len(&evict);
            plan.stack_zeroed = runs_len(&stack_zero);
            plan.passes.push(RestorePass::Madvise { evict });
            still_present = Some(present);
        }
        if !stack_zero.is_empty() {
            plan.passes
                .push(RestorePass::StackZero { runs: stack_zero });
        }

        // Pass 4: page writeback. The restore set is
        //   (dirty ∩ snapshot) ∪ (snapshot \ currently-present),
        // the second term covering pages dropped by madvise/munmap+remap
        // churn. The madvise pass evicts only non-snapshot pages, so it
        // cannot change the second term. Without a pagemap view (UFFD),
        // the second term is limited to the regions we know we remapped.
        let dirty_runs = gh_mem::runs_from_sorted(dirty.dirty.iter().map(|v| v.0));
        let term1 = runs_intersect(&dirty_runs, snap_runs);
        let runs = match &still_present {
            Some(present) => runs_union(&term1, &runs_subtract(snap_runs, present)),
            None => {
                let remapped: Vec<PageRange> = diff.to_remap.iter().map(|r| r.range).collect();
                runs_union(&term1, &runs_intersect(snap_runs, &remapped))
            }
        };
        plan.runs = runs.len() as u64;
        let pages = runs_len(&runs);
        if cfg.restore_mode.is_lazy() {
            // Lazy mode: the same restore set, armed for first-touch
            // fault-in instead of written back. Pages already pending
            // from an earlier arming are untouched-and-clean, so they
            // never re-enter this set; the address space keeps their
            // obligation alive across epochs.
            plan.pages_deferred = pages;
            plan.passes.push(RestorePass::DeferArm { runs });
        } else {
            plan.pages_restored = pages;
            plan.passes.push(RestorePass::PageWriteback {
                lanes: split_lanes(&runs, cfg.restore_lanes),
                coalesce: cfg.coalesce,
            });
        }

        // Passes 5+6: re-arm tracking, then reset registers (§4.4 order;
        // the executor keeps both serial).
        plan.passes.push(RestorePass::TrackerRearm);
        plan.passes.push(RestorePass::RegsReset);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(start: u64, len: u64) -> PageRange {
        PageRange::at(Vpn(start), len)
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
        let lanes = split_lanes(&runs, 1);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].runs, runs);
        assert_eq!(lanes[0].pages(), 15);
    }

    #[test]
    fn lanes_balance_pages_and_split_large_runs() {
        let runs = vec![range(0, 64)];
        let lanes = split_lanes(&runs, 4);
        assert_eq!(lanes.len(), 4);
        for lane in &lanes {
            assert_eq!(lane.pages(), 16, "even split of one big run");
        }
        // Lanes cover the original set exactly, in order.
        let pages: Vec<u64> = lanes
            .iter()
            .flat_map(|l| l.runs.iter().flat_map(|r| r.iter().map(|v| v.0)))
            .collect();
        assert_eq!(pages, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn lanes_never_exceed_request_and_skip_empty() {
        assert!(split_lanes(&[], 4).is_empty());
        let lanes = split_lanes(&[range(0, 2)], 8);
        assert!(lanes.len() <= 2, "2 pages cannot fill 8 lanes");
        let total: u64 = lanes.iter().map(|l| l.pages()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn scattered_runs_distribute_across_lanes() {
        let runs: Vec<PageRange> = (0..16).map(|i| range(i * 10, 2)).collect();
        let lanes = split_lanes(&runs, 4);
        assert_eq!(lanes.len(), 4);
        let total: u64 = lanes.iter().map(|l| l.pages()).sum();
        assert_eq!(total, 32);
        for lane in &lanes {
            assert!(lane.pages() <= 8 + 1, "balanced: {}", lane.pages());
        }
    }
}
