//! Differential test: the plan-based restore engine vs. the pre-refactor
//! monolith.
//!
//! `reference_restore` below is a verbatim copy of the monolithic
//! `Restorer::restore` as it existed before the planner/executor split.
//! For randomized dirty sets (seeded [`DetRng`] loop, per the workspace's
//! proptest convention) run on twin rigs, the pipeline at
//! `restore_lanes = 1` must be **bit-for-bit** identical to the
//! reference: same [`Breakdown`], same report counters, same final
//! virtual time, and the restored process must pass
//! `verify_matches_snapshot`. The monolith derives the restore set from
//! a pagemap walk; the pipeline from the address space's change indices
//! — so the rigs run in every snapshot mode, over several rounds, with
//! stack-page faults whose zeroed pages stay resident (and outside the
//! snapshot) from one restore to the next.

use std::collections::BTreeSet;

use gh_mem::{PageRange, Perms, RequestId, Taint, Touch, VmaKind, Vpn};
use gh_proc::{Kernel, Pid, PtraceSession};
use gh_sim::clock::Stopwatch;
use gh_sim::DetRng;
use groundhog_core::breakdown::{Breakdown, RestorePhase};
use groundhog_core::restore::verify_matches_snapshot;
use groundhog_core::snapshot::{Snapshot, SnapshotMode, Snapshotter};
use groundhog_core::track::{make_tracker, MemoryTracker};
use groundhog_core::{GhError, GroundhogConfig, Restorer, TrackerKind};

/// What the reference monolith reports: `(breakdown, dirty, restored,
/// runs, newly_paged, stack_zeroed, syscalls)`.
type ReferenceOutcome = (Breakdown, u64, u64, u64, u64, u64, usize);

/// The pre-refactor monolithic restore, preserved as the test oracle.
#[allow(clippy::too_many_lines)]
fn reference_restore(
    kernel: &mut Kernel,
    pid: Pid,
    snapshot: &Snapshot,
    tracker: &mut dyn MemoryTracker,
    cfg: &GroundhogConfig,
) -> Result<ReferenceOutcome, GhError> {
    fn count_runs(sorted: &[u64]) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        1 + sorted.windows(2).filter(|w| w[1] != w[0] + 1).count() as u64
    }
    fn group_ranges(sorted: &[u64]) -> Vec<PageRange> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let start = sorted[i];
            let mut end = start + 1;
            i += 1;
            while i < sorted.len() && sorted[i] == end {
                end += 1;
                i += 1;
            }
            out.push(PageRange::new(Vpn(start), Vpn(end)));
        }
        out
    }

    let mut bd = Breakdown::new();
    let mut sw = Stopwatch::start(&kernel.clock);
    let mut s = PtraceSession::attach(kernel, pid)?;

    s.interrupt_all()?;
    bd.add(RestorePhase::Interrupting, sw.lap());

    let cur_maps = s.read_maps()?;
    bd.add(RestorePhase::ReadingMaps, sw.lap());

    let dirty_report = tracker.collect(&mut s)?;
    bd.add(RestorePhase::ScanningPageMetadata, sw.lap());

    let cur_brk = s.kernel().process(pid)?.mem.brk();
    let diff =
        groundhog_core::LayoutDiff::compute(&snapshot.vmas, snapshot.brk, &cur_maps, cur_brk);
    let diff_cost = s
        .kernel()
        .cost
        .diff_cost(cur_maps.len() + snapshot.vmas.len());
    s.kernel().charge(diff_cost);
    bd.add(RestorePhase::DiffingMemoryLayouts, sw.lap());

    let plan = diff.plan();
    let syscalls_injected = plan.len();
    for sc in plan {
        let phase = match sc.mnemonic() {
            "brk" => RestorePhase::Brk,
            "mmap" => RestorePhase::Mmap,
            "munmap" => RestorePhase::Munmap,
            "madvise" => RestorePhase::Madvise,
            _ => RestorePhase::Mprotect,
        };
        s.inject(sc)?;
        bd.add(phase, sw.lap());
    }

    let stack_ranges = snapshot.stack_ranges();
    let in_stack = |vpn: u64| stack_ranges.iter().any(|r| r.contains(Vpn(vpn)));
    let in_ranges = |ranges: &[PageRange], vpn: u64| ranges.iter().any(|r| r.contains(Vpn(vpn)));

    let mut newly_paged = 0u64;
    let mut stack_zeroed = 0u64;
    let mut present_after: Option<BTreeSet<u64>> = None;
    // (Adapter: the monolith walked the pagemap whenever the tracker's
    // collection could see it; that per-page set is read off the
    // process here.)
    if dirty_report.pagemap {
        let present_runs = s.kernel().process(pid)?.mem.present_runs();
        let mut present: BTreeSet<u64> = present_runs
            .iter()
            .flat_map(|r| r.iter().map(|v| v.0))
            .filter(|&v| !in_ranges(&diff.to_munmap, v))
            .collect();

        let fresh: Vec<u64> = present
            .iter()
            .copied()
            .filter(|&v| !snapshot.has_page(Vpn(v)))
            .collect();
        let mut evicted: Vec<u64> = Vec::new();
        for &v in &fresh {
            if in_stack(v) {
                s.zero_page(Vpn(v))?;
                stack_zeroed += 1;
            } else {
                s.evict_page(Vpn(v))?;
                evicted.push(v);
            }
        }
        newly_paged = evicted.len() as u64;
        let evict_runs = group_ranges(&evicted).len() as u64;
        let madvise_cost = s.kernel().cost.syscall_inject * evict_runs
            + s.kernel().cost.madvise_new_page * newly_paged;
        s.kernel().charge(madvise_cost);
        for v in &evicted {
            present.remove(v);
        }
        bd.add(RestorePhase::Madvise, sw.lap());

        let zero_cost = s.kernel().cost.zero_stack_page * stack_zeroed;
        s.kernel().charge(zero_cost);
        present_after = Some(present);
    }

    let mut restore_set: BTreeSet<u64> = dirty_report
        .dirty
        .iter()
        .map(|v| v.0)
        .filter(|&v| snapshot.has_page(Vpn(v)))
        .collect();
    match &present_after {
        Some(present) => {
            for v in snapshot.page_vpns() {
                if !present.contains(&v) {
                    restore_set.insert(v);
                }
            }
        }
        None => {
            let remapped: Vec<PageRange> = diff.to_remap.iter().map(|r| r.range).collect();
            for v in snapshot.page_vpns() {
                if in_ranges(&remapped, v) {
                    restore_set.insert(v);
                }
            }
        }
    }
    let sorted: Vec<u64> = restore_set.iter().copied().collect();
    let runs = count_runs(&sorted);
    let pages_restored = sorted.len() as u64;
    for &v in &sorted {
        let data = snapshot
            .page_data(Vpn(v), s.kernel().frames())
            .expect("restore set ⊆ snapshot");
        s.write_page(Vpn(v), &data, Taint::Clean)?;
    }
    let copy_cost = if cfg.coalesce {
        s.kernel().cost.restore_pages_cost(pages_restored, runs)
    } else {
        s.kernel()
            .cost
            .restore_pages_cost_uncoalesced(pages_restored)
    };
    s.kernel().charge(copy_cost);
    bd.add(RestorePhase::RestoringMemory, sw.lap());

    tracker.arm(&mut s)?;
    bd.add(RestorePhase::ClearingSoftDirtyBits, sw.lap());

    s.restore_regs_all(&snapshot.regs)?;
    bd.add(RestorePhase::RestoringRegisters, sw.lap());

    s.detach()?;
    bd.add(RestorePhase::Detaching, sw.lap());

    Ok((
        bd,
        dirty_report.dirty.len() as u64,
        pages_restored,
        runs,
        newly_paged,
        stack_zeroed,
        syscalls_injected,
    ))
}

/// One rig: a 64-page anon region + heap, snapshotted.
struct Rig {
    kernel: Kernel,
    pid: Pid,
    snapshot: Snapshot,
    tracker: Box<dyn MemoryTracker>,
    region: PageRange,
}

fn rig(tracker_kind: TrackerKind) -> Rig {
    rig_mode(tracker_kind, SnapshotMode::Eager)
}

/// A snapshot mode by name, built fresh per rig.
type ModeMaker = (&'static str, fn() -> SnapshotMode);

/// The snapshot modes, each with a fresh store where it needs one.
fn modes() -> [ModeMaker; 3] {
    [
        ("eager", || SnapshotMode::Eager),
        ("cow", || SnapshotMode::Cow),
        ("shared", || SnapshotMode::Shared {
            store: gh_mem::SnapshotStore::new_handle(),
            key: "twin".into(),
        }),
    ]
}

fn rig_mode(tracker_kind: TrackerKind, mode: SnapshotMode) -> Rig {
    let mut kernel = Kernel::boot();
    let pid = kernel.spawn("twin");
    let heap_base = kernel.process(pid).unwrap().mem.config().heap_base;
    let region = kernel
        .run_charged(pid, |p, frames| {
            let r = p.mem.mmap(64, Perms::RW, VmaKind::Anon).unwrap();
            p.mem.set_brk(Vpn(heap_base.0 + 16), frames).unwrap();
            for vpn in r.iter() {
                p.mem
                    .touch(vpn, Touch::WriteWord(0xC1EA4), Taint::Clean, frames)
                    .unwrap();
            }
            r
        })
        .unwrap()
        .0;
    let mut tracker = make_tracker(tracker_kind);
    let (snapshot, _) = Snapshotter::take_mode(&mut kernel, pid, tracker.as_mut(), mode).unwrap();
    Rig {
        kernel,
        pid,
        snapshot,
        tracker,
        region,
    }
}

/// Applies an identical random activation to a rig: scattered writes,
/// reads, stack-page faults, an occasional mmap/munmap/brk/madvise,
/// register scrambles.
fn perturb(rig: &mut Rig, rng_seed: u64, req: u64) {
    let region = rig.region;
    let heap_base = rig.kernel.process(rig.pid).unwrap().mem.config().heap_base;
    let mut rng = DetRng::new(rng_seed);
    let acts = 1 + rng.next_below(39);
    rig.kernel
        .run_charged(rig.pid, |p, frames| {
            for _ in 0..acts {
                match rng.next_below(8) {
                    0 => {
                        let _ = p.mem.touch(
                            Vpn(region.start.0 + rng.next_below(64)),
                            Touch::WriteWord(rng.next_u64()),
                            Taint::One(RequestId(req)),
                            frames,
                        );
                    }
                    1 => {
                        let _ = p.mem.touch(
                            Vpn(region.start.0 + rng.next_below(64)),
                            Touch::Read,
                            Taint::Clean,
                            frames,
                        );
                    }
                    2 => {
                        if let Ok(r) = p.mem.mmap(1 + rng.next_below(15), Perms::RW, VmaKind::Anon)
                        {
                            let _ = p.mem.touch(
                                r.start,
                                Touch::WriteWord(0x11),
                                Taint::One(RequestId(req)),
                                frames,
                            );
                        }
                    }
                    3 => {
                        let _ = p.mem.munmap(
                            PageRange::at(
                                Vpn(region.start.0 + rng.next_below(64)),
                                1 + rng.next_below(3),
                            ),
                            frames,
                        );
                    }
                    4 => {
                        let cur = p.mem.brk().0 as i64;
                        let delta = rng.next_below(40) as i64 - 8;
                        let new = (cur + delta).max(heap_base.0 as i64) as u64;
                        let _ = p.mem.set_brk(Vpn(new), frames);
                    }
                    5 => {
                        let _ = p.mem.madvise_dontneed(
                            PageRange::at(
                                Vpn(region.start.0 + rng.next_below(64)),
                                1 + rng.next_below(3),
                            ),
                            frames,
                        );
                    }
                    6 => {
                        // The stack was not resident at snapshot time:
                        // the restore zeroes the page and leaves it
                        // resident, outside the snapshot.
                        let top = p.mem.config().stack_top.0;
                        let _ = p.mem.touch(
                            Vpn(top - 1 - rng.next_below(8)),
                            Touch::WriteWord(rng.next_u64()),
                            Taint::One(RequestId(req)),
                            frames,
                        );
                    }
                    _ => {
                        p.threads[0]
                            .regs
                            .scramble(rng.next_u64(), Taint::One(RequestId(req)));
                    }
                }
            }
        })
        .unwrap();
}

#[test]
fn one_lane_pipeline_is_bit_identical_to_monolith() {
    for (mode, make) in modes() {
        let mut rezeroed = 0;
        for case in 0..48u64 {
            let mut old = rig_mode(TrackerKind::SoftDirty, make());
            let mut new = rig_mode(TrackerKind::SoftDirty, make());
            rezeroed += twin_rounds(&mut old, &mut new, mode, case);
        }
        assert!(
            rezeroed > 0,
            "{mode}: no stack page was zeroed again after the first round"
        );
    }
}

/// Four perturb → restore rounds on a twin pair, the monolith on `old`
/// and the pipeline on `new`, asserting bit-identity after each.
/// Returns the stack pages zeroed after the first round (a page faulted
/// in an earlier round stays resident and is zeroed again).
fn twin_rounds(old: &mut Rig, new: &mut Rig, mode: &str, case: u64) -> u64 {
    let cfg = GroundhogConfig::gh();
    assert_eq!(cfg.restore_lanes, 1);
    let mut rezeroed = 0;
    for round in 0..4u64 {
        let at = format!("{mode} case {case} round {round}");
        let seed = 0x091A_5EED ^ (case << 8) ^ round;
        perturb(old, seed, round + 1);
        perturb(new, seed, round + 1);

        let (bd, dirty, restored, runs, newly, zeroed, syscalls) = reference_restore(
            &mut old.kernel,
            old.pid,
            &old.snapshot,
            old.tracker.as_mut(),
            &cfg,
        )
        .unwrap();
        let report = Restorer::restore(
            &mut new.kernel,
            new.pid,
            &new.snapshot,
            new.tracker.as_mut(),
            &cfg,
        )
        .unwrap();

        assert_eq!(report.breakdown, bd, "{at}: breakdown");
        assert_eq!(report.total, bd.total(), "{at}: total");
        assert_eq!(report.dirty_pages, dirty, "{at}: dirty");
        assert_eq!(report.pages_restored, restored, "{at}: restored");
        assert_eq!(report.runs, runs, "{at}: runs");
        assert_eq!(report.newly_paged, newly, "{at}: newly paged");
        assert_eq!(report.stack_zeroed, zeroed, "{at}: stack zeroed");
        assert_eq!(report.syscalls_injected, syscalls, "{at}: syscalls");
        assert_eq!(
            old.kernel.clock.now(),
            new.kernel.clock.now(),
            "{at}: virtual timelines diverged"
        );
        if round > 0 {
            rezeroed += report.stack_zeroed;
        }

        verify_matches_snapshot(&new.kernel, new.pid, &new.snapshot)
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        verify_matches_snapshot(&old.kernel, old.pid, &old.snapshot)
            .unwrap_or_else(|e| panic!("{at} (reference): {e}"));
    }
    rezeroed
}

#[test]
fn one_lane_pipeline_matches_monolith_under_uffd() {
    // UFFD has no pagemap view: the madvise/stack-zero passes are
    // skipped and the fallback restore set is exercised.
    for case in 0..24u64 {
        let mut old = rig(TrackerKind::Uffd);
        let mut new = rig(TrackerKind::Uffd);
        let cfg = GroundhogConfig {
            tracker: TrackerKind::Uffd,
            ..GroundhogConfig::gh()
        };
        // Writes/reads only (the workloads UFFD is sound for).
        let seed = 0xF0F ^ case;
        let mut rng = DetRng::new(seed);
        let offsets: Vec<u64> = (0..1 + rng.next_below(30))
            .map(|_| rng.next_below(64))
            .collect();
        for r in [&mut old, &mut new] {
            let region = r.region;
            r.kernel
                .run_charged(r.pid, |p, frames| {
                    for &off in &offsets {
                        let _ = p.mem.touch(
                            Vpn(region.start.0 + off),
                            Touch::WriteWord(0xAB ^ off),
                            Taint::One(RequestId(1)),
                            frames,
                        );
                    }
                })
                .unwrap();
        }
        let (bd, dirty, restored, ..) = reference_restore(
            &mut old.kernel,
            old.pid,
            &old.snapshot,
            old.tracker.as_mut(),
            &cfg,
        )
        .unwrap();
        let report = Restorer::restore(
            &mut new.kernel,
            new.pid,
            &new.snapshot,
            new.tracker.as_mut(),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.breakdown, bd, "case {case}");
        assert_eq!(report.dirty_pages, dirty);
        assert_eq!(report.pages_restored, restored);
        assert_eq!(old.kernel.clock.now(), new.kernel.clock.now());
    }
}

#[test]
fn multi_lane_pipeline_restores_identically_but_faster() {
    // Lanes change the virtual-time charge of the writeback pass only:
    // the restored state and every non-time counter stay identical, and
    // the restore gets strictly faster when there is enough work.
    for case in 0..16u64 {
        let mut serial = rig(TrackerKind::SoftDirty);
        let mut wide = rig(TrackerKind::SoftDirty);
        let seed = 0xBEE ^ (case << 4);
        perturb(&mut serial, seed, 1);
        perturb(&mut wide, seed, 1);

        let cfg1 = GroundhogConfig::gh();
        let cfg4 = GroundhogConfig::with_lanes(4);
        let one = Restorer::restore(
            &mut serial.kernel,
            serial.pid,
            &serial.snapshot,
            serial.tracker.as_mut(),
            &cfg1,
        )
        .unwrap();
        let four = Restorer::restore(
            &mut wide.kernel,
            wide.pid,
            &wide.snapshot,
            wide.tracker.as_mut(),
            &cfg4,
        )
        .unwrap();

        assert_eq!(one.dirty_pages, four.dirty_pages, "case {case}");
        assert_eq!(one.pages_restored, four.pages_restored, "case {case}");
        assert_eq!(one.runs, four.runs, "case {case}");
        assert_eq!(one.newly_paged, four.newly_paged, "case {case}");
        verify_matches_snapshot(&wide.kernel, wide.pid, &wide.snapshot)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        if one.pages_restored >= 8 {
            assert!(
                four.total < one.total,
                "case {case}: 4 lanes {} !< 1 lane {}",
                four.total,
                one.total
            );
        }
    }
}
