//! Randomized (property-style) tests of the virtual-memory substrate.
//!
//! These check the invariants Groundhog's correctness rests on:
//! soft-dirty tracking is *exact* (dirty set == written set), CoW never
//! leaks writes between fork relatives, frame refcounting is leak-free,
//! and page contents are representation-independent.
//!
//! Cases are generated with the workspace's own seeded [`DetRng`]
//! (crates.io is unavailable in the build environment, so `proptest`
//! cannot be used); every run replays the identical case set, and a
//! failing case is reproducible from the printed seed alone.

use gh_sim::DetRng;

use gh_mem::{
    AddressSpace, FrameData, FrameTable, PageRange, Perms, SpaceConfig, Taint, Touch, VmaKind, Vpn,
};

/// Ops the fuzzer may perform against an address space.
#[derive(Clone, Debug)]
enum Op {
    Mmap(u64),
    MunmapAt(usize, u64),
    Brk(i64),
    TouchWrite(usize),
    TouchRead(usize),
    MprotectRo(usize, u64),
    Madvise(usize, u64),
    ClearSd,
}

fn random_op(rng: &mut DetRng) -> Op {
    match rng.next_below(8) {
        0 => Op::Mmap(1 + rng.next_below(31)),
        1 => Op::MunmapAt(rng.next_u64() as usize, 1 + rng.next_below(7)),
        2 => Op::Brk(rng.next_below(80) as i64 - 16),
        3 => Op::TouchWrite(rng.next_u64() as usize),
        4 => Op::TouchRead(rng.next_u64() as usize),
        5 => Op::MprotectRo(rng.next_u64() as usize, 1 + rng.next_below(3)),
        6 => Op::Madvise(rng.next_u64() as usize, 1 + rng.next_below(7)),
        _ => Op::ClearSd,
    }
}

/// Picks an existing mapped page (if any) deterministically from an index.
fn pick_page(space: &AddressSpace, i: usize) -> Option<Vpn> {
    let maps = space.maps();
    if maps.is_empty() {
        return None;
    }
    let vma = &maps[i % maps.len()];
    let off = (i as u64 / maps.len().max(1) as u64) % vma.range.len();
    Some(Vpn(vma.range.start.0 + off))
}

/// Sorted, disjoint random runs starting at a mapped page: gaps,
/// adjacent pieces (a lane split) and runs crossing a VMA end or an
/// unmapped hole all occur.
fn random_runs(space: &AddressSpace, rng: &mut DetRng) -> Vec<PageRange> {
    let Some(start) = pick_page(space, rng.next_u64() as usize) else {
        return Vec::new();
    };
    let mut next = start.0;
    (0..1 + rng.next_below(4))
        .map(|_| {
            let run = PageRange::at(Vpn(next + rng.next_below(4)), 1 + rng.next_below(12));
            next = run.end.0;
            run
        })
        .collect()
}

/// The address space's change indices against an independent model:
/// `fresh` must be `present ∖ baseline` and `dropped` `baseline ∖
/// present`, both empty while no baseline has been taken.
fn check_change_indices(
    space: &AddressSpace,
    present: &std::collections::BTreeSet<u64>,
    baseline: Option<&std::collections::BTreeSet<u64>>,
) -> Result<(), String> {
    let pages = |runs: &[PageRange]| -> Vec<u64> {
        runs.iter().flat_map(|r| r.iter().map(|v| v.0)).collect()
    };
    let (mut fresh, mut dropped) = (Vec::new(), Vec::new());
    space.fresh_runs_into(&mut fresh);
    space.dropped_runs_into(&mut dropped);
    let empty = std::collections::BTreeSet::new();
    let base = baseline.unwrap_or(&empty);
    let want_fresh: Vec<u64> = match baseline {
        Some(b) => present.difference(b).copied().collect(),
        None => Vec::new(),
    };
    let want_dropped: Vec<u64> = base.difference(present).copied().collect();
    if pages(&fresh) != want_fresh {
        return Err(format!(
            "fresh {fresh:?} != present ∖ baseline {want_fresh:?}"
        ));
    }
    if pages(&dropped) != want_dropped {
        return Err(format!(
            "dropped {dropped:?} != baseline ∖ present {want_dropped:?}"
        ));
    }
    Ok(())
}

/// Any op sequence preserves structural invariants and never leaks or
/// double-frees frames.
#[test]
fn invariants_hold_under_random_ops() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xA11_0B5 ^ case);
        let n_ops = 1 + rng.next_below(119) as usize;
        let mut frames = FrameTable::new();
        let mut space = AddressSpace::new(SpaceConfig::default(), &mut frames);
        let heap_base = space.config().heap_base;
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Mmap(len) => {
                    let _ = space.mmap(len, Perms::RW, VmaKind::Anon);
                }
                Op::MunmapAt(i, len) => {
                    if let Some(vpn) = pick_page(&space, i) {
                        let _ = space.munmap(PageRange::at(vpn, len), &mut frames);
                    }
                }
                Op::Brk(delta) => {
                    let cur = space.brk().0 as i64;
                    let new = (cur + delta).max(heap_base.0 as i64) as u64;
                    let _ = space.set_brk(Vpn(new), &mut frames);
                }
                Op::TouchWrite(i) => {
                    if let Some(vpn) = pick_page(&space, i) {
                        let _ =
                            space.touch(vpn, Touch::WriteWord(i as u64), Taint::Clean, &mut frames);
                    }
                }
                Op::TouchRead(i) => {
                    if let Some(vpn) = pick_page(&space, i) {
                        let _ = space.touch(vpn, Touch::Read, Taint::Clean, &mut frames);
                    }
                }
                Op::MprotectRo(i, len) => {
                    if let Some(vpn) = pick_page(&space, i) {
                        let _ = space.mprotect(PageRange::at(vpn, len), Perms::R);
                    }
                }
                Op::Madvise(i, len) => {
                    if let Some(vpn) = pick_page(&space, i) {
                        let _ = space.madvise_dontneed(PageRange::at(vpn, len), &mut frames);
                    }
                }
                Op::ClearSd => space.clear_soft_dirty(),
            }
            assert!(
                space.check_invariants().is_ok(),
                "case {case}: {:?}",
                space.check_invariants()
            );
        }
        // Every live frame is referenced exactly by the page table.
        assert_eq!(frames.live() as u64, space.present_pages(), "case {case}");
        space.release_all(&mut frames);
        assert_eq!(
            frames.live(),
            0,
            "case {case}: teardown must free all frames"
        );
    }
}

/// The extent/index invariants hold under every interleaving of VMA
/// churn, faults, tracking epochs, uffd arming, CoW marking, lazy
/// restore obligations and the bulk restore passes (multi-run
/// writeback, multi-range eviction, walk-based zeroing): extents stay
/// sorted/maximal, chunk occupancy matches coverage, and the dirty/taint
/// index bits agree bit-for-bit with page state
/// (`check_invariants_with_frames` verifies all of it after every step).
/// The change indices are checked against an independent model after
/// every step too: the baseline is reset (as a snapshot would) at two
/// fixed points of each case, so munmap, madvise, brk shrink, lazy
/// fault-in, the bulk passes, fork and the final `release_all` all run
/// both before and after a baseline exists.
#[test]
fn extent_and_index_invariants_hold_under_tracking_churn() {
    use gh_mem::{FrameData, LazyPageSource, RequestId};
    use std::collections::BTreeSet;
    let present = |s: &AddressSpace| -> BTreeSet<u64> { s.pagemap().map(|(v, _)| v.0).collect() };
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x00EC_7E17 ^ case);
        let n_ops = 1 + rng.next_below(119) as usize;
        let mut frames = FrameTable::new();
        let mut space = AddressSpace::new(SpaceConfig::default(), &mut frames);
        let heap_base = space.config().heap_base;
        let mut baseline: Option<BTreeSet<u64>> = None;
        for op in 0..n_ops {
            if op == 3 || op == n_ops / 2 {
                let epoch = space.reset_change_baseline();
                assert_eq!(epoch, space.change_epoch(), "case {case} op {op}");
                baseline = Some(present(&space));
            }
            match rng.next_below(16) {
                0 => {
                    let _ = space.mmap(1 + rng.next_below(31), Perms::RW, VmaKind::Anon);
                }
                1 => {
                    if let Some(vpn) = pick_page(&space, rng.next_u64() as usize) {
                        let _ =
                            space.munmap(PageRange::at(vpn, 1 + rng.next_below(7)), &mut frames);
                    }
                }
                2 => {
                    let cur = space.brk().0 as i64;
                    let new = (cur + rng.next_below(80) as i64 - 16).max(heap_base.0 as i64);
                    let _ = space.set_brk(Vpn(new as u64), &mut frames);
                }
                3 | 4 => {
                    if let Some(vpn) = pick_page(&space, rng.next_u64() as usize) {
                        let taint = match rng.next_below(3) {
                            0 => Taint::Clean,
                            n => Taint::One(RequestId(n)),
                        };
                        let _ = space.touch(vpn, Touch::WriteWord(op as u64), taint, &mut frames);
                    }
                }
                5 => {
                    if let Some(vpn) = pick_page(&space, rng.next_u64() as usize) {
                        let _ = space.touch(vpn, Touch::Read, Taint::Clean, &mut frames);
                    }
                }
                6 => {
                    if let Some(vpn) = pick_page(&space, rng.next_u64() as usize) {
                        let _ = space.madvise_dontneed(
                            PageRange::at(vpn, 1 + rng.next_below(7)),
                            &mut frames,
                        );
                    }
                }
                7 => space.clear_soft_dirty(),
                8 => {
                    if space.uffd_armed() {
                        let _ = space.disarm_uffd();
                    } else {
                        space.arm_uffd_wp();
                    }
                }
                9 => {
                    if let Some(vpn) = pick_page(&space, rng.next_u64() as usize) {
                        let set: std::collections::BTreeMap<u64, LazyPageSource> =
                            PageRange::at(vpn, 1 + rng.next_below(6))
                                .iter()
                                .filter(|v| space.vma_at(*v).is_some())
                                .map(|v| (v.0, LazyPageSource::Data(FrameData::Pattern(v.0))))
                                .collect();
                        space.arm_lazy(set);
                    }
                }
                10 => {
                    if rng.next_below(2) == 0 {
                        let _ = space.drain_lazy(rng.next_below(5), &mut frames);
                    } else {
                        // Batched touches: a sorted mixed batch over a
                        // random window (may cross VMA holes, lazy
                        // obligations and permission boundaries — the
                        // batch skips or faults exactly like the loop;
                        // invariants must hold either way).
                        if let Some(vpn) = pick_page(&space, rng.next_u64() as usize) {
                            let mut batch = gh_mem::TouchBatch::new();
                            for v in PageRange::at(vpn, 1 + rng.next_below(24)).iter() {
                                let taint = match rng.next_below(3) {
                                    0 => Taint::Clean,
                                    n => Taint::One(RequestId(n)),
                                };
                                if rng.next_below(3) == 0 {
                                    batch.push(v, Touch::Read, Taint::Clean);
                                } else {
                                    batch.push(v, Touch::WriteWord(op as u64), taint);
                                }
                                if rng.next_below(4) == 0 {
                                    // Duplicate touch of the same page.
                                    batch.push(v, Touch::Read, Taint::Clean);
                                }
                            }
                            let _ = space.touch_batch(&batch, &mut frames);
                        }
                    }
                }
                11 => {
                    // Restore-path privileged write, then occasionally a
                    // fork/teardown round (the heaviest flag transform).
                    if let Some(vpn) = pick_page(&space, rng.next_u64() as usize) {
                        let _ = space.restore_page(
                            vpn,
                            &FrameData::Pattern(rng.next_u64()),
                            Taint::Clean,
                            &mut frames,
                        );
                    }
                    if rng.next_below(4) == 0 {
                        let mut child = space.fork(&mut frames);
                        if let Some(vpn) = pick_page(&child, rng.next_u64() as usize) {
                            let _ =
                                child.touch(vpn, Touch::WriteWord(1), Taint::Clean, &mut frames);
                        }
                        child
                            .check_invariants_with_frames(&frames)
                            .unwrap_or_else(|e| panic!("case {case} op {op} (child): {e}"));
                        // A fork child has never been snapshotted.
                        check_change_indices(&child, &present(&child), None)
                            .unwrap_or_else(|e| panic!("case {case} op {op} (child): {e}"));
                        child.release_all(&mut frames);
                    }
                }
                12 => {
                    // Multi-run writeback; a run crossing an unmapped
                    // page rejects the whole set untouched.
                    let runs = random_runs(&space, &mut rng);
                    let taint = match rng.next_below(3) {
                        0 => Taint::One(RequestId(op as u64)),
                        _ => Taint::Clean,
                    };
                    let _ = space.restore_runs(
                        &runs,
                        |v, _| FrameData::Pattern(v.0 ^ op as u64),
                        taint,
                        &mut frames,
                    );
                }
                13 => {
                    let runs = random_runs(&space, &mut rng);
                    space.evict_runs(&runs, &mut frames);
                }
                14 => {
                    // Stack zeroing through the writeback walk.
                    let runs = random_runs(&space, &mut rng);
                    let _ = space.restore_runs(
                        &runs,
                        |_, _| FrameData::Zero,
                        Taint::Clean,
                        &mut frames,
                    );
                }
                _ => {
                    if let Some(vpn) = pick_page(&space, rng.next_u64() as usize) {
                        let perms = if rng.next_below(2) == 0 {
                            Perms::R
                        } else {
                            Perms::RW
                        };
                        let _ = space.mprotect(PageRange::at(vpn, 1 + rng.next_below(5)), perms);
                    }
                }
            }
            space
                .check_invariants_with_frames(&frames)
                .unwrap_or_else(|e| panic!("case {case} op {op}: {e}"));
            check_change_indices(&space, &present(&space), baseline.as_ref())
                .unwrap_or_else(|e| panic!("case {case} op {op}: {e}"));
        }
        space.release_all(&mut frames);
        assert_eq!(frames.live(), 0, "case {case}: teardown leak");
        check_change_indices(&space, &BTreeSet::new(), baseline.as_ref())
            .unwrap_or_else(|e| panic!("case {case} after release_all: {e}"));
    }
}

/// Soft-dirty tracking is exact: after a clear, the dirty set equals
/// precisely the set of pages written afterwards.
#[test]
fn soft_dirty_is_exact() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x50F7_D127 ^ case);
        let writes: std::collections::BTreeSet<u64> = (0..rng.next_below(32))
            .map(|_| rng.next_below(64))
            .collect();
        let reads: std::collections::BTreeSet<u64> = (0..rng.next_below(32))
            .map(|_| rng.next_below(64))
            .collect();
        let mut frames = FrameTable::new();
        let mut space = AddressSpace::new(SpaceConfig::default(), &mut frames);
        let r = space.mmap(64, Perms::RW, VmaKind::Anon).unwrap();
        // Page everything in first (mixed read/write history).
        for vpn in r.iter() {
            space
                .touch(vpn, Touch::WriteWord(1), Taint::Clean, &mut frames)
                .unwrap();
        }
        space.clear_soft_dirty();
        for &off in &reads {
            space
                .touch(Vpn(r.start.0 + off), Touch::Read, Taint::Clean, &mut frames)
                .unwrap();
        }
        for &off in &writes {
            space
                .touch(
                    Vpn(r.start.0 + off),
                    Touch::WriteWord(2),
                    Taint::Clean,
                    &mut frames,
                )
                .unwrap();
        }
        let dirty: Vec<u64> = space
            .soft_dirty_pages()
            .iter()
            .map(|v| v.0 - r.start.0)
            .collect();
        let expected: Vec<u64> = writes.iter().copied().collect();
        assert_eq!(dirty, expected, "case {case}");
    }
}

/// Writes in a forked child are never visible to the parent, and vice
/// versa, regardless of write order.
#[test]
fn fork_isolation() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xF02C ^ case);
        let parent_writes: Vec<(u64, u64)> = (0..rng.next_below(32))
            .map(|_| (rng.next_below(32), rng.next_u64()))
            .collect();
        let child_writes: Vec<(u64, u64)> = (0..rng.next_below(32))
            .map(|_| (rng.next_below(32), rng.next_u64()))
            .collect();

        let mut frames = FrameTable::new();
        let mut parent = AddressSpace::new(SpaceConfig::default(), &mut frames);
        let r = parent.mmap(32, Perms::RW, VmaKind::Anon).unwrap();
        for vpn in r.iter() {
            parent
                .touch(vpn, Touch::WriteWord(0xBA5E), Taint::Clean, &mut frames)
                .unwrap();
        }
        let mut child = parent.fork(&mut frames);

        for &(off, val) in &child_writes {
            child
                .touch(
                    Vpn(r.start.0 + off),
                    Touch::WriteWord(val),
                    Taint::Clean,
                    &mut frames,
                )
                .unwrap();
        }
        for &(off, val) in &parent_writes {
            parent
                .touch(
                    Vpn(r.start.0 + off),
                    Touch::WriteWord(val | 1 << 63),
                    Taint::Clean,
                    &mut frames,
                )
                .unwrap();
        }

        // Replay expected values.
        for vpn in r.iter() {
            let off = vpn.0 - r.start.0;
            let expect_child = child_writes
                .iter()
                .rev()
                .find(|(o, _)| *o == off)
                .map(|&(_, v)| v)
                .unwrap_or(0xBA5E);
            let expect_parent = parent_writes
                .iter()
                .rev()
                .find(|(o, _)| *o == off)
                .map(|&(_, v)| v | 1 << 63)
                .unwrap_or(0xBA5E);
            assert_eq!(
                child.peek_word(vpn, 1, &frames).unwrap(),
                expect_child,
                "case {case}"
            );
            assert_eq!(
                parent.peek_word(vpn, 1, &frames).unwrap(),
                expect_parent,
                "case {case}"
            );
        }
        child.release_all(&mut frames);
        parent.release_all(&mut frames);
        assert_eq!(frames.live(), 0, "case {case}");
    }
}

/// FrameData representations are interchangeable: any write sequence
/// applied to a compact page and to a materialized literal page yields
/// logically equal contents and equal content hashes — over zero and
/// pattern bases, repeated offsets, writes that put the base word back,
/// the zero-base edges of the gap-skipping hash (words 0 and 511,
/// adjacent words, patches holding 0), and every patch-count boundary
/// (inline at 1 and 2, the heap list at 3 through 16, materialized at
/// 17).
#[test]
fn frame_representation_independence() {
    fn check(case: u64, base: &FrameData, writes: &[(usize, u64)]) -> FrameData {
        let mut compact = base.clone();
        let mut literal = FrameData::Literal(compact.materialize());
        for &(w, v) in writes {
            compact.write_word(w, v);
            literal.write_word(w, v);
        }
        assert!(compact.logical_eq(&literal), "case {case}");
        assert!(literal.logical_eq(&compact), "case {case}");
        assert_eq!(
            compact.logical_hash(),
            literal.logical_hash(),
            "case {case}"
        );
        for w in 0..512 {
            assert_eq!(compact.read_word(w), literal.read_word(w), "case {case}");
        }
        // Materializing the compact page agrees byte-for-byte, and a
        // clone is equal by representation.
        let m = FrameData::Literal(compact.materialize());
        assert!(m.logical_eq(&literal), "case {case}");
        assert_eq!(compact.clone(), compact, "case {case}");
        compact
    }
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xF4A3 ^ case);
        let base = if case % 2 == 0 {
            FrameData::Zero
        } else {
            FrameData::Pattern(rng.next_u64())
        };
        // Half the cases draw offsets from a narrow window, so offsets
        // repeat; a quarter of the writes put the base word back.
        let span = if case % 4 < 2 { 4 } else { 512 };
        let writes: Vec<(usize, u64)> = (0..rng.next_below(40))
            .map(|_| {
                let w = rng.next_below(span) as usize;
                let v = if rng.next_below(4) == 0 {
                    base.read_word(w)
                } else {
                    rng.next_u64()
                };
                (w, v)
            })
            .collect();
        check(case, &base, &writes);
    }
    // Zero-base edges of the gap-skipping hash: the first and last word
    // on one page, adjacent words (no zero gap between them), and a
    // patch holding 0 (written non-zero, then zeroed), alone and beside
    // others.
    let edges: [&[(usize, u64)]; 6] = [
        &[(0, 0xA), (511, 0xB)],
        &[(0, 1), (1, 2), (2, 3)],
        &[(200, 7), (201, 8), (510, 9), (511, 10)],
        &[(9, 0x55), (9, 0)],
        &[(0, 4), (0, 0), (511, 6)],
        &[(300, 1), (301, 2), (301, 0), (511, 3), (511, 0)],
    ];
    for (case, writes) in edges.into_iter().enumerate() {
        let page = check(900 + case as u64, &FrameData::Zero, writes);
        assert!(matches!(page, FrameData::Patched(_)), "{page:?}");
    }
    // Patch-count boundaries: `k` distinct non-base words.
    for (case, k) in [1usize, 2, 3, 16, 17].into_iter().enumerate() {
        for base in [FrameData::Zero, FrameData::Pattern(0x5EED ^ k as u64)] {
            let writes: Vec<(usize, u64)> = (0..k)
                .map(|i| (511 - 7 * i, !base.read_word(511 - 7 * i)))
                .collect();
            let page = check(1000 + case as u64, &base, &writes);
            match (&page, k) {
                (FrameData::Patched(p), 1 | 2) => assert!(p.is_inline() && p.len() == k),
                (FrameData::Patched(p), 3..=16) => assert!(!p.is_inline() && p.len() == k),
                (FrameData::Literal(_), 17) => {}
                _ => panic!("{k} patches produced {page:?}"),
            }
            // Writing the base word back keeps the patch (and the page
            // logically equal to its base again).
            let mut undone = page.clone();
            for &(w, _) in &writes {
                undone.write_word(w, base.read_word(w));
            }
            assert!(undone.logical_eq(&base), "k {k}");
            assert_eq!(undone.logical_hash(), base.logical_hash(), "k {k}");
        }
    }
}
