//! Differential oracle: the batched page-table paths vs their per-page
//! loops.
//!
//! Two address spaces receive identical histories; where one applies an
//! operation page by page, the other applies the same operation in one
//! batched walk:
//!
//! - `AddressSpace::touch_batch` vs the per-page `touch` loop (the
//!   request-execution hot path, `gh_functions::Executor`);
//! - the restore passes: multi-run writeback (`restore_runs`) vs a
//!   `restore_page` loop, multi-range eviction (`evict_runs`) vs an
//!   `evict_page` loop, and stack zeroing through the writeback walk vs
//!   a `zero_page` loop.
//!
//! After every step the test pins *full* equivalence: fault counters,
//! extent structure, per-page flags and frame ids, soft-dirty and taint
//! index contents, logical page bytes, uffd logs, lazy-pending sets and
//! live-frame counts. This is the contract the simulated timelines rely
//! on to stay bit-identical.

use std::collections::BTreeMap;

use gh_sim::DetRng;

use gh_mem::{
    AccessError, AddressSpace, FrameData, FrameId, FrameTable, LazyPageSource, PageRange, Perms,
    PteFlags, RequestId, SpaceConfig, Taint, Touch, TouchBatch, VmaKind, Vpn,
};

/// A pair of spaces driven in lockstep: `a` by per-page touches, `b` by
/// batches. All non-touch operations are mirrored verbatim.
struct Pair {
    a: AddressSpace,
    fa: FrameTable,
    b: AddressSpace,
    fb: FrameTable,
    batch: TouchBatch,
}

impl Pair {
    fn new() -> Pair {
        let mut fa = FrameTable::new();
        let a = AddressSpace::new(SpaceConfig::default(), &mut fa);
        let mut fb = FrameTable::new();
        let b = AddressSpace::new(SpaceConfig::default(), &mut fb);
        Pair {
            a,
            fa,
            b,
            fb,
            batch: TouchBatch::new(),
        }
    }

    fn mmap(&mut self, len: u64) -> PageRange {
        let ra = self.a.mmap(len, Perms::RW, VmaKind::Anon).unwrap();
        let rb = self.b.mmap(len, Perms::RW, VmaKind::Anon).unwrap();
        assert_eq!(ra, rb);
        ra
    }

    fn mmap_fixed(&mut self, range: PageRange, kind: VmaKind) {
        self.a.mmap_fixed(range, Perms::RW, kind.clone()).unwrap();
        self.b.mmap_fixed(range, Perms::RW, kind).unwrap();
    }

    /// Takes one extra reference on the frame of every present page of
    /// `range` in both spaces — a snapshot capture — recording them in
    /// `held` as `(a's frame, b's frame)` by vpn.
    fn capture(&mut self, range: PageRange, held: &mut BTreeMap<u64, (FrameId, FrameId)>) {
        for v in range.iter() {
            if let (Some(pa), Some(pb)) = (self.a.pte(v), self.b.pte(v)) {
                self.fa.incref(pa.frame);
                self.fb.incref(pb.frame);
                held.insert(v.0, (pa.frame, pb.frame));
            }
        }
    }

    /// Applies the same touch sequence per-page to `a` and batched to
    /// `b`, then checks equivalence.
    fn apply(&mut self, touches: &[(Vpn, Touch, Taint)], ctx: &str) {
        self.batch.clear();
        let mut loop_failed = 0u64;
        for &(vpn, touch, taint) in touches {
            loop_failed += self.a.touch(vpn, touch, taint, &mut self.fa).is_err() as u64;
            self.batch.push(vpn, touch, taint);
        }
        let before = self.b.counters();
        let outcome = self.b.touch_batch(&self.batch, &mut self.fb);
        assert_eq!(
            self.b.counters().since(before),
            outcome.faults,
            "{ctx}: returned delta disagrees with the accumulator"
        );
        assert_eq!(
            outcome.failed, loop_failed,
            "{ctx}: failed-item count disagrees with the loop's errors"
        );
        self.assert_equiv(ctx);
    }

    fn assert_equiv(&self, ctx: &str) {
        assert_eq!(self.a.counters(), self.b.counters(), "{ctx}: counters");
        assert_eq!(
            self.a.present_pages(),
            self.b.present_pages(),
            "{ctx}: present"
        );
        assert_eq!(
            self.a.extent_count(),
            self.b.extent_count(),
            "{ctx}: extent structure"
        );
        let ea: Vec<_> = self.a.extents().collect();
        let eb: Vec<_> = self.b.extents().collect();
        assert_eq!(ea, eb, "{ctx}: extents");
        assert_eq!(
            self.a.soft_dirty_pages(),
            self.b.soft_dirty_pages(),
            "{ctx}: dirty set"
        );
        assert_eq!(
            self.a.lazy_pending_vpns(),
            self.b.lazy_pending_vpns(),
            "{ctx}: lazy pending"
        );
        assert_eq!(
            self.fa.live(),
            self.fb.live(),
            "{ctx}: live frame accounting"
        );
        for req in 0..10 {
            assert_eq!(
                self.a.tainted_pages(RequestId(req), &self.fa),
                self.b.tainted_pages(RequestId(req), &self.fb),
                "{ctx}: taint index for request {req}"
            );
        }
        for (vpn, pa) in self.a.pagemap() {
            let pb = self
                .b
                .pte(vpn)
                .unwrap_or_else(|| panic!("{ctx}: page {:#x} present in a, absent in b", vpn.0));
            assert_eq!(pa.flags, pb.flags, "{ctx}: flags of {:#x}", vpn.0);
            assert_eq!(pa.frame, pb.frame, "{ctx}: frame id of {:#x}", vpn.0);
            assert!(
                self.fa.data(pa.frame).logical_eq(self.fb.data(pb.frame)),
                "{ctx}: contents of {:#x}",
                vpn.0
            );
            assert_eq!(
                self.fa.taint(pa.frame),
                self.fb.taint(pb.frame),
                "{ctx}: taint of {:#x}",
                vpn.0
            );
        }
        self.a.check_invariants_with_frames(&self.fa).unwrap();
        self.b.check_invariants_with_frames(&self.fb).unwrap();
    }
}

/// The executor's shape: sorted strided writes then sorted strided
/// reads, over pages armed by a soft-dirty clear each epoch.
#[test]
fn strided_write_read_epochs_match() {
    let mut p = Pair::new();
    let r = p.mmap(4096);
    for epoch in 0..6u64 {
        let writes = 128 + epoch * 97;
        let stride = (r.len() / writes).max(1);
        let phase = epoch % stride;
        let mut touches = Vec::new();
        for i in 0..writes {
            let idx = i * stride + phase;
            if idx >= r.len() {
                break;
            }
            touches.push((
                Vpn(r.start.0 + idx),
                Touch::WriteWord(0x1000 ^ epoch ^ i),
                Taint::One(RequestId(epoch + 1)),
            ));
        }
        let reads = (2 * writes).min(r.len());
        let rstride = (r.len() / reads).max(1);
        for i in 0..reads {
            let idx = i * rstride;
            if idx >= r.len() {
                break;
            }
            touches.push((Vpn(r.start.0 + idx), Touch::Read, Taint::Clean));
        }
        // Writes then reads, each sub-sequence sorted — apply as two
        // batches exactly like the executor.
        let (w, rd) = touches.split_at(writes.min(r.len()) as usize);
        p.apply(w, &format!("epoch {epoch} writes"));
        p.apply(rd, &format!("epoch {epoch} reads"));
        p.a.clear_soft_dirty();
        p.b.clear_soft_dirty();
        p.assert_equiv(&format!("epoch {epoch} after clear"));
    }
}

/// Overlapping read/write including duplicate vpns within one batch,
/// mixed taints, and permission holes (skipped items).
#[test]
fn overlapping_and_denied_touches_match() {
    let mut p = Pair::new();
    let r = p.mmap(256);
    // Punch a read-only window and an unmapped hole.
    let ro = PageRange::at(Vpn(r.start.0 + 40), 8);
    p.a.mprotect(ro, Perms::R).unwrap();
    p.b.mprotect(ro, Perms::R).unwrap();
    let hole = PageRange::at(Vpn(r.start.0 + 100), 4);
    p.a.munmap(hole, &mut p.fa).unwrap();
    p.b.munmap(hole, &mut p.fb).unwrap();

    let mut rng = DetRng::new(0xBA7C);
    for round in 0..24u64 {
        let mut touches = Vec::new();
        let mut vpn = r.start.0;
        while vpn < r.end.0 {
            vpn += rng.next_below(5);
            if vpn >= r.end.0 {
                break;
            }
            let n = 1 + rng.next_below(3);
            for k in 0..n {
                let taint = match rng.next_below(3) {
                    0 => Taint::Clean,
                    t => Taint::One(RequestId(t)),
                };
                touches.push(if rng.next_below(2) == 0 {
                    (Vpn(vpn), Touch::WriteWord(round << 8 | k), taint)
                } else {
                    (Vpn(vpn), Touch::Read, Taint::Clean)
                });
            }
        }
        p.apply(&touches, &format!("round {round}"));
        if round % 5 == 0 {
            p.a.clear_soft_dirty();
            p.b.clear_soft_dirty();
        }
    }
}

/// Lazy-armed pages: pending obligations resolved mid-batch must
/// install the same contents, flags and counters, in the same order
/// relative to surrounding touches.
#[test]
fn lazy_armed_batches_match() {
    let mut p = Pair::new();
    let r = p.mmap(128);
    // Page everything in with tainted contents, arm tracking.
    let all: Vec<_> = r
        .iter()
        .map(|v| (v, Touch::WriteWord(0xD1127 ^ v.0), Taint::One(RequestId(1))))
        .collect();
    p.apply(&all, "page-in");
    p.a.clear_soft_dirty();
    p.b.clear_soft_dirty();
    // Arm a scattered lazy set in both.
    let set = |_: &AddressSpace| -> BTreeMap<u64, LazyPageSource> {
        r.iter()
            .filter(|v| v.0 % 3 == 0)
            .map(|v| (v.0, LazyPageSource::Data(FrameData::Pattern(v.0 ^ 0x5A))))
            .collect()
    };
    p.a.arm_lazy(set(&p.a));
    p.b.arm_lazy(set(&p.b));
    p.assert_equiv("after arming");
    // Mixed batch: reads and writes striding across pending and
    // non-pending pages, including duplicate touches of pending pages
    // (first one takes the lazy fault, second is warm).
    let mut touches = Vec::new();
    for v in r.iter().step_by(2) {
        touches.push((v, Touch::WriteWord(0xFF ^ v.0), Taint::One(RequestId(2))));
        if v.0 % 6 == 0 {
            touches.push((v, Touch::Read, Taint::Clean));
        }
    }
    p.apply(&touches, "lazy writes");
    let reads: Vec<_> = r.iter().map(|v| (v, Touch::Read, Taint::Clean)).collect();
    p.apply(&reads, "lazy reads");
    // Drain the stragglers identically.
    assert_eq!(
        p.a.drain_lazy(u64::MAX, &mut p.fa),
        p.b.drain_lazy(u64::MAX, &mut p.fb)
    );
    p.assert_equiv("after drain");
}

/// CoW snapshots: structurally shared frames unshare identically under
/// batched and per-page writes, with single-fault CoW+SD accounting.
#[test]
fn cow_snapshot_batches_match() {
    let mut p = Pair::new();
    let r = p.mmap(96);
    let all: Vec<_> = r
        .iter()
        .map(|v| (v, Touch::WriteWord(7), Taint::Clean))
        .collect();
    p.apply(&all, "page-in");
    // Snapshot observers hold every frame; mark CoW and arm SD — the
    // next write must take exactly one fault (CoW subsumes SD arming).
    let snap_a: Vec<_> = r.iter().map(|v| p.a.pte(v).unwrap().frame).collect();
    for &id in &snap_a {
        p.fa.incref(id);
    }
    let snap_b: Vec<_> = r.iter().map(|v| p.b.pte(v).unwrap().frame).collect();
    for &id in &snap_b {
        p.fb.incref(id);
    }
    p.a.mark_all_cow();
    p.b.mark_all_cow();
    p.a.clear_soft_dirty();
    p.b.clear_soft_dirty();
    let writes: Vec<_> = r
        .iter()
        .step_by(3)
        .map(|v| (v, Touch::WriteWord(0xC0), Taint::One(RequestId(9))))
        .collect();
    p.apply(&writes, "cow writes");
    assert!(p.b.counters().cow > 0, "CoW faults actually exercised");
    // Snapshot frames are untouched in both worlds.
    for (&ia, &ib) in snap_a.iter().zip(&snap_b) {
        assert!(p.fa.data(ia).logical_eq(p.fb.data(ib)));
        p.fa.decref(ia);
        p.fb.decref(ib);
    }
    p.assert_equiv("after cow");
}

/// Userfaultfd tracking: armed batches log the same dirty pages in the
/// same order and take the same uffd-wp fault counts.
#[test]
fn uffd_armed_batches_match() {
    let mut p = Pair::new();
    let r = p.mmap(200);
    let all: Vec<_> = r
        .iter()
        .map(|v| (v, Touch::WriteWord(1), Taint::Clean))
        .collect();
    p.apply(&all, "page-in");
    p.a.arm_uffd_wp();
    p.b.arm_uffd_wp();
    let mixed: Vec<_> = r
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if i % 4 == 0 {
                (v, Touch::WriteWord(i as u64), Taint::One(RequestId(3)))
            } else {
                (v, Touch::Read, Taint::Clean)
            }
        })
        .collect();
    p.apply(&mixed, "uffd epoch");
    assert_eq!(p.a.disarm_uffd(), p.b.disarm_uffd(), "uffd logs");
    p.assert_equiv("after disarm");
}

/// Minor-fault runs: batches over absent pages (first touch after mmap
/// or madvise) install identical fresh pages.
#[test]
fn minor_fault_runs_match() {
    let mut p = Pair::new();
    let r = p.mmap(512);
    // Touch a scattered subset first, then a full sweep: the batch
    // interleaves warm pages and absent runs.
    let scattered: Vec<_> = r
        .iter()
        .step_by(7)
        .map(|v| (v, Touch::WriteWord(v.0), Taint::One(RequestId(1))))
        .collect();
    p.apply(&scattered, "scattered");
    let sweep: Vec<_> = r.iter().map(|v| (v, Touch::Read, Taint::Clean)).collect();
    p.apply(&sweep, "sweep");
    // madvise a window away and re-touch.
    let win = PageRange::at(Vpn(r.start.0 + 64), 32);
    p.a.madvise_dontneed(win, &mut p.fa).unwrap();
    p.b.madvise_dontneed(win, &mut p.fb).unwrap();
    let again: Vec<_> = r
        .iter()
        .map(|v| (v, Touch::WriteWord(2), Taint::Clean))
        .collect();
    p.apply(&again, "post-madvise");
}

/// An unsorted batch falls back to the loop path and stays equivalent.
#[test]
fn unsorted_batch_falls_back() {
    let mut p = Pair::new();
    let r = p.mmap(64);
    let touches: Vec<_> = (0..r.len())
        .rev()
        .map(|i| {
            let v = Vpn(r.start.0 + i);
            (v, Touch::WriteWord(v.0), Taint::One(RequestId(5)))
        })
        .collect();
    p.apply(&touches, "reverse order");
    assert!(!p.batch.is_sorted());
}

/// A chunk boundary (a multiple of 512 pages) the restore rigs straddle.
const BASE: u64 = 0x4000_0000;

fn at(off: i64, len: u64) -> PageRange {
    PageRange::at(Vpn((BASE as i64 + off) as u64), len)
}

/// The restore-side rig: an anonymous VMA `[BASE-200, BASE+60)` and a
/// file VMA `[BASE+60, BASE+700)` that cannot merge with it, straddling
/// the chunk boundaries at `BASE` and `BASE+512`, driven into every
/// page state a restore pass meets:
///
/// - **CoW**: captured, then marked copy-on-write (shared + `COW`);
/// - **eager-shared**: captured without CoW marking (refcount > 1);
/// - **armed**: private and write-protected by `clear_soft_dirty`;
/// - **dirty and tainted**: written after arming (CoW and shared pages
///   among them are copied or unshared by the write);
/// - **absent**: never touched, or dropped by `madvise`.
///
/// Returns the pair and the captured references (vpn → frames).
fn restore_rig() -> (Pair, BTreeMap<u64, (FrameId, FrameId)>) {
    let mut p = Pair::new();
    p.mmap_fixed(at(-200, 260), VmaKind::Anon);
    p.mmap_fixed(at(60, 640), VmaKind::File("lib.so".into()));
    assert_eq!(p.a.vma_count(), 3, "stack + two unmerged VMAs");
    let mut held = BTreeMap::new();
    // Page in with holes, capture the low part and mark it CoW.
    let page_in: Vec<_> = at(-200, 500)
        .iter()
        .filter(|v| v.0 % 11 != 0)
        .map(|v| (v, Touch::WriteWord(v.0), Taint::Clean))
        .collect();
    p.apply(&page_in, "page-in");
    p.capture(at(-200, 300), &mut held);
    p.a.mark_all_cow();
    p.b.mark_all_cow();
    // Fresh private pages, part of them eagerly captured (no CoW).
    let more: Vec<_> = at(300, 300)
        .iter()
        .map(|v| (v, Touch::Read, Taint::Clean))
        .collect();
    p.apply(&more, "page-in above");
    p.capture(at(400, 50), &mut held);
    p.a.clear_soft_dirty();
    p.b.clear_soft_dirty();
    // A request dirties and taints every third page, then drops a
    // window.
    let writes: Vec<_> = at(-150, 700)
        .iter()
        .step_by(3)
        .map(|v| (v, Touch::WriteWord(!v.0), Taint::One(RequestId(7))))
        .collect();
    p.apply(&writes, "request writes");
    let dropped = at(20, 20);
    p.a.madvise_dontneed(dropped, &mut p.fa).unwrap();
    p.b.madvise_dontneed(dropped, &mut p.fb).unwrap();
    p.assert_equiv("rig built");
    let has = |want: &dyn Fn(PteFlags, bool) -> bool| {
        at(-200, 900)
            .iter()
            .filter_map(|v| p.a.pte(v))
            .any(|pte| want(pte.flags, p.fa.is_shared(pte.frame)))
    };
    assert!(
        has(&|f, shared| f.contains(PteFlags::COW) && shared),
        "CoW pages"
    );
    assert!(
        has(&|f, shared| !f.contains(PteFlags::COW) && shared),
        "eager-shared pages"
    );
    assert!(
        has(&|f, shared| f.contains(PteFlags::SD_WP) && !shared),
        "armed pages"
    );
    assert!(has(&|f, _| f.contains(PteFlags::SOFT_DIRTY)), "dirty pages");
    assert!(
        !p.a.tainted_pages(RequestId(7), &p.fa).is_empty(),
        "tainted pages"
    );
    assert!(p.a.pte(Vpn(BASE + 25)).is_none(), "absent pages");
    (p, held)
}

/// Drops the rig's captured references in both spaces.
fn release(p: &mut Pair, held: BTreeMap<u64, (FrameId, FrameId)>) {
    for (ia, ib) in held.into_values() {
        p.fa.decref(ia);
        p.fb.decref(ib);
    }
}

/// Snapshot contents of `vpn`: the captured frame's, else a pattern.
fn saved(
    held: &BTreeMap<u64, (FrameId, FrameId)>,
    vpn: Vpn,
    frames: &FrameTable,
    b: bool,
) -> FrameData {
    match held.get(&vpn.0) {
        Some(&(ia, ib)) => frames.data(if b { ib } else { ia }).clone(),
        None => FrameData::Pattern(vpn.0 ^ 0xD47A),
    }
}

/// The restore writeback: one `restore_runs` walk over lane-split
/// runs (adjacent pieces, two VMAs, two chunk boundaries) equals a
/// `restore_page` loop — including frame ids, so allocation and free
/// order match page for page.
#[test]
fn multi_run_writeback_matches_page_loop() {
    let (mut p, held) = restore_rig();
    let runs = [
        at(-180, 60),
        at(-120, 210), // adjacent to the previous run, like a lane split
        at(250, 280),
        at(600, 50), // never touched: every page is inserted
    ];
    for run in &runs {
        for v in run.iter() {
            let data = saved(&held, v, &p.fa, false);
            p.a.restore_page(v, &data, Taint::Clean, &mut p.fa).unwrap();
        }
    }
    let mut calls = 0u64;
    p.b.restore_runs(
        &runs,
        |v, frames| {
            calls += 1;
            saved(&held, v, frames, true)
        },
        Taint::Clean,
        &mut p.fb,
    )
    .unwrap();
    assert_eq!(
        calls,
        runs.iter().map(|r| r.len()).sum::<u64>(),
        "one call per page"
    );
    p.assert_equiv("after writeback");
    // A later request allocates from the same free list in both worlds.
    let again: Vec<_> = at(-200, 900)
        .iter()
        .step_by(5)
        .filter(|&v| v.0 < BASE + 700)
        .map(|v| (v, Touch::WriteWord(3), Taint::One(RequestId(8))))
        .collect();
    p.apply(&again, "post-restore request");
    release(&mut p, held);
    p.assert_equiv("after release");
}

/// The madvise pass: one `evict_runs` fold over ranges crossing the VMA
/// and chunk boundaries (present, absent, CoW, shared, dirty and tainted
/// pages) equals an `evict_page` loop, down to the frame free order.
#[test]
fn multi_range_eviction_matches_page_loop() {
    let (mut p, held) = restore_rig();
    let ranges = [at(-190, 90), at(10, 60), at(420, 220)];
    for r in &ranges {
        for v in r.iter() {
            p.a.evict_page(v, &mut p.fa);
        }
    }
    p.b.evict_runs(&ranges, &mut p.fb);
    p.assert_equiv("after eviction");
    // Re-faulting pops the freed frames: equal ids mean equal free order.
    let refault: Vec<_> = at(-190, 830)
        .iter()
        .map(|v| (v, Touch::WriteWord(5), Taint::Clean))
        .collect();
    p.apply(&refault, "re-fault");
    release(&mut p, held);
    p.assert_equiv("after release");
}

/// Stack zeroing through the writeback walk equals a `zero_page` loop.
#[test]
fn walk_stack_zeroing_matches_page_loop() {
    let (mut p, held) = restore_rig();
    let runs = [at(-200, 50), at(30, 100), at(500, 20), at(690, 10)];
    for r in &runs {
        for v in r.iter() {
            p.a.zero_page(v, &mut p.fa).unwrap();
        }
    }
    p.b.restore_runs(&runs, |_, _| FrameData::Zero, Taint::Clean, &mut p.fb)
        .unwrap();
    p.assert_equiv("after zeroing");
    release(&mut p, held);
    p.assert_equiv("after release");
}

/// A restore set with an unmapped page errors before any page is
/// written, even when the bad page comes after valid runs.
#[test]
fn unmapped_restore_set_errors_before_writing() {
    let (mut p, held) = restore_rig();
    let state = |s: &AddressSpace, f: &FrameTable| {
        let pages: Vec<_> = s
            .pagemap()
            .map(|(v, pte)| (v, pte.frame, pte.flags, f.data(pte.frame).clone()))
            .collect();
        (
            pages,
            s.extents().collect::<Vec<_>>(),
            f.live(),
            s.tainted_pages(RequestId(7), f),
        )
    };
    let before = state(&p.b, &p.fb);
    let runs = [at(-180, 60), at(250, 100), at(690, 20)];
    let mut calls = 0u64;
    let err = p.b.restore_runs(
        &runs,
        |v, _| {
            calls += 1;
            FrameData::Pattern(v.0)
        },
        Taint::Clean,
        &mut p.fb,
    );
    assert_eq!(err, Err(AccessError::Unmapped(Vpn(BASE + 700))));
    assert_eq!(calls, 0, "no page resolved before the coverage check");
    assert!(before == state(&p.b, &p.fb), "nothing was written");
    release(&mut p, held);
}
