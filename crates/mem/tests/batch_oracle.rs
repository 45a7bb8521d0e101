//! Differential oracle: the batched page-table walks vs the
//! single-page entry points.
//!
//! Two address spaces receive identical histories; where one applies an
//! operation page by page, the other applies the same operation in one
//! batched walk:
//!
//! - `AddressSpace::touch_batch` vs the per-page `touch` loop (the
//!   request-execution hot path, `gh_functions::Executor`);
//! - `AddressSpace::read_span` vs a per-page `touch(vpn, Read, Clean)`
//!   loop (the executor's read set);
//! - the restore passes: multi-run writeback (`restore_runs`) vs a
//!   `restore_page` loop, multi-range eviction (`evict_runs`) vs an
//!   `evict_page` loop, and stack zeroing through the writeback walk vs
//!   a `zero_page` loop.
//!
//! The single-page entry points are one-item walks of the same page
//! walk (`touch` is a one-item `touch_batch`; `restore_page`,
//! `zero_page` and `evict_page` are one-page passes), so both sides
//! share the walk and its decisions: this test pins what batching adds
//! — one cursor and one chunk window across many visits, duplicate
//! carries, edit folds of many pages, `read_span`'s quiet runs — not the
//! decisions. The independent reference for the walk and the decisions
//! is `legacy_oracle`'s retained per-page address space, which runs
//! batches and read spans item by item.
//!
//! After every step the test pins *full* equivalence: fault counters,
//! extent structure, per-page flags and frame ids, soft-dirty, taint and
//! change index contents, logical page bytes, uffd logs, lazy-pending
//! sets and live-frame counts. This is the contract the simulated timelines rely
//! on to stay bit-identical.

use std::collections::BTreeMap;

use gh_sim::DetRng;

use gh_mem::{
    AccessError, AddressSpace, BatchOutcome, FrameData, FrameId, FrameTable, LazyPageSource,
    PageRange, Perms, PteFlags, RequestId, SpaceConfig, Taint, Touch, TouchBatch, VmaKind, Vpn,
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

    /// Reads `vpns` per page in `a` (errors ignored, as the executor's
    /// loop did) and as one `read_span` in `b`, then checks equivalence.
    /// Returns `b`'s outcome.
    fn read(&mut self, vpns: &[Vpn], ctx: &str) -> BatchOutcome {
        let mut loop_failed = 0u64;
        for &vpn in vpns {
            loop_failed += self
                .a
                .touch(vpn, Touch::Read, Taint::Clean, &mut self.fa)
                .is_err() as u64;
        }
        let before = self.b.counters();
        let outcome = self.b.read_span(vpns, &mut self.fb, &mut self.batch);
        assert_eq!(
            self.b.counters().since(before),
            outcome.faults,
            "{ctx}: returned delta disagrees with the accumulator"
        );
        assert_eq!(
            outcome.failed, loop_failed,
            "{ctx}: failed count disagrees with the loop's errors"
        );
        self.assert_equiv(ctx);
        outcome
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
        let changes = |s: &AddressSpace| {
            let (mut fresh, mut dropped) = (Vec::new(), Vec::new());
            s.fresh_runs_into(&mut fresh);
            s.dropped_runs_into(&mut dropped);
            (s.change_epoch(), fresh, dropped)
        };
        assert_eq!(changes(&self.a), changes(&self.b), "{ctx}: change indices");
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

/// Every `step`-th page of `range`.
fn every(range: PageRange, step: usize) -> Vec<Vpn> {
    range.iter().step_by(step).collect()
}

/// The read-span rig: an anonymous VMA `[BASE+300, BASE+800)` across
/// the chunk boundary at `BASE+512`, half of it written in, then a
/// snapshot point (change baseline + soft-dirty arming).
fn read_rig() -> Pair {
    let mut p = Pair::new();
    p.mmap_fixed(at(300, 500), VmaKind::Anon);
    let page_in: Vec<_> = every(at(300, 500), 2)
        .into_iter()
        .map(|v| (v, Touch::WriteWord(v.0), Taint::One(RequestId(1))))
        .collect();
    p.apply(&page_in, "page-in");
    p.a.reset_change_baseline();
    p.b.reset_change_baseline();
    p.a.clear_soft_dirty();
    p.b.clear_soft_dirty();
    p
}

/// Warm pages cost a span step each: all counted warm, none slow.
#[test]
fn read_span_warm_pages_match() {
    let mut p = read_rig();
    let vpns = every(at(300, 500), 2);
    let out = p.read(&vpns, "warm span");
    assert_eq!(out.faults.warm, vpns.len() as u64);
    assert_eq!(out.faults.total_faults(), 0);
    assert!(p.batch.is_empty(), "no warm page goes to the slow batch");
}

/// Absent pages — every other page, and a dense run across the chunk
/// boundary at `BASE+512` — take minor faults in slice order (equal
/// frame ids) and enter the change index, warm ones in between.
#[test]
fn read_span_absent_pages_match() {
    let mut p = read_rig();
    let out = p.read(&at(300, 500).iter().collect::<Vec<_>>(), "half absent");
    assert_eq!((out.faults.minor, out.faults.warm), (250, 250));
    let mut p = read_rig();
    let mut vpns = every(at(301, 200), 2); // absent pages below the boundary
    vpns.extend(at(501, 30).iter()); // dense, across BASE+512
    vpns.extend(every(at(600, 200), 3));
    p.read(&vpns, "absent across the chunk boundary");
    assert!(p.b.pte(Vpn(BASE + 512)).is_some() && p.b.pte(Vpn(BASE + 513)).is_some());
}

/// A fork child's pages are TLB-cold: its first reads take `tlb_cold`
/// faults, not warm counts; the second span is warm.
#[test]
fn read_span_tlb_cold_fork_child_matches() {
    let mut p = read_rig();
    let child_a = p.a.fork(&mut p.fa);
    let child_b = p.b.fork(&mut p.fb);
    let mut parent_a = std::mem::replace(&mut p.a, child_a);
    let mut parent_b = std::mem::replace(&mut p.b, child_b);
    let vpns = every(at(300, 500), 3);
    let out = p.read(&vpns, "tlb-cold child");
    assert!(out.faults.tlb_cold > 0 && out.faults.minor > 0);
    let out = p.read(&vpns, "child again");
    assert_eq!(out.faults.warm, vpns.len() as u64, "second span is warm");
    parent_a.release_all(&mut p.fa);
    parent_b.release_all(&mut p.fb);
    p.assert_equiv("after parent teardown");
}

/// Unmapped pages and guard pages (no read permission) fail — counted
/// in `failed` — without disturbing the pages around them.
#[test]
fn read_span_unmapped_and_guard_pages_match() {
    let mut p = read_rig();
    let hole = at(400, 6);
    p.a.munmap(hole, &mut p.fa).unwrap();
    p.b.munmap(hole, &mut p.fb).unwrap();
    let guard = at(450, 2);
    p.a.munmap(guard, &mut p.fa).unwrap();
    p.b.munmap(guard, &mut p.fb).unwrap();
    p.a.mmap_fixed(guard, Perms::NONE, VmaKind::Guard).unwrap();
    p.b.mmap_fixed(guard, Perms::NONE, VmaKind::Guard).unwrap();
    // Below the VMA, the hole, the guard, warm and absent pages, and
    // past the VMA's end.
    let mut vpns = vec![Vpn(BASE + 290), Vpn(BASE + 299)];
    vpns.extend(at(395, 64).iter());
    vpns.extend([Vpn(BASE + 799), Vpn(BASE + 800), Vpn(BASE + 5000)]);
    let out = p.read(&vpns, "holes and guards");
    assert_eq!(out.failed, 2 + 6 + 2 + 2);
}

/// Lazy-armed pages interleaved with warm ones take their lazy faults
/// in slice order; the warm ones between them stay warm.
#[test]
fn read_span_lazy_interleaved_matches() {
    let mut p = read_rig();
    let arm = || -> BTreeMap<u64, LazyPageSource> {
        every(at(300, 500), 2)
            .into_iter()
            .filter(|v| v.0 % 3 == 0)
            .map(|v| (v.0, LazyPageSource::Data(FrameData::Pattern(v.0 ^ 0x1A2))))
            .collect()
    };
    p.a.arm_lazy(arm());
    p.b.arm_lazy(arm());
    let vpns = every(at(300, 300), 2);
    let out = p.read(&vpns, "lazy interleaved");
    assert!(out.faults.lazy > 0 && out.faults.warm > out.faults.lazy);
    // Pending pages no span read stay pending, equally in both worlds.
    p.read(
        &every(at(301, 498), 2),
        "absent pages beside the pending ones",
    );
    assert!(p.b.lazy_pending_len() > 0);
}

/// One long extent under several VMAs — a no-read window, a read-only
/// window — with pending pages inside it: a quiet run of warm pages
/// stops at the end of its VMA and at the next pending page.
#[test]
fn read_span_quiet_runs_stop_at_vma_and_lazy_bounds() {
    let mut p = Pair::new();
    p.mmap_fixed(at(300, 500), VmaKind::Anon);
    let page_in: Vec<_> = at(300, 500)
        .iter()
        .map(|v| (v, Touch::WriteWord(v.0), Taint::Clean))
        .collect();
    p.apply(&page_in, "dense page-in");
    for (range, perms) in [(at(500, 8), Perms::NONE), (at(600, 8), Perms::R)] {
        p.a.mprotect(range, perms).unwrap();
        p.b.mprotect(range, perms).unwrap();
    }
    p.a.clear_soft_dirty();
    p.b.clear_soft_dirty();
    assert_eq!(p.b.extent_count(), 1, "one extent under four VMAs");
    let arm = || -> BTreeMap<u64, LazyPageSource> {
        every(at(700, 30), 7)
            .into_iter()
            .map(|v| (v.0, LazyPageSource::Data(FrameData::Pattern(v.0 ^ 0x3C))))
            .collect()
    };
    p.a.arm_lazy(arm());
    p.b.arm_lazy(arm());
    let vpns: Vec<_> = at(300, 500).iter().collect();
    let out = p.read(&vpns, "dense span");
    assert_eq!(out.failed, 8, "the no-read window fails");
    assert_eq!(out.faults.lazy, 5, "every pending page faults");
    assert_eq!(out.faults.warm, 500 - 8 - 5);
}

/// Duplicates of warm, absent, TLB-cold and unmapped pages: the first
/// copy of a slow page faults, its later copies see the result.
#[test]
fn read_span_duplicate_vpns_match() {
    let mut p = read_rig();
    p.a.munmap(at(700, 4), &mut p.fa).unwrap();
    p.b.munmap(at(700, 4), &mut p.fb).unwrap();
    let mut vpns = Vec::new();
    for v in at(296, 420).iter().step_by(5) {
        for _ in 0..1 + v.0 % 3 {
            vpns.push(v);
        }
    }
    p.read(&vpns, "duplicates");
    let child_a = p.a.fork(&mut p.fa);
    let child_b = p.b.fork(&mut p.fb);
    let mut parent_a = std::mem::replace(&mut p.a, child_a);
    let mut parent_b = std::mem::replace(&mut p.b, child_b);
    p.read(&vpns, "duplicates of tlb-cold pages");
    parent_a.release_all(&mut p.fa);
    parent_b.release_all(&mut p.fb);
}

/// An unsorted slice takes the per-item path whole, even when its
/// sorted prefix is long, and stays equivalent.
#[test]
fn read_span_unsorted_slice_matches() {
    let mut p = read_rig();
    let mut vpns: Vec<_> = at(300, 200).iter().collect();
    vpns.extend((0..200).rev().map(|i| Vpn(BASE + 500 + i)));
    vpns.push(Vpn(BASE + 310));
    let out = p.read(&vpns, "unsorted");
    assert!(!p.batch.is_sorted() && p.batch.len() == vpns.len());
    assert!(out.faults.minor > 0 && out.faults.warm > 0);
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
    // The snapshot point: later presence changes land in the change
    // indices.
    p.a.reset_change_baseline();
    p.b.reset_change_baseline();
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

/// Single-page runs from sorted page offsets (relative to `BASE`).
fn single_pages(mut offs: Vec<i64>) -> Vec<PageRange> {
    offs.sort_unstable();
    offs.dedup();
    offs.into_iter().map(|o| at(o, 1)).collect()
}

/// Many single-page runs — inside one chunk, across the chunk boundary
/// at `BASE+512`, and across three VMAs — in one `restore_runs` walk
/// equal a `restore_page` loop, frame ids included.
#[test]
fn single_page_runs_match_page_loop() {
    let one_chunk = single_pages((0..70).map(|k| 3 + 7 * k).collect());
    let two_chunks = single_pages((480..=560).step_by(2).chain([509, 511, 513]).collect());
    let three_vmas = single_pages((-190..790).step_by(13).chain([699, 700, 701]).collect());
    for (name, runs) in [
        ("one chunk", one_chunk),
        ("two chunks", two_chunks),
        ("three VMAs", three_vmas),
    ] {
        let (mut p, held) = restore_rig();
        p.mmap_fixed(at(700, 100), VmaKind::Anon);
        for r in &runs {
            let data = saved(&held, r.start, &p.fa, false);
            p.a.restore_page(r.start, &data, Taint::Clean, &mut p.fa)
                .unwrap();
        }
        p.b.restore_runs(
            &runs,
            |v, f| saved(&held, v, f, true),
            Taint::Clean,
            &mut p.fb,
        )
        .unwrap();
        p.assert_equiv(name);
        // Tainted single-page runs set the taint index page by page.
        let taint = Taint::One(RequestId(4));
        for r in &runs {
            p.a.restore_page(r.start, &FrameData::Zero, taint, &mut p.fa)
                .unwrap();
        }
        p.b.restore_runs(&runs, |_, _| FrameData::Zero, taint, &mut p.fb)
            .unwrap();
        p.assert_equiv(&format!("{name}, tainted"));
        release(&mut p, held);
        p.assert_equiv(&format!("{name}, released"));
    }
}

/// A run in an unmapped gap, or running past the last of three VMAs,
/// after valid single-page runs in the other VMAs: the coverage cursor
/// errors before any page is written.
#[test]
fn unmapped_single_page_run_after_three_vmas_errors() {
    for (runs, bad) in [
        (single_pages(vec![-100, 100, 705]), 705),
        (single_pages(vec![-100, 100, 720, 800]), 800),
        (vec![at(-100, 1), at(650, 1), at(790, 20)], 800),
    ] {
        let (mut p, held) = restore_rig();
        p.mmap_fixed(at(710, 90), VmaKind::Anon);
        let live = p.fb.live();
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
        assert_eq!(err, Err(AccessError::Unmapped(Vpn(BASE + bad))));
        assert_eq!(calls, 0, "no page resolved before the coverage check");
        assert_eq!(p.fb.live(), live, "nothing was written");
        p.assert_equiv("after the rejected set");
        release(&mut p, held);
    }
}

/// The madvise pass over many one-page ranges inside one chunk, then
/// over one-page ranges across the chunk boundary: one `evict_runs`
/// fold equals an `evict_page` loop, down to the frame free order.
#[test]
fn single_page_eviction_matches_page_loop() {
    let one_chunk = single_pages((0..90).map(|k| 2 + 5 * k).collect());
    let two_chunks = single_pages((490..=540).chain([-3, -1, 0, 699]).collect());
    for (name, ranges) in [("one chunk", one_chunk), ("two chunks", two_chunks)] {
        let (mut p, held) = restore_rig();
        for r in &ranges {
            p.a.evict_page(r.start, &mut p.fa);
        }
        p.b.evict_runs(&ranges, &mut p.fb);
        p.assert_equiv(name);
        // Re-faulting pops the freed frames: equal ids mean equal free
        // order.
        let refault: Vec<_> = ranges
            .iter()
            .map(|r| (r.start, Touch::WriteWord(6), Taint::Clean))
            .collect();
        p.apply(&refault, &format!("{name}, re-fault"));
        release(&mut p, held);
        p.assert_equiv(&format!("{name}, released"));
    }
}
