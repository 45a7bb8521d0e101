//! Host-side scaling of the batched touch path (`touch_batch` for the
//! writes, `read_span` for the reads) vs the per-page `touch` loop.
//!
//! The rig replays the request executor's exact shape at a
//! fleet-realistic batch size — a strided, tainted 16k-page write set
//! plus a full-region read sweep over a 48k-page image, 64k touches per
//! application — in two variants:
//!
//! - **warm**: steady state between tracker epochs (every page present
//!   and soft-dirty; every touch is a warm hit);
//! - **armed**: a `clear_refs` soft-dirty arming precedes every
//!   application (the per-request Groundhog cycle: every write takes an
//!   SD-WP fault and fragments/re-merges the armed extents).
//!
//! Both sides resolve identical pre-computed vpn sets, and the batch
//! side *includes* the per-application write-batch fill (the executor
//! pays it too; reads need none, `read_span` walks the vpn slice), so
//! the ratio is end-to-end honest. Counter equality between
//! the two spaces is asserted after every measurement — the rig doubles
//! as an oracle.
//!
//! Gate design matches `scaling.rs`: the **speedup ratios** are
//! same-machine quotients (machine-independent, gated, capped at 8 so
//! the 10% gate tracks the ≥5x acceptance floor rather than jitter in
//! the typical ratio); raw ns/touch is machine-dependent and published
//! as gate-exempt `info_` metrics plus `results/scaling_touch.csv`.

use std::time::Instant;

/// Repetitions per measured variant (the minimum is reported).
const BEST_OF_ITERS: u32 = 31;

use gh_mem::{
    AddressSpace, FrameTable, RequestId, SpaceConfig, Taint, Touch, TouchBatch, VmaKind, Vpn,
};
use gh_sim::report::TextTable;

/// Writable pages of the rig image, spread over [`REGIONS`] anonymous
/// regions separated by guard pages — the CPython image shape
/// (`gh_runtime` builds ~60 anon arenas), so the per-page loop pays the
/// realistic VMA/extent probe costs, not single-VMA best-case ones.
const PAGES: u64 = 48 * 1024;
/// Distinct mapped regions.
const REGIONS: u64 = 60;
/// Every third page is written (16k writes + 48k reads = 64k touches).
const WRITE_STRIDE: u64 = 3;

/// Wall-clock of the two variants, loop vs batch.
pub struct TouchScalingReport {
    /// Touches per application (the batch size under test).
    pub touches: u64,
    /// ns per application, per-page loop, warm steady state.
    pub warm_loop_ns: f64,
    /// ns per application, batched, warm steady state.
    pub warm_batch_ns: f64,
    /// ns per application, per-page loop, re-armed each application.
    pub armed_loop_ns: f64,
    /// ns per application, batched, re-armed each application.
    pub armed_batch_ns: f64,
}

impl TouchScalingReport {
    /// Loop / batch wall-clock ratio in the warm steady state.
    pub fn warm_speedup(&self) -> f64 {
        self.warm_loop_ns / self.warm_batch_ns.max(1.0)
    }

    /// Loop / batch wall-clock ratio with per-application SD arming.
    pub fn armed_speedup(&self) -> f64 {
        self.armed_loop_ns / self.armed_batch_ns.max(1.0)
    }
}

/// One rig: a multi-region image with every page written in, the
/// executor-shaped write/read vpn sets (the cached plan the batch side
/// replays) and the flat region index the loop side resolves per touch
/// (`ImageRegions::dirtyable_page`'s algorithm — exactly what the
/// pre-batch executor recomputed for every page of every request).
struct Rig {
    space: AddressSpace,
    frames: FrameTable,
    write_vpns: Vec<Vpn>,
    read_vpns: Vec<Vpn>,
    /// `(cumulative offset, region)` index, sorted.
    index: Vec<(u64, gh_mem::PageRange)>,
    total: u64,
}

impl Rig {
    fn build() -> Rig {
        let mut frames = FrameTable::new();
        let mut space = AddressSpace::new(SpaceConfig::default(), &mut frames);
        let per = PAGES / REGIONS;
        let mut regions = Vec::new();
        for _ in 0..REGIONS {
            let r = space
                .mmap(per, gh_mem::Perms::RW, VmaKind::Anon)
                .expect("rig fits");
            // Guard page below, like real arenas — keeps VMAs distinct.
            let _ = space.mmap_fixed(
                gh_mem::PageRange::at(Vpn(r.start.0 - 1), 1),
                gh_mem::Perms::NONE,
                VmaKind::Guard,
            );
            regions.push(r);
        }
        regions.sort_by_key(|r| r.start.0);
        let mut batch = TouchBatch::with_capacity(PAGES as usize);
        for r in &regions {
            for vpn in r.iter() {
                batch.push(vpn, Touch::WriteWord(vpn.0), Taint::Clean);
            }
        }
        let _ = space.touch_batch(&batch, &mut frames);
        let mut index = Vec::with_capacity(regions.len());
        let mut cum = 0u64;
        for &r in &regions {
            index.push((cum, r));
            cum += r.len();
        }
        let all: Vec<Vpn> = regions.iter().flat_map(|r| r.iter()).collect();
        let write_vpns: Vec<Vpn> = all.iter().copied().step_by(WRITE_STRIDE as usize).collect();
        Rig {
            space,
            frames,
            write_vpns,
            read_vpns: all,
            index,
            total: cum,
        }
    }

    /// The pre-plan executor's per-touch page addressing
    /// (`ImageRegions::dirtyable_page`: one partition-point search per
    /// touch).
    #[inline]
    fn resolve(&self, i: u64) -> Vpn {
        let idx = i % self.total;
        let pos = self
            .index
            .partition_point(|&(cum, _)| cum <= idx)
            .saturating_sub(1);
        let (cum, range) = self.index[pos];
        Vpn(range.start.0 + (idx - cum))
    }

    /// One application via the per-page path exactly as the pre-batch
    /// executor ran it: resolve the page, then `touch` it — per touch.
    fn apply_loop(&mut self, seq: u64) {
        let taint = Taint::One(RequestId(1));
        for i in 0..self.write_vpns.len() as u64 {
            let vpn = self.resolve(i * WRITE_STRIDE);
            let _ = self.space.touch(
                vpn,
                Touch::WriteWord(0x1000 ^ seq ^ i),
                taint,
                &mut self.frames,
            );
        }
        for i in 0..self.read_vpns.len() as u64 {
            let vpn = self.resolve(i);
            let _ = self
                .space
                .touch(vpn, Touch::Read, Taint::Clean, &mut self.frames);
        }
    }

    /// One application the executor's way: the writes via
    /// `touch_batch`, including the batch fill, then the reads via
    /// `read_span` straight from the plan's vpns (no fill), with the
    /// same scratch as its slow batch.
    fn apply_batch(&mut self, seq: u64, scratch: &mut TouchBatch) {
        let taint = Taint::One(RequestId(1));
        scratch.clear();
        for (i, &vpn) in self.write_vpns.iter().enumerate() {
            scratch.push(vpn, Touch::WriteWord(0x1000 ^ seq ^ i as u64), taint);
        }
        let _ = self.space.touch_batch(scratch, &mut self.frames);
        let _ = self
            .space
            .read_span(&self.read_vpns, &mut self.frames, scratch);
    }
}

/// Best-of-`iters` wall-clock of `f`, nanoseconds. The iteration
/// count is sized so each variant accumulates enough measured time
/// that a single scheduler/steal blip on a small VM cannot own the
/// minimum — the warm batch section is well under a millisecond per
/// application, so best-of-5 was one bad tick away from a >10% swing
/// in the gated ratio.
fn best_of(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Measures both variants for both paths and cross-checks the fault
/// accounting (loop and batch rigs must agree exactly).
pub fn run() -> TouchScalingReport {
    let mut loop_rig = Rig::build();
    let mut batch_rig = Rig::build();
    let mut scratch = TouchBatch::new();
    let touches = (loop_rig.write_vpns.len() + loop_rig.read_vpns.len()) as u64;

    // Warm steady state: settle both rigs, then measure repeat
    // applications (every touch a warm hit; identical start state each
    // iteration).
    let mut seq = 1u64;
    loop_rig.apply_loop(seq);
    batch_rig.apply_batch(seq, &mut scratch);
    let warm_loop_ns = best_of(BEST_OF_ITERS, || {
        seq += 1;
        loop_rig.apply_loop(seq);
    });
    let mut bseq = seq;
    let warm_batch_ns = best_of(BEST_OF_ITERS, || {
        bseq += 1;
        batch_rig.apply_batch(bseq, &mut scratch);
    });
    // Both rigs have now run the same number of applications (counters
    // depend on touch shapes, not written values), so their accounting
    // must agree exactly.
    assert_eq!(
        loop_rig.space.counters(),
        batch_rig.space.counters(),
        "warm rigs diverged — the batch path broke accounting"
    );

    // Armed cycle: `clear_refs` before every application (both sides pay
    // the same O(extents) clear; the writes then take SD-WP faults and
    // split the armed extents — the per-request Groundhog shape).
    let armed_loop_ns = best_of(BEST_OF_ITERS, || {
        seq += 1;
        loop_rig.space.clear_soft_dirty();
        loop_rig.apply_loop(seq);
    });
    let mut bseq2 = bseq;
    let armed_batch_ns = best_of(BEST_OF_ITERS, || {
        bseq2 += 1;
        batch_rig.space.clear_soft_dirty();
        batch_rig.apply_batch(bseq2, &mut scratch);
    });
    assert_eq!(
        loop_rig.space.counters(),
        batch_rig.space.counters(),
        "armed rigs diverged — the batch path broke accounting"
    );

    TouchScalingReport {
        touches,
        warm_loop_ns,
        warm_batch_ns,
        armed_loop_ns,
        armed_batch_ns,
    }
}

/// Renders the report (stdout + `results/scaling_touch.csv`).
pub fn render(r: &TouchScalingReport) -> TextTable {
    let mut table = TextTable::new(&[
        "variant",
        "touches",
        "loop ns/touch",
        "batch ns/touch",
        "speedup",
    ]);
    let per = |ns: f64| ns / r.touches as f64;
    table.row_owned(vec![
        "warm".into(),
        r.touches.to_string(),
        format!("{:.2}", per(r.warm_loop_ns)),
        format!("{:.2}", per(r.warm_batch_ns)),
        format!("{:.2}x", r.warm_speedup()),
    ]);
    table.row_owned(vec![
        "armed".into(),
        r.touches.to_string(),
        format!("{:.2}", per(r.armed_loop_ns)),
        format!("{:.2}", per(r.armed_batch_ns)),
        format!("{:.2}x", r.armed_speedup()),
    ]);
    table
}
