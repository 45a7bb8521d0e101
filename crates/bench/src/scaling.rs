//! Host-side scaling measurements for the extent-based bookkeeping.
//!
//! Measures real wall-clock (not virtual time) of the three
//! bookkeeping-bound operations — snapshot **capture**, dirty **scan**
//! (tracker collect) and restore **plan-build** — at 64k / 256k / 1M
//! mapped pages with a 1% write set, for both the extent-based
//! production path and a retained emulation of the per-page legacy path
//! (full pagemap walk + `BTreeMap`/`BTreeSet` construction, exactly the
//! pre-extent algorithms). A last probe times page content hashing,
//! zero-based one-patch pages against `Pattern` pages, the two kinds a
//! cold start's snapshot hashes most.
//!
//! Gate design: raw ns/page is machine-dependent, so feeding it to the
//! 10% regression gate would fail on any CI runner slower or faster
//! than the machine that wrote the baseline. The gated metric family is
//! therefore **machine-independent**: legacy/new speedup ratios
//! (same-machine quotients), O(dirty) growth checks across sizes, an
//! O(patches) check on the hash probe's quotient, and the deterministic
//! simulated cost under extent charging. The raw
//! ns/page readings are published as `info_`-prefixed metrics (written
//! to `BENCH_fleet.json` and `results/scaling.csv`, exempt from the
//! gate) for humans and trend dashboards.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use gh_mem::{FrameData, PageRange, Perms, Taint, Touch, VmaKind, Vpn};
use gh_proc::{Kernel, Pid, PtraceSession};
use gh_sim::report::TextTable;
use gh_sim::{ChargeModel, ScanShape};
use groundhog_core::plan::RestorePlanner;
use groundhog_core::snapshot::Snapshotter;
use groundhog_core::track::{make_tracker, DirtyReport, MemoryTracker};
use groundhog_core::{GroundhogConfig, LayoutDiff, TrackerKind};

/// One measured size point.
pub struct SizePoint {
    /// Mapped/present pages.
    pub pages: u64,
    /// Dirty pages (1% of mapped, scattered).
    pub dirty: u64,
    /// ns/page, new extent-based path.
    pub capture_ns_per_page: f64,
    pub scan_ns_per_page: f64,
    pub plan_ns_per_page: f64,
    /// ns/page, legacy per-page emulation.
    pub legacy_capture_ns_per_page: f64,
    pub legacy_scan_ns_per_page: f64,
    pub legacy_plan_ns_per_page: f64,
    /// Wall-clock totals (for ratio math), nanoseconds.
    pub capture_ns: f64,
    pub scan_ns: f64,
    pub plan_ns: f64,
    pub legacy_capture_ns: f64,
    pub legacy_scan_ns: f64,
    pub legacy_plan_ns: f64,
}

/// The whole family: per-size points plus simulated costs.
pub struct ScalingReport {
    pub points: Vec<SizePoint>,
    /// Scan wall-clock at 64k mapped pages with the *fixed* 655-page
    /// dirty set (the growth probe's rig — separate from the 1%-of-own-
    /// size points so the speedup ratios stay internally consistent).
    pub fixed_scan_ns_64k: f64,
    /// Scan wall-clock at 1M mapped pages, same fixed dirty set.
    pub fixed_scan_ns_1m: f64,
    /// Plan-build wall-clock at 64k mapped pages with the fixed dirty
    /// set, over an image with a hole every [`HOLE_EVERY`] pages (so the
    /// snapshot's run count grows with the image).
    pub fixed_plan_ns_64k: f64,
    /// Plan-build wall-clock at 1M mapped pages, same fixed dirty set
    /// and hole pattern.
    pub fixed_plan_ns_1m: f64,
    /// Wall-clock of hashing [`HASH_PAGES`] zero-based pages holding one
    /// word patch each.
    pub hash_patched_ns: f64,
    /// Wall-clock of hashing [`HASH_PAGES`] `Pattern` pages.
    pub hash_pattern_ns: f64,
    /// Simulated scan cost at 1M pages / 1% dirty, µs, extent charging.
    pub sim_scan_us_extent_1m: f64,
    /// Same shape under paper-parity charging, µs.
    pub sim_scan_us_paper_1m: f64,
}

impl ScalingReport {
    fn at(&self, pages: u64) -> &SizePoint {
        self.points
            .iter()
            .find(|p| p.pages == pages)
            .expect("size point measured")
    }

    /// Legacy / new wall-clock ratio for capture + scan + plan-build at
    /// 1M pages (the tentpole's ≥5x claim).
    pub fn capture_plan_speedup_1m(&self) -> f64 {
        let p = self.at(1 << 20);
        (p.legacy_capture_ns + p.legacy_scan_ns + p.legacy_plan_ns)
            / (p.capture_ns + p.scan_ns + p.plan_ns).max(1.0)
    }

    /// Legacy / new capture-only ratio at 1M pages.
    pub fn capture_speedup_1m(&self) -> f64 {
        let p = self.at(1 << 20);
        p.legacy_capture_ns / p.capture_ns.max(1.0)
    }

    /// Scan-time growth from 64k to 1M mapped pages at a fixed dirty
    /// count: ~1 for the O(dirty) index scan, ~16 for a pagemap walk.
    pub fn scan_growth_64k_to_1m(&self) -> f64 {
        self.fixed_scan_ns_1m / self.fixed_scan_ns_64k.max(1.0)
    }

    /// Plan-build growth from 64k to 1M mapped pages at a fixed dirty
    /// count over a fragmented image: ~1 when planning reads only the
    /// dirty set and the change indices, ~16 when it walks the
    /// snapshot's runs.
    pub fn plan_growth_64k_to_1m(&self) -> f64 {
        self.fixed_plan_ns_1m / self.fixed_plan_ns_64k.max(1.0)
    }

    /// Content-hash time of zero-based one-patch pages over `Pattern`
    /// pages: a few hundredths when the hash skips zero words (its cost
    /// is `O(patches)`), above 1 when it walks all 512 words of a patched
    /// page as well.
    pub fn hash_patched_over_pattern(&self) -> f64 {
        self.hash_patched_ns / self.hash_pattern_ns.max(1.0)
    }
}

/// Pages of each kind the content-hash probe hashes.
pub const HASH_PAGES: usize = 1 << 14;

/// The plan-build growth probe's image leaves every `HOLE_EVERY`-th page
/// absent, so its snapshot holds one run per `HOLE_EVERY` pages.
pub const HOLE_EVERY: u64 = 64;

/// A process with one `pages`-page anonymous region, every page written
/// once except those at offsets `≡ -1 (mod hole_every)` (none when
/// `hole_every` is 0).
fn image(pages: u64, hole_every: u64) -> (Kernel, Pid, PageRange) {
    let mut kernel = Kernel::boot();
    let pid = kernel.spawn("scaling");
    let region = kernel
        .run_charged(pid, |p, frames| {
            let r = p.mem.mmap(pages, Perms::RW, VmaKind::Anon).unwrap();
            for vpn in r.iter() {
                let off = vpn.0 - r.start.0;
                if hole_every == 0 || off % hole_every != hole_every - 1 {
                    p.mem
                        .touch(vpn, Touch::WriteWord(vpn.0), Taint::Clean, frames)
                        .unwrap();
                }
            }
            r
        })
        .unwrap()
        .0;
    (kernel, pid, region)
}

/// Rewrites `dirty` pages of `region` spread uniformly (stride
/// `pages / dirty`), stepping off the holes of a `hole_every` pattern.
fn write_scattered(kernel: &mut Kernel, pid: Pid, region: PageRange, dirty: u64, hole_every: u64) {
    let stride = (region.len() / dirty).max(1);
    kernel
        .run_charged(pid, |p, frames| {
            for i in 0..dirty {
                let mut off = i * stride;
                if hole_every != 0 && off % hole_every == hole_every - 1 {
                    off -= 1;
                }
                p.mem
                    .touch(
                        Vpn(region.start.0 + off),
                        Touch::WriteWord(!i),
                        Taint::Clean,
                        frames,
                    )
                    .unwrap();
            }
        })
        .unwrap();
}

/// Collects the tracker's report in one ptrace session.
fn collect(kernel: &mut Kernel, pid: Pid, tracker: &mut dyn MemoryTracker) -> DirtyReport {
    let mut s = PtraceSession::attach(kernel, pid).unwrap();
    s.interrupt_all().unwrap();
    let report = tracker.collect(&mut s).unwrap();
    s.detach().unwrap();
    report
}

/// A process with `pages` present pages in one big anonymous region,
/// snapshotted (tracking armed), with `dirty` scattered pages rewritten.
fn rig(pages: u64, dirty: u64) -> (Kernel, Pid, PageRange, Box<dyn MemoryTracker>) {
    let (mut kernel, pid, region) = image(pages, 0);
    let mut tracker = make_tracker(TrackerKind::SoftDirty);
    // Arm tracking without building a snapshot we would only throw away.
    {
        let mut s = PtraceSession::attach(&mut kernel, pid).unwrap();
        s.interrupt_all().unwrap();
        tracker.arm(&mut s).unwrap();
        s.detach().unwrap();
    }
    // 1% write set, scattered uniformly (stride 100 ⇒ every dirty page
    // splits the armed run: extents = O(dirty), the worst honest case).
    write_scattered(&mut kernel, pid, region, dirty, 0);
    (kernel, pid, region, tracker)
}

/// Best-of-`iters` wall-clock of `f`, in nanoseconds.
fn best_of(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// The legacy eager capture: walk the pagemap page by page and clone
/// every present page's contents into a per-page map (the pre-extent
/// `Snapshotter` algorithm, verbatim in shape).
fn legacy_capture(kernel: &Kernel, pid: Pid) -> BTreeMap<u64, FrameData> {
    let proc = kernel.process(pid).unwrap();
    let mut copies = BTreeMap::new();
    for (vpn, pte) in proc.mem.pagemap() {
        copies.insert(vpn.0, kernel.frames().data(pte.frame).clone());
    }
    copies
}

/// The legacy dirty scan: a full pagemap walk materializing one entry
/// per present page, then filtering the dirty ones.
fn legacy_scan(kernel: &Kernel, pid: Pid) -> (Vec<Vpn>, Vec<(Vpn, bool)>) {
    let proc = kernel.process(pid).unwrap();
    let entries: Vec<(Vpn, bool)> = proc
        .mem
        .pagemap()
        .map(|(vpn, pte)| (vpn, pte.soft_dirty()))
        .collect();
    let dirty: Vec<Vpn> = entries
        .iter()
        .filter(|(_, sd)| *sd)
        .map(|(v, _)| *v)
        .collect();
    (dirty, entries)
}

/// The legacy plan-build set math: per-page `BTreeSet`s for the present
/// set, the snapshot ∖ present term and run grouping (the pre-extent
/// `RestorePlanner` algorithm).
fn legacy_plan(
    snapshot_vpns: &[u64],
    dirty: &[Vpn],
    entries: &[(Vpn, bool)],
) -> (u64, Vec<PageRange>) {
    let snapshot: BTreeSet<u64> = snapshot_vpns.iter().copied().collect();
    let present: BTreeSet<u64> = entries.iter().map(|(v, _)| v.0).collect();
    let mut restore_set: BTreeSet<u64> = dirty
        .iter()
        .map(|v| v.0)
        .filter(|v| snapshot.contains(v))
        .collect();
    for &v in &snapshot {
        if !present.contains(&v) {
            restore_set.insert(v);
        }
    }
    let sorted: Vec<u64> = restore_set.into_iter().collect();
    let runs = groundhog_core::plan::group_ranges(&sorted);
    (sorted.len() as u64, runs)
}

/// Measures one size point.
fn measure(pages: u64) -> SizePoint {
    let dirty = (pages / 100).max(1);
    let (mut kernel, pid, region, mut tracker) = rig(pages, dirty);
    let cfg = GroundhogConfig::gh();

    // --- scan ---
    let scan_iters = if pages >= 1 << 20 { 3 } else { 5 };
    let mut report: Option<DirtyReport> = None;
    let scan_ns = best_of(scan_iters, || {
        let mut s = PtraceSession::attach(&mut kernel, pid).unwrap();
        s.interrupt_all().unwrap();
        report = Some(tracker.collect(&mut s).unwrap());
        s.detach().unwrap();
    });
    let report = report.unwrap();
    let legacy_scan_ns = best_of(scan_iters, || {
        std::hint::black_box(legacy_scan(&kernel, pid));
    });
    let (legacy_dirty, legacy_entries) = legacy_scan(&kernel, pid);
    assert_eq!(legacy_dirty.len() as u64, dirty, "scan agreement");
    assert_eq!(report.dirty.len() as u64, dirty, "scan agreement");

    // --- capture (snapshot take) + plan-build ---
    let mut snapshot: Option<groundhog_core::snapshot::Snapshot> = None;
    let capture_ns = best_of(scan_iters, || {
        if let Some(mut old) = snapshot.take() {
            let (_, frames) = kernel.mem_ctx(pid).unwrap();
            old.release(frames);
        }
        let mut t = make_tracker(TrackerKind::SoftDirty);
        let (snap, _) = Snapshotter::take(&mut kernel, pid, t.as_mut()).unwrap();
        snapshot = Some(snap);
    });
    let snapshot = snapshot.unwrap();
    let legacy_capture_ns = best_of(scan_iters, || {
        std::hint::black_box(legacy_capture(&kernel, pid));
    });
    // The snapshot re-armed tracking: dirty the same pages again so the
    // planner gets a report taken against this snapshot.
    write_scattered(&mut kernel, pid, region, dirty, 0);
    let report = collect(&mut kernel, pid, tracker.as_mut());
    assert_eq!(report.dirty.len() as u64, dirty, "re-dirtied set");

    let diff = {
        let proc = kernel.process(pid).unwrap();
        LayoutDiff::compute(
            &snapshot.vmas,
            snapshot.brk,
            &proc.mem.maps(),
            proc.mem.brk(),
        )
    };
    let plan_ns = best_of(scan_iters, || {
        std::hint::black_box(RestorePlanner::build(&snapshot, &report, &diff, &cfg));
    });
    let snapshot_vpns = snapshot.page_vpns();
    let legacy_plan_ns = best_of(scan_iters, || {
        std::hint::black_box(legacy_plan(&snapshot_vpns, &legacy_dirty, &legacy_entries));
    });

    let per = |ns: f64| ns / pages as f64;
    SizePoint {
        pages,
        dirty,
        capture_ns_per_page: per(capture_ns),
        scan_ns_per_page: per(scan_ns),
        plan_ns_per_page: per(plan_ns),
        legacy_capture_ns_per_page: per(legacy_capture_ns),
        legacy_scan_ns_per_page: per(legacy_scan_ns),
        legacy_plan_ns_per_page: per(legacy_plan_ns),
        capture_ns,
        scan_ns,
        plan_ns,
        legacy_capture_ns,
        legacy_scan_ns,
        legacy_plan_ns,
    }
}

/// Runs the family at 64k / 256k / 1M pages (each with a 1%-of-own-size
/// write set), plus a separate fixed-dirty growth probe: the scan is
/// re-measured at 64k and 1M with the *same* absolute dirty count so
/// the growth ratio isolates the mapped-size dependence.
pub fn run() -> ScalingReport {
    let points: Vec<SizePoint> = [1u64 << 16, 1 << 18, 1 << 20]
        .iter()
        .map(|&p| measure(p))
        .collect();
    // Fixed-dirty growth probe: measure the scan at 64k and 1M with the
    // same absolute dirty count (1% of 64k = 655 pages). Kept separate
    // from the points above — overwriting their 1%-of-own-size scan
    // times would make the speedup ratios and the published ns/page
    // columns mix two different rigs.
    let fixed_dirty = (1u64 << 16) / 100;
    let fixed_scan = |pages: u64| -> f64 {
        let (mut kernel, pid, _r, mut tracker) = rig(pages, fixed_dirty);
        best_of(5, || {
            let mut s = PtraceSession::attach(&mut kernel, pid).unwrap();
            s.interrupt_all().unwrap();
            std::hint::black_box(tracker.collect(&mut s).unwrap());
            s.detach().unwrap();
        })
    };
    let fixed_scan_ns_64k = fixed_scan(1 << 16);
    let fixed_scan_ns_1m = fixed_scan(1 << 20);
    // The same probe for plan-build, over a fragmented image whose
    // snapshot has one run per `HOLE_EVERY` pages: a planner that walks
    // the snapshot's runs grows ~16x from 64k to 1M, one that reads the
    // dirty set and the change indices does not.
    let fixed_plan = |pages: u64| -> f64 {
        let (mut kernel, pid, region) = image(pages, HOLE_EVERY);
        let mut tracker = make_tracker(TrackerKind::SoftDirty);
        let (snapshot, _) = Snapshotter::take(&mut kernel, pid, tracker.as_mut()).unwrap();
        assert_eq!(snapshot.run_count() as u64, pages / HOLE_EVERY);
        write_scattered(&mut kernel, pid, region, fixed_dirty, HOLE_EVERY);
        let report = collect(&mut kernel, pid, tracker.as_mut());
        assert_eq!(report.dirty.len() as u64, fixed_dirty, "probe dirty set");
        let proc = kernel.process(pid).unwrap();
        let diff = LayoutDiff::compute(
            &snapshot.vmas,
            snapshot.brk,
            proc.mem.vmas_iter(),
            proc.mem.brk(),
        );
        let cfg = GroundhogConfig::gh();
        best_of(5, || {
            std::hint::black_box(RestorePlanner::build(&snapshot, &report, &diff, &cfg));
        })
    };
    let fixed_plan_ns_64k = fixed_plan(1 << 16);
    let fixed_plan_ns_1m = fixed_plan(1 << 20);
    // Content hashing, the base-image cost of a cold start: zero-based
    // pages with one patch (at every word offset in turn) against
    // `Pattern` pages, the same count of each.
    let patched: Vec<FrameData> = (0..HASH_PAGES)
        .map(|i| {
            let mut page = FrameData::Zero;
            page.write_word(i % 512, i as u64 + 1);
            page
        })
        .collect();
    let pattern: Vec<FrameData> = (0..HASH_PAGES as u64).map(FrameData::Pattern).collect();
    let hash_all = |pages: &[FrameData]| {
        best_of(5, || {
            let folded = pages.iter().fold(0u64, |a, p| a ^ p.logical_hash());
            std::hint::black_box(folded);
        })
    };
    let hash_patched_ns = hash_all(&patched);
    let hash_pattern_ns = hash_all(&pattern);

    // Deterministic simulated costs at the 1M/1% shape.
    let shape = ScanShape {
        mapped_pages: 1 << 20,
        vmas: 3,
        extents: 2 * ((1u64 << 20) / 100) + 3,
        dirty_pages: (1 << 20) / 100,
    };
    let mut extent_model = gh_sim::CostModel::calibrated();
    extent_model.charge_model = ChargeModel::ExtentDirty;
    let paper_model = gh_sim::CostModel::calibrated();
    ScalingReport {
        points,
        fixed_scan_ns_64k,
        fixed_scan_ns_1m,
        fixed_plan_ns_64k,
        fixed_plan_ns_1m,
        hash_patched_ns,
        hash_pattern_ns,
        sim_scan_us_extent_1m: extent_model.dirty_scan_cost(shape).as_millis_f64() * 1e3,
        sim_scan_us_paper_1m: paper_model.dirty_scan_cost(shape).as_millis_f64() * 1e3,
    }
}

/// Renders the per-size table (stdout + `results/scaling.csv`).
pub fn render(report: &ScalingReport) -> TextTable {
    let headers = [
        "pages",
        "dirty",
        "capture ns/pg",
        "scan ns/pg",
        "plan ns/pg",
        "legacy capture",
        "legacy scan",
        "legacy plan",
    ];
    let mut table = TextTable::new(&headers);
    for p in &report.points {
        table.row_owned(vec![
            p.pages.to_string(),
            p.dirty.to_string(),
            format!("{:.2}", p.capture_ns_per_page),
            format!("{:.3}", p.scan_ns_per_page),
            format!("{:.3}", p.plan_ns_per_page),
            format!("{:.2}", p.legacy_capture_ns_per_page),
            format!("{:.3}", p.legacy_scan_ns_per_page),
            format!("{:.3}", p.legacy_plan_ns_per_page),
        ]);
    }
    table
}
