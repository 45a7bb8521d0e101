//! Taking the clean-state snapshot (§4.2).
//!
//! The snapshot is taken once per container, after initialization and the
//! deployer-provided dummy request (§4.1), and *before* the first real
//! (secret-carrying) request — so its contents are guaranteed free of
//! request data. It stores, in the manager's memory: per-thread CPU state,
//! the memory layout, and the contents of every present page.
//!
//! # Run-based capture
//!
//! Capture is **run-based**: the page table hands over its extents as
//! contiguous frame runs ([`gh_mem::FrameRuns`]) with one refcount taken
//! per page — `O(extents)` metadata and **no content copies**. For the
//! eager mode this is structural sharing only: the process is *not*
//! write-protected against the snapshot (a write silently unshares the
//! frame, charging exactly the faults the paper's full-copy snapshot
//! would), the virtual-time charge stays the full-copy cost, and
//! [`Snapshot::memory_bytes`] still reports the full-copy footprint the
//! paper's implementation pays. §5.5's CoW mode additionally marks the
//! process copy-on-write, so first writes take charged CoW faults and
//! the reported footprint drops to the reference table. The shared mode
//! interns the runs into the pool store by reference, copying a page
//! only on a dedup miss.

use gh_mem::{FrameData, FrameRuns, FrameTable, PageRange, StoreHandle, Taint, Vma, VmaKind, Vpn};
use gh_proc::{Kernel, Pid, PtraceError, PtraceSession, Tid};
use gh_sim::clock::Stopwatch;
use gh_sim::{Nanos, ScanShape};
use std::collections::BTreeMap;

use crate::error::GhError;
use crate::track::MemoryTracker;

/// How the snapshot's page contents are captured.
#[derive(Clone, Debug, Default)]
pub enum SnapshotMode {
    /// Full private copies (the paper's implementation; captured as
    /// silently-unshared frame references, priced and accounted as full
    /// copies).
    #[default]
    Eager,
    /// §5.5's copy-on-write references into the process's frame table.
    Cow,
    /// Copies interned into a pool-shared, deduplicating
    /// [`SnapshotStore`](gh_mem::SnapshotStore) under the given function
    /// key: the first container's pages become the refcounted base image,
    /// later containers dedup page-by-page by logical content.
    Shared {
        /// The pool's store.
        store: StoreHandle,
        /// Dedup key (one base image per function).
        key: String,
    },
}

/// How page contents are held in the manager's memory.
#[derive(Clone, Debug)]
pub enum SnapshotPages {
    /// Refcounted frame runs with eager semantics (the paper's full-copy
    /// snapshot): the process is not write-protected, a function write
    /// silently unshares the frame, and accounting reports full pages.
    Eager(FrameRuns),
    /// Copy-on-write references into the frame table — §5.5's proposed
    /// optimization: manager memory stays proportional to the pages the
    /// function *modifies* over its lifetime, at the cost of one
    /// on-critical-path CoW fault per unique modified page.
    Cow(FrameRuns),
    /// References into a pool-shared [`SnapshotStore`](gh_mem::SnapshotStore):
    /// page contents deduplicated across all containers of the function,
    /// so pool memory scales with per-container deltas, not pool size.
    Shared {
        /// The owning store (shared by every container of the pool).
        store: StoreHandle,
        /// Captured runs referencing frames in the store's table.
        pages: FrameRuns,
    },
}

impl SnapshotPages {
    fn runs(&self) -> &FrameRuns {
        match self {
            SnapshotPages::Eager(r) | SnapshotPages::Cow(r) => r,
            SnapshotPages::Shared { pages, .. } => pages,
        }
    }
}

/// A clean-state process snapshot held in the manager's memory.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Virtual time the snapshot was completed.
    pub taken_at: Nanos,
    /// Per-thread register files.
    pub regs: Vec<(Tid, gh_proc::RegisterSet)>,
    /// The memory layout at snapshot time.
    pub vmas: Vec<Vma>,
    /// The program break at snapshot time.
    pub brk: Vpn,
    /// Contents of every present page, as frame runs.
    pub pages: SnapshotPages,
    /// The stack VMAs at snapshot time (precomputed; restored by
    /// zeroing, §4.4).
    pub stacks: Vec<PageRange>,
    /// Epoch of the change baseline the capture set in the process's
    /// address space: its change indices are relative to this snapshot
    /// while the epoch still matches.
    pub baseline_epoch: u64,
}

impl Snapshot {
    /// Present pages captured.
    pub fn present_pages(&self) -> u64 {
        self.pages.runs().total_pages()
    }

    /// Mapped pages at snapshot time.
    pub fn mapped_pages(&self) -> u64 {
        self.vmas.iter().map(|v| v.range.len()).sum()
    }

    /// True if `vpn` was present (and thus has saved contents).
    pub fn has_page(&self, vpn: Vpn) -> bool {
        self.pages.runs().contains(vpn)
    }

    /// The captured pages as sorted, maximal runs (computed once when
    /// the snapshot is taken).
    pub fn page_runs(&self) -> &[PageRange] {
        self.pages.runs().ranges()
    }

    /// Number of captured runs.
    pub fn run_count(&self) -> usize {
        self.pages.runs().run_count()
    }

    /// Saved page numbers, ascending. Legacy per-page interface, kept
    /// for the differential oracles; production paths consume
    /// [`Snapshot::page_runs`].
    pub fn page_vpns(&self) -> Vec<u64> {
        self.pages.runs().iter().map(|(v, _)| v.0).collect()
    }

    /// Saved contents of `vpn` (cloned; eager/CoW snapshots resolve
    /// through the process's frame table, shared snapshots through the
    /// pool store).
    pub fn page_data(&self, vpn: Vpn, frames: &FrameTable) -> Option<FrameData> {
        match &self.pages {
            SnapshotPages::Eager(r) | SnapshotPages::Cow(r) => {
                r.get(vpn).map(|id| frames.data(id).clone())
            }
            SnapshotPages::Shared { store, pages } => pages
                .get(vpn)
                .map(|id| store.lock().expect("store poisoned").data(id).clone()),
        }
    }

    /// Writes the saved contents of every page of `runs` (sorted,
    /// disjoint, possibly adjacent) back into the traced process — the
    /// writeback pass, as one page-table walk for the whole set
    /// ([`PtraceSession::write_runs`]). A forward cursor resolves each
    /// page's saved frame, its contents are cloned once and moved into
    /// the process's frame, and a shared snapshot locks the pool store
    /// once for the whole walk.
    ///
    /// # Panics
    ///
    /// Panics if any page of `runs` was not captured (the restore set
    /// is a subset of the snapshot by construction).
    pub fn write_back(
        &self,
        s: &mut PtraceSession<'_>,
        runs: &[PageRange],
    ) -> Result<(), PtraceError> {
        const MISSING: &str = "restore set ⊆ snapshot";
        match &self.pages {
            SnapshotPages::Eager(r) | SnapshotPages::Cow(r) => {
                let mut saved = r.cursor();
                s.write_runs(
                    runs,
                    |vpn, frames| frames.data(saved.get(vpn).expect(MISSING)).clone(),
                    Taint::Clean,
                )
            }
            SnapshotPages::Shared { store, pages } => {
                let st = store.lock().expect("store poisoned");
                let mut saved = pages.cursor();
                s.write_runs(
                    runs,
                    |vpn, _| st.data(saved.get(vpn).expect(MISSING)).clone(),
                    Taint::Clean,
                )
            }
        }
    }

    /// Lazy-restore sources for every snapshot page of `runs`, keyed by
    /// vpn — what the `DeferArm` pass registers with the fault handler.
    /// Eager snapshots hand out page copies by value (resolved through
    /// the frame table at arming time, preserving eager install
    /// semantics at the fault); CoW snapshots hand out their frame
    /// references (a read fault installs the frame shared); shared
    /// snapshots point at the pool store, which keeps the only resident
    /// copy until the fault fires.
    ///
    /// The returned sources borrow this snapshot's frame/store
    /// references; the manager must keep the snapshot alive while any
    /// arming is pending (it does — the snapshot lives as long as the
    /// manager).
    pub fn lazy_sources(
        &self,
        runs: &[PageRange],
        frames: &FrameTable,
    ) -> BTreeMap<u64, gh_mem::LazyPageSource> {
        use gh_mem::LazyPageSource;
        let mut out = BTreeMap::new();
        for run in runs {
            for vpn in run.iter() {
                let src = match &self.pages {
                    SnapshotPages::Eager(r) => r
                        .get(vpn)
                        .map(|id| LazyPageSource::Data(frames.data(id).clone())),
                    SnapshotPages::Cow(r) => r.get(vpn).map(LazyPageSource::Frame),
                    SnapshotPages::Shared { store, pages } => {
                        pages.get(vpn).map(|id| LazyPageSource::Store {
                            store: store.clone(),
                            frame: id,
                        })
                    }
                };
                out.insert(vpn.0, src.expect("deferred set ⊆ snapshot"));
            }
        }
        out
    }

    /// The stack VMAs at snapshot time (restored by zeroing, §4.4).
    pub fn stack_ranges(&self) -> &[PageRange] {
        &self.stacks
    }

    /// Approximate bytes of manager memory the snapshot occupies (§5.5).
    /// Eager snapshots are accounted a full page per present page (the
    /// paper implementation's footprint, which they stand in for); CoW
    /// and shared snapshots only pay the reference table — the shared
    /// snapshot's page storage lives in the pool store and is accounted
    /// there
    /// ([`SnapshotStore::resident_bytes`](gh_mem::SnapshotStore::resident_bytes)).
    pub fn memory_bytes(&self) -> u64 {
        let meta = self.vmas.len() as u64 * 64;
        match &self.pages {
            SnapshotPages::Eager(r) => r.total_pages() * gh_mem::PAGE_SIZE + meta,
            SnapshotPages::Cow(r) => r.total_pages() * 16 + meta,
            SnapshotPages::Shared { pages, .. } => pages.total_pages() * 16 + meta,
        }
    }

    /// Releases the snapshot's frame references: eager/CoW references
    /// back into the process's frame table, shared references into the
    /// pool store. Must be called before dropping the snapshot if the
    /// backing table is to be reused leak-free.
    ///
    /// Cloning a snapshot does **not** duplicate frame ownership: clones
    /// share the same references and exactly one holder may release them.
    pub fn release(&mut self, frames: &mut FrameTable) {
        match &mut self.pages {
            SnapshotPages::Eager(r) | SnapshotPages::Cow(r) => r.release(frames),
            SnapshotPages::Shared { store, pages } => {
                store.lock().expect("store poisoned").release_runs(pages);
            }
        }
    }
}

/// Timing/size record of one snapshot operation.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotReport {
    /// Total virtual time the snapshot took (the "Snapshot (ms)" column of
    /// Fig. 8).
    pub duration: Nanos,
    /// Present pages copied.
    pub present_pages: u64,
    /// Mapped pages walked.
    pub mapped_pages: u64,
    /// VMAs recorded.
    pub vmas: usize,
    /// Threads whose registers were saved.
    pub threads: usize,
}

/// Takes snapshots.
pub struct Snapshotter;

impl Snapshotter {
    /// Takes an eager (full-copy) snapshot of `pid` (§4.2 steps a–d):
    /// save CPU state of all threads, collect memory layout + page
    /// contents into the manager's memory, arm the tracker, and resume
    /// the process.
    pub fn take(
        kernel: &mut Kernel,
        pid: Pid,
        tracker: &mut dyn MemoryTracker,
    ) -> Result<(Snapshot, SnapshotReport), GhError> {
        Self::take_mode(kernel, pid, tracker, SnapshotMode::Eager)
    }

    /// Takes a snapshot in the given [`SnapshotMode`]. [`SnapshotMode::Cow`]
    /// selects §5.5's copy-on-write variant, which shares frames with the
    /// process and write-protects it so the first modification of each
    /// page takes a CoW fault on the critical path. The shared mode
    /// interns the captured runs into the pool store (same virtual-time
    /// cost as the eager mode — the store either copies a page or
    /// dedups it against resident content, both one pass over 4 KiB),
    /// so pool memory deduplicates while the timeline stays identical
    /// to eager snapshotting.
    pub fn take_mode(
        kernel: &mut Kernel,
        pid: Pid,
        tracker: &mut dyn MemoryTracker,
        mode: SnapshotMode,
    ) -> Result<(Snapshot, SnapshotReport), GhError> {
        let mut sw = Stopwatch::start(&kernel.clock);
        let mut s = PtraceSession::attach(kernel, pid)?;
        // (a) Interrupt and store the CPU state of all threads.
        s.interrupt_all()?;
        let regs = s.save_regs_all()?;
        // (b) Scan /proc: memory-mapped regions and page metadata. The
        // metadata walk is charged per the kernel's charge model (full
        // pagemap walk under paper parity, per-extent under extent
        // charging); host-side the capture below walks extents only.
        let vmas = s.read_maps()?;
        let mapped_pages: u64 = vmas.iter().map(|v| v.range.len()).sum();
        let shape = {
            let proc = s.kernel().process(pid)?;
            ScanShape {
                mapped_pages,
                vmas: vmas.len(),
                extents: proc.mem.extent_count() as u64,
                dirty_pages: 0,
            }
        };
        let scan_cost = s.kernel().cost.dirty_scan_cost(shape);
        s.kernel().charge(scan_cost);
        // (c) Capture the contents of all present pages as refcounted
        // frame runs: full-copy semantics (eager), shared CoW references
        // (cow), or store-interned runs (shared).
        let (pages, present_pages, copy_cost) = match mode {
            SnapshotMode::Cow => {
                let runs = s.capture_frame_runs()?;
                let (proc, _) = s.kernel().mem_ctx(pid)?;
                proc.mem.mark_all_cow();
                let runs = FrameRuns::new(runs);
                let present = runs.total_pages();
                let cost = s.kernel().cost.snapshot_capture_cost(present, shape, true);
                (SnapshotPages::Cow(runs), present, cost)
            }
            SnapshotMode::Eager => {
                let runs = FrameRuns::new(s.capture_frame_runs()?);
                let present = runs.total_pages();
                let cost = s.kernel().cost.snapshot_capture_cost(present, shape, false);
                (SnapshotPages::Eager(runs), present, cost)
            }
            SnapshotMode::Shared { store, key } => {
                let (proc, frames) = s.kernel().mem_ctx(pid)?;
                let runs = proc.mem.present_frame_runs();
                let refs = store
                    .lock()
                    .expect("store poisoned")
                    .intern_refs(&key, &runs, frames);
                let present = refs.total_pages();
                let cost = s.kernel().cost.snapshot_capture_cost(present, shape, false);
                (
                    SnapshotPages::Shared {
                        store: store.clone(),
                        pages: refs,
                    },
                    present,
                    cost,
                )
            }
        };
        s.kernel().charge(copy_cost);
        // The captured pages become the baseline of the address space's
        // change indices, which the restore planner reads.
        let (proc, _) = s.kernel().mem_ctx(pid)?;
        let baseline_epoch = proc.mem.reset_change_baseline();
        let brk = proc.mem.brk();
        // (d) Reset memory tracking for the first request.
        tracker.arm(&mut s)?;
        let threads = regs.len();
        let vma_count = vmas.len();
        s.detach()?;

        let duration = sw.lap();
        let stacks = vmas
            .iter()
            .filter(|v| matches!(v.kind, VmaKind::Stack))
            .map(|v| v.range)
            .collect();
        let snapshot = Snapshot {
            taken_at: kernel.clock.now(),
            regs,
            vmas,
            brk,
            pages,
            stacks,
            baseline_epoch,
        };
        let report = SnapshotReport {
            duration,
            present_pages,
            mapped_pages,
            vmas: vma_count,
            threads,
        };
        Ok((snapshot, report))
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrackerKind;
    use crate::track::make_tracker;
    use gh_mem::{Perms, Taint, Touch, VmaKind};
    use gh_proc::Kernel;

    fn machine(pages: u64) -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let pid = k.spawn("f");
        k.run_charged(pid, |p, frames| {
            let r = p.mem.mmap(pages, Perms::RW, VmaKind::Anon).unwrap();
            for vpn in r.iter() {
                p.mem
                    .touch(vpn, Touch::WriteWord(0xFEED), Taint::Clean, frames)
                    .unwrap();
            }
        })
        .unwrap();
        (k, pid)
    }

    #[test]
    fn snapshot_captures_full_state() {
        let (mut k, pid) = machine(32);
        let mut tracker = make_tracker(TrackerKind::SoftDirty);
        let (snap, report) = Snapshotter::take(&mut k, pid, tracker.as_mut()).unwrap();
        assert_eq!(report.present_pages, 32);
        assert_eq!(snap.present_pages(), 32);
        assert_eq!(report.threads, 1);
        assert!(report.vmas >= 2, "stack + anon");
        assert_eq!(snap.vmas.len(), report.vmas);
        // Contents captured.
        let (vpn, _) = k.process(pid).unwrap().mem.pagemap().next().unwrap();
        assert_eq!(
            snap.page_data(vpn, k.frames()).unwrap().read_word(1),
            0xFEED
        );
        assert!(snap.has_page(vpn));
        // Tracking armed: no page is soft-dirty anymore.
        assert!(k.process(pid).unwrap().mem.soft_dirty_pages().is_empty());
        // Process resumed.
        assert!(k.process(pid).unwrap().is_runnable());
    }

    #[test]
    fn snapshot_duration_scales_with_pages() {
        let (mut k1, p1) = machine(16);
        let (mut k2, p2) = machine(256);
        let mut t1 = make_tracker(TrackerKind::SoftDirty);
        let mut t2 = make_tracker(TrackerKind::SoftDirty);
        let (_, r1) = Snapshotter::take(&mut k1, p1, t1.as_mut()).unwrap();
        let (_, r2) = Snapshotter::take(&mut k2, p2, t2.as_mut()).unwrap();
        assert!(r2.duration > r1.duration);
        assert!(r2.present_pages > r1.present_pages);
    }

    #[test]
    fn snapshot_is_a_deep_copy() {
        let (mut k, pid) = machine(4);
        let mut tracker = make_tracker(TrackerKind::SoftDirty);
        let (snap, _) = Snapshotter::take(&mut k, pid, tracker.as_mut()).unwrap();
        let (vpn, _) = k.process(pid).unwrap().mem.pagemap().next().unwrap();
        // Mutate the live process: the snapshot must be unaffected.
        k.run_charged(pid, |p, frames| {
            p.mem
                .touch(vpn, Touch::WriteWord(0xBAD), Taint::Clean, frames)
                .unwrap();
        })
        .unwrap();
        assert_eq!(
            snap.page_data(vpn, k.frames()).unwrap().read_word(1),
            0xFEED
        );
    }

    #[test]
    fn memory_bytes_reports_full_pages() {
        let (mut k, pid) = machine(8);
        let mut tracker = make_tracker(TrackerKind::SoftDirty);
        let (snap, _) = Snapshotter::take(&mut k, pid, tracker.as_mut()).unwrap();
        assert!(snap.memory_bytes() >= 8 * gh_mem::PAGE_SIZE);
    }

    #[test]
    fn shared_snapshots_dedup_across_containers() {
        let store = gh_mem::SnapshotStore::new_handle();
        let mode = |key: &str| SnapshotMode::Shared {
            store: store.clone(),
            key: key.into(),
        };
        let (mut k1, p1) = machine(16);
        let (mut k2, p2) = machine(16);
        let mut t1 = make_tracker(TrackerKind::SoftDirty);
        let mut t2 = make_tracker(TrackerKind::SoftDirty);
        let (s1, r1) = Snapshotter::take_mode(&mut k1, p1, t1.as_mut(), mode("f")).unwrap();
        let (s2, _) = Snapshotter::take_mode(&mut k2, p2, t2.as_mut(), mode("f")).unwrap();
        assert_eq!(s1.present_pages(), s2.present_pages());
        let st = store.lock().unwrap();
        assert_eq!(
            st.live_frames() as u64,
            s1.present_pages(),
            "identical images share every frame"
        );
        assert!((st.dedup_ratio() - 2.0).abs() < 1e-12);
        drop(st);
        // Contents resolve through the store.
        let (vpn, _) = k1.process(p1).unwrap().mem.pagemap().next().unwrap();
        assert_eq!(s1.page_data(vpn, k1.frames()).unwrap().read_word(1), 0xFEED);
        assert_eq!(s2.page_data(vpn, k2.frames()).unwrap().read_word(1), 0xFEED);
        // The per-container footprint is a reference table, not pages.
        assert!(s1.memory_bytes() < 16 * gh_mem::PAGE_SIZE / 10);
        assert!(r1.duration > Nanos::ZERO);
    }

    #[test]
    fn shared_snapshot_costs_like_eager() {
        // Dedup is a space optimization only: the virtual timeline of a
        // shared snapshot is identical to an eager one, so a pool of one
        // stays bit-identical to a lone container.
        let store = gh_mem::SnapshotStore::new_handle();
        let (mut k1, p1) = machine(64);
        let (mut k2, p2) = machine(64);
        let mut t1 = make_tracker(TrackerKind::SoftDirty);
        let mut t2 = make_tracker(TrackerKind::SoftDirty);
        let (_, eager) = Snapshotter::take(&mut k1, p1, t1.as_mut()).unwrap();
        let (_, shared) = Snapshotter::take_mode(
            &mut k2,
            p2,
            t2.as_mut(),
            SnapshotMode::Shared {
                store,
                key: "f".into(),
            },
        )
        .unwrap();
        assert_eq!(eager.duration, shared.duration);
        assert_eq!(eager.present_pages, shared.present_pages);
    }

    #[test]
    fn shared_snapshot_release_returns_references() {
        let store = gh_mem::SnapshotStore::new_handle();
        let (mut k, pid) = machine(8);
        let mut tracker = make_tracker(TrackerKind::SoftDirty);
        let (mut snap, _) = Snapshotter::take_mode(
            &mut k,
            pid,
            tracker.as_mut(),
            SnapshotMode::Shared {
                store: store.clone(),
                key: "f".into(),
            },
        )
        .unwrap();
        assert_eq!(store.lock().unwrap().stats().logical_pages, 8);
        let (_, frames) = k.mem_ctx(pid).unwrap();
        snap.release(frames);
        let st = store.lock().unwrap();
        assert_eq!(st.stats().logical_pages, 0);
        assert_eq!(
            st.live_frames(),
            8,
            "base image stays for future containers"
        );
    }

    #[test]
    fn stack_ranges_found() {
        let (mut k, pid) = machine(4);
        let mut tracker = make_tracker(TrackerKind::SoftDirty);
        let (snap, _) = Snapshotter::take(&mut k, pid, tracker.as_mut()).unwrap();
        let stacks = snap.stack_ranges();
        assert_eq!(stacks.len(), 1);
        assert_eq!(
            stacks[0].len(),
            k.process(pid).unwrap().mem.config().stack_pages
        );
    }
}
