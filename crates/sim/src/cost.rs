//! The calibrated cost model.
//!
//! Every constant in [`CostModel`] is the simulated cost of one primitive
//! operation of the underlying "kernel". The defaults are calibrated against
//! the paper's own measurements:
//!
//! - restore-phase timings and per-benchmark restore totals (Fig. 8, Table 3),
//! - the micro-benchmark trends of §5.2 (Fig. 3),
//! - the SD-bits vs. userfaultfd comparison of §4.3,
//! - snapshot costs of §5.5.
//!
//! The model deliberately exposes *mechanistic* constants (per page fault,
//! per PTE scanned, per injected syscall, per thread stopped, ...) rather
//! than per-benchmark fudge factors: experiment shapes must *emerge* from
//! operation counts, exactly as they do on real hardware.

use crate::time::Nanos;

/// Number of bytes in a simulated page (fixed at the Linux default).
pub const PAGE_SIZE: usize = 4096;

/// How page-metadata primitives (pagemap scans, `clear_refs`, snapshot
/// capture) are charged.
///
/// The paper's implementation walks `/proc/pid/pagemap` and `clear_refs`
/// page by page, so their cost scales with the *mapped* address space —
/// that is [`ChargeModel::PerMappedPage`], the default, and the mode all
/// paper figures are generated under. [`ChargeModel::ExtentDirty`]
/// instead models extent-granular kernel interfaces (a
/// `PAGEMAP_SCAN`-style ioctl returning dirty runs, range-batched
/// write-protection): scans charge per extent visited plus per dirty
/// page reported, and snapshot capture charges per extent plus one
/// reference per present page. Select it with
/// `GH_CHARGE_MODEL=extent` or by setting
/// [`CostModel::charge_model`] directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChargeModel {
    /// Paper parity: pagemap walk / `clear_refs` cost ∝ mapped pages.
    #[default]
    PerMappedPage,
    /// Extent-granular interfaces: cost ∝ extents + dirty pages.
    ExtentDirty,
}

/// The page-metadata footprint of one scan/capture operation, as seen by
/// whichever [`ChargeModel`] is active.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanShape {
    /// Pages covered by VMAs (the paper-mode walk length).
    pub mapped_pages: u64,
    /// Mapped regions (per-region seek overhead in both modes).
    pub vmas: usize,
    /// Page-table extents (the extent-mode walk length).
    pub extents: u64,
    /// Dirty pages reported (extent-mode per-result cost).
    pub dirty_pages: u64,
}

/// Calibrated per-operation costs for the simulated kernel and Groundhog's
/// user-space work.
///
/// Construct with [`CostModel::default`] (the paper calibration) and adjust
/// individual fields for ablations.
///
/// # Examples
///
/// ```
/// use gh_sim::CostModel;
///
/// let m = CostModel::default();
/// // Restoring 1000 scattered pages is more expensive than one 1000-page run.
/// let scattered = m.restore_pages_cost(1000, 1000);
/// let contiguous = m.restore_pages_cost(1000, 1);
/// assert!(contiguous < scattered);
/// ```
#[derive(Clone, Debug)]
pub struct CostModel {
    // ----- In-function page-fault costs (critical path, §5.2.1) -----
    /// Minor fault that (re-)establishes a PTE on first touch of an
    /// anonymous zero page.
    pub minor_fault: Nanos,
    /// Write-protect fault that sets the soft-dirty bit on the first write
    /// to a page after a `clear_refs` epoch ("required by the SD-bit
    /// mechanism on our hardware", §5.2.1).
    pub sd_wp_fault: Nanos,
    /// Copy-on-write fault after `fork`: fault handling plus a full page
    /// copy (§5.2.3: "each page fault is significantly more expensive...
    /// entailing an additional page copy").
    pub cow_fault: Nanos,
    /// First access to any page of a freshly forked child: dTLB miss plus
    /// lazy PTE creation (§5.2.3, drives FORK's linear growth with address
    /// space size in Fig. 3 right).
    pub fork_cold_access: Nanos,
    /// Userfaultfd write-protect notification round-trip to user space
    /// (§4.3: "significantly higher overhead compared to SD-bits due to the
    /// frequent context switches").
    pub uffd_fault: Nanos,
    /// Warm access (read or write) to a present, non-faulting page from
    /// function code. Per page touched, models the loop body around it.
    pub warm_touch: Nanos,

    // ----- ptrace orchestration (off critical path, Fig. 8) -----
    /// Interrupting the function process (base cost).
    pub ptrace_interrupt_base: Nanos,
    /// Additional interrupt cost per thread beyond the first.
    pub ptrace_interrupt_per_thread: Nanos,
    /// Saving or restoring one thread's register file.
    pub ptrace_regs_per_thread: Nanos,
    /// Detaching from the process (base cost).
    pub ptrace_detach_base: Nanos,
    /// Additional detach cost per thread.
    pub ptrace_detach_per_thread: Nanos,
    /// Injecting one syscall (brk/mmap/munmap/madvise/mprotect) via ptrace.
    pub syscall_inject: Nanos,

    // ----- /proc scanning (off critical path, Fig. 8) -----
    /// Reading `/proc/pid/maps` (base cost).
    pub read_maps_base: Nanos,
    /// Reading `/proc/pid/maps`, per VMA.
    pub read_maps_per_vma: Nanos,
    /// Scanning one PTE in `/proc/pid/pagemap` (soft-dirty scan).
    pub scan_pte: Nanos,
    /// Per-VMA overhead of a pagemap walk (seek + read call per region;
    /// CPython images map ~100 regions, Node ~300).
    pub scan_per_vma: Nanos,
    /// Diffing memory layouts (base cost).
    pub diff_base: Nanos,
    /// Diffing memory layouts, per VMA considered.
    pub diff_per_vma: Nanos,
    /// Resetting soft-dirty bits via `clear_refs` (base cost).
    pub clear_sd_base: Nanos,
    /// Resetting soft-dirty bits, per mapped page.
    pub clear_sd_per_page: Nanos,

    // ----- Extent-granular charging ([`ChargeModel::ExtentDirty`]) -----
    /// Which charging mode the scan/capture primitives use.
    pub charge_model: ChargeModel,
    /// Visiting one page-table extent during a dirty scan (the per-range
    /// descriptor of a `PAGEMAP_SCAN`-style ioctl).
    pub scan_extent: Nanos,
    /// Reporting one dirty page from a dirty scan.
    pub scan_dirty_page: Nanos,
    /// Re-protecting one extent during a range-batched `clear_refs`.
    pub clear_sd_extent: Nanos,
    /// Capturing one extent run during snapshot (run registration).
    pub snapshot_per_extent: Nanos,

    // ----- Memory restoration (off critical path, Fig. 8) -----
    /// Copying one page back from the snapshot, when restored individually.
    pub restore_page_copy: Nanos,
    /// Fixed setup cost per coalesced contiguous run of pages (§5.2.2:
    /// "Groundhog is able to coalesce individual page restorations into
    /// fewer, larger memory copy operations").
    pub coalesced_run_setup: Nanos,
    /// Per-page cost inside a coalesced run.
    pub coalesced_page_copy: Nanos,
    /// Zeroing one page of the stack during restore.
    pub zero_stack_page: Nanos,
    /// `madvise` bookkeeping for one newly paged page.
    pub madvise_new_page: Nanos,
    /// Forking/joining one auxiliary copy lane when the page-writeback
    /// pass runs on multiple lanes (thread-pool handoff + completion
    /// barrier, paid once per extra lane).
    pub lane_fork_join: Nanos,

    // ----- Lazy (on-demand) restoration (§5.5's deferred variant) -----
    /// First-touch fault on a page whose restore was deferred: a
    /// userfaultfd missing/wp notification round-trip to the manager plus
    /// the page install from the snapshot image (`UFFDIO_COPY`). Charged
    /// on the *next request's* critical path, once per touched deferred
    /// page — the price lazy mode pays for taking the writeback off the
    /// inter-request critical path.
    pub lazy_fault: Nanos,
    /// Registering one coalesced run of the deferred set with the fault
    /// handler (one uffd-register / mprotect ioctl per contiguous range).
    pub defer_arm_run: Nanos,
    /// Per-page PTE update inside a registered run (write-protect /
    /// unmap-to-missing walk).
    pub defer_arm_page: Nanos,

    // ----- Snapshotting (one-time, §5.5) -----
    /// Fixed snapshot overhead (pausing, walking, bookkeeping).
    pub snapshot_base: Nanos,
    /// Copying one *present* page into the manager's memory.
    pub snapshot_per_present_page: Nanos,
    /// Walking metadata of one mapped page.
    pub snapshot_per_mapped_page: Nanos,
    /// Taking one CoW reference instead of copying a page (§5.5's
    /// memory-optimized snapshot variant).
    pub snapshot_cow_ref: Nanos,

    // ----- Process-level primitives -----
    /// The `fork` syscall itself (page-table duplication dominated).
    pub fork_base: Nanos,
    /// `fork` page-table duplication per mapped page.
    pub fork_per_page: Nanos,
    /// Tearing down a process (used by FORK isolation after each request),
    /// base cost (wait4, task teardown).
    pub process_teardown: Nanos,
    /// Per-present-page teardown cost (`exit_mmap`: page-table walk,
    /// CoW-refcount drops, memcg uncharging). This is what makes
    /// fork-per-request throughput collapse on short functions (Table 1:
    /// unpack_seq FORK sustains 136 r/s vs 802 baseline).
    pub teardown_per_page: Nanos,

    // ----- Platform / proxy costs (§4.5, §5.3.1) -----
    /// Fixed per-request cost of Groundhog's manager interposition: two
    /// pipe hops and scheduler wake-ups.
    pub gh_proxy_base: Nanos,
    /// Per-KiB cost of proxying request inputs/outputs through the manager.
    pub gh_proxy_per_kb: Nanos,
    /// Multiplier applied to proxy costs for the refactored Node.js runtime
    /// wrapper (§5.3.1: overhead "arises due to our refactoring of
    /// OpenWhisk's Node.js runtime wrapper").
    pub nodejs_refactor_mult: f64,

    // ----- Faasm-style isolation (§5.3.3) -----
    /// Remapping the contiguous WebAssembly memory region to its
    /// checkpointed state after a request.
    pub faasm_remap_base: Nanos,
    /// Per-dirtied-page CoW cost of the Faasm remap.
    pub faasm_remap_per_dirty_page: Nanos,
}

impl Default for CostModel {
    /// The paper calibration ([`CostModel::calibrated`]), optionally
    /// scaled by the `GH_COST_SCALE` environment variable (a positive
    /// float). The knob exists for the CI perf-regression gate: running
    /// the bench-smoke harness with `GH_COST_SCALE=2` injects a uniform
    /// 2x kernel-primitive slowdown end-to-end, which the gate must
    /// detect against `results/baseline.json`. Unset (the default, and
    /// always in tests) this is exactly the calibration.
    ///
    /// `GH_CHARGE_MODEL=extent` additionally switches scan/capture
    /// charging to [`ChargeModel::ExtentDirty`]; unset (or `paper`) keeps
    /// the per-mapped-page charging every paper figure is generated
    /// under.
    fn default() -> Self {
        let mut m = Self::calibrated();
        if let Ok(v) = std::env::var("GH_CHARGE_MODEL") {
            if v.eq_ignore_ascii_case("extent") {
                m.charge_model = ChargeModel::ExtentDirty;
            }
        }
        match std::env::var("GH_COST_SCALE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            Some(s) if s > 0.0 && (s - 1.0).abs() > 1e-12 => m.scaled(s),
            _ => m,
        }
    }
}

impl CostModel {
    /// The unscaled paper calibration.
    pub fn calibrated() -> Self {
        Self {
            // In-function faults.
            minor_fault: Nanos::from_nanos(800),
            sd_wp_fault: Nanos::from_nanos(450),
            cow_fault: Nanos::from_nanos(2_400),
            fork_cold_access: Nanos::from_nanos(300),
            uffd_fault: Nanos::from_nanos(6_000),
            warm_touch: Nanos::from_nanos(8),

            // ptrace.
            ptrace_interrupt_base: Nanos::from_micros(120),
            ptrace_interrupt_per_thread: Nanos::from_micros(20),
            ptrace_regs_per_thread: Nanos::from_micros(15),
            ptrace_detach_base: Nanos::from_micros(30),
            ptrace_detach_per_thread: Nanos::from_micros(8),
            syscall_inject: Nanos::from_nanos(2_200),

            // /proc scanning.
            read_maps_base: Nanos::from_micros(25),
            read_maps_per_vma: Nanos::from_nanos(1_200),
            scan_pte: Nanos::from_nanos(60),
            scan_per_vma: Nanos::from_nanos(3_000),
            diff_base: Nanos::from_micros(8),
            diff_per_vma: Nanos::from_nanos(600),
            clear_sd_base: Nanos::from_micros(30),
            clear_sd_per_page: Nanos::from_nanos(25),

            // Extent-granular charging. Calibrated so that at typical
            // extent counts (tens) the fixed work is negligible and the
            // scan cost is dominated by the dirty pages it reports.
            charge_model: ChargeModel::PerMappedPage,
            scan_extent: Nanos::from_nanos(250),
            scan_dirty_page: Nanos::from_nanos(80),
            clear_sd_extent: Nanos::from_nanos(300),
            snapshot_per_extent: Nanos::from_nanos(400),

            // Memory restoration.
            restore_page_copy: Nanos::from_nanos(2_600),
            coalesced_run_setup: Nanos::from_nanos(1_300),
            coalesced_page_copy: Nanos::from_nanos(1_400),
            zero_stack_page: Nanos::from_nanos(400),
            madvise_new_page: Nanos::from_nanos(150),
            lane_fork_join: Nanos::from_micros(2),

            // Lazy restoration. The fault is uffd-notification-priced
            // (§4.3) plus a page install; arming is ioctl-priced per run.
            // Lazy therefore always wins on critical-path restore time
            // and wins on *total* page work only when the next request
            // touches few of the deferred pages — the §5.5 trade-off.
            lazy_fault: Nanos::from_nanos(7_000),
            defer_arm_run: Nanos::from_nanos(1_500),
            defer_arm_page: Nanos::from_nanos(30),

            // Snapshotting.
            snapshot_base: Nanos::from_millis_f64(1.5),
            snapshot_per_present_page: Nanos::from_nanos(2_500),
            snapshot_per_mapped_page: Nanos::from_nanos(60),
            snapshot_cow_ref: Nanos::from_nanos(120),

            // Process primitives.
            fork_base: Nanos::from_micros(180),
            fork_per_page: Nanos::from_nanos(25),
            process_teardown: Nanos::from_micros(120),
            teardown_per_page: Nanos::from_nanos(2_000),

            // Platform / proxy.
            gh_proxy_base: Nanos::from_micros(800),
            gh_proxy_per_kb: Nanos::from_micros(12),
            nodejs_refactor_mult: 2.2,

            // Faasm.
            faasm_remap_base: Nanos::from_micros(450),
            faasm_remap_per_dirty_page: Nanos::from_nanos(180),
        }
    }

    /// Every time constant multiplied by `factor` (ratios like
    /// [`CostModel::nodejs_refactor_mult`] are left alone). Used by the
    /// CI gate's slowdown injection and by ablation experiments.
    pub fn scaled(&self, factor: f64) -> Self {
        let mut m = self.clone();
        for field in m.nanos_fields_mut() {
            *field = field.scale(factor);
        }
        m
    }

    /// Every [`Nanos`]-typed constant, mutably — the single list
    /// [`CostModel::scaled`] walks. A unit test cross-checks its length
    /// against the struct's field count so a newly added time constant
    /// cannot silently escape scaling.
    fn nanos_fields_mut(&mut self) -> Vec<&mut Nanos> {
        let m = self;
        vec![
            &mut m.minor_fault,
            &mut m.sd_wp_fault,
            &mut m.cow_fault,
            &mut m.fork_cold_access,
            &mut m.uffd_fault,
            &mut m.warm_touch,
            &mut m.ptrace_interrupt_base,
            &mut m.ptrace_interrupt_per_thread,
            &mut m.ptrace_regs_per_thread,
            &mut m.ptrace_detach_base,
            &mut m.ptrace_detach_per_thread,
            &mut m.syscall_inject,
            &mut m.read_maps_base,
            &mut m.read_maps_per_vma,
            &mut m.scan_pte,
            &mut m.scan_per_vma,
            &mut m.diff_base,
            &mut m.diff_per_vma,
            &mut m.clear_sd_base,
            &mut m.clear_sd_per_page,
            &mut m.scan_extent,
            &mut m.scan_dirty_page,
            &mut m.clear_sd_extent,
            &mut m.snapshot_per_extent,
            &mut m.restore_page_copy,
            &mut m.coalesced_run_setup,
            &mut m.coalesced_page_copy,
            &mut m.zero_stack_page,
            &mut m.madvise_new_page,
            &mut m.lane_fork_join,
            &mut m.lazy_fault,
            &mut m.defer_arm_run,
            &mut m.defer_arm_page,
            &mut m.snapshot_base,
            &mut m.snapshot_per_present_page,
            &mut m.snapshot_per_mapped_page,
            &mut m.snapshot_cow_ref,
            &mut m.fork_base,
            &mut m.fork_per_page,
            &mut m.process_teardown,
            &mut m.teardown_per_page,
            &mut m.gh_proxy_base,
            &mut m.gh_proxy_per_kb,
            &mut m.faasm_remap_base,
            &mut m.faasm_remap_per_dirty_page,
        ]
    }
    /// Cost of interrupting a process with `threads` threads.
    pub fn interrupt_cost(&self, threads: usize) -> Nanos {
        self.ptrace_interrupt_base
            + self.ptrace_interrupt_per_thread * threads.saturating_sub(1) as u64
    }

    /// Cost of saving or restoring registers of all `threads`.
    pub fn regs_cost(&self, threads: usize) -> Nanos {
        self.ptrace_regs_per_thread * threads as u64
    }

    /// Cost of detaching from a process with `threads` threads.
    pub fn detach_cost(&self, threads: usize) -> Nanos {
        self.ptrace_detach_base + self.ptrace_detach_per_thread * threads as u64
    }

    /// Cost of reading `/proc/pid/maps` with `vmas` mappings.
    pub fn read_maps_cost(&self, vmas: usize) -> Nanos {
        self.read_maps_base + self.read_maps_per_vma * vmas as u64
    }

    /// Cost of scanning soft-dirty bits over `mapped_pages` PTEs spread
    /// over `vmas` regions.
    pub fn scan_cost_vmas(&self, mapped_pages: u64, vmas: usize) -> Nanos {
        self.scan_pte * mapped_pages + self.scan_per_vma * vmas as u64
    }

    /// Cost of scanning soft-dirty bits over `mapped_pages` PTEs (single
    /// contiguous region).
    pub fn scan_cost(&self, mapped_pages: u64) -> Nanos {
        self.scan_pte * mapped_pages
    }

    /// Cost of one dirty-page collection scan, per the active
    /// [`ChargeModel`]: a full pagemap walk (∝ mapped pages) under
    /// [`ChargeModel::PerMappedPage`], or a `PAGEMAP_SCAN`-style
    /// extent walk (∝ extents + dirty pages reported) under
    /// [`ChargeModel::ExtentDirty`].
    pub fn dirty_scan_cost(&self, s: ScanShape) -> Nanos {
        match self.charge_model {
            ChargeModel::PerMappedPage => self.scan_cost_vmas(s.mapped_pages, s.vmas),
            ChargeModel::ExtentDirty => {
                self.scan_per_vma * s.vmas as u64
                    + self.scan_extent * s.extents
                    + self.scan_dirty_page * s.dirty_pages
            }
        }
    }

    /// Cost of re-arming soft-dirty tracking (`clear_refs`), per the
    /// active [`ChargeModel`].
    pub fn rearm_cost(&self, s: ScanShape) -> Nanos {
        match self.charge_model {
            ChargeModel::PerMappedPage => self.clear_sd_cost(s.mapped_pages),
            ChargeModel::ExtentDirty => self.clear_sd_base + self.clear_sd_extent * s.extents,
        }
    }

    /// Cost of capturing snapshot page contents, per the active
    /// [`ChargeModel`]. `by_reference` is true for capture paths that
    /// take refcounted references instead of copying contents (eager
    /// run capture, §5.5 CoW).
    pub fn snapshot_capture_cost(&self, present: u64, s: ScanShape, by_reference: bool) -> Nanos {
        let per_page = if by_reference {
            self.snapshot_cow_ref
        } else {
            self.snapshot_per_present_page
        };
        match self.charge_model {
            ChargeModel::PerMappedPage => {
                self.snapshot_base
                    + per_page * present
                    + self.snapshot_per_mapped_page * s.mapped_pages
            }
            ChargeModel::ExtentDirty => {
                self.snapshot_base + per_page * present + self.snapshot_per_extent * s.extents
            }
        }
    }

    /// Cost of diffing two memory layouts of `vmas` mappings.
    pub fn diff_cost(&self, vmas: usize) -> Nanos {
        self.diff_base + self.diff_per_vma * vmas as u64
    }

    /// Cost of resetting soft-dirty bits over `mapped_pages` pages.
    pub fn clear_sd_cost(&self, mapped_pages: u64) -> Nanos {
        self.clear_sd_base + self.clear_sd_per_page * mapped_pages
    }

    /// Cost of restoring `pages` dirty pages grouped into `runs` contiguous
    /// runs, with coalescing enabled.
    ///
    /// When pages are scattered (`runs == pages`) this degenerates to the
    /// per-page copy cost; dense write sets (few runs) approach the bulk
    /// copy rate, producing the slope change at ~60% dirtied observed in
    /// Fig. 3 (left).
    pub fn restore_pages_cost(&self, pages: u64, runs: u64) -> Nanos {
        if pages == 0 {
            return Nanos::ZERO;
        }
        let runs = runs.clamp(1, pages);
        if runs == pages {
            // No effective coalescing.
            self.restore_page_copy * pages
        } else {
            self.coalesced_run_setup * runs + self.coalesced_page_copy * pages
        }
    }

    /// Cost of restoring `pages` with coalescing disabled (ablation).
    pub fn restore_pages_cost_uncoalesced(&self, pages: u64) -> Nanos {
        self.restore_page_copy * pages
    }

    /// Wall-clock cost of a page-writeback pass split across parallel copy
    /// lanes, each lane given as `(pages, runs)`. Lanes copy concurrently,
    /// so the pass takes as long as its slowest lane, plus a
    /// [`lane_fork_join`](CostModel::lane_fork_join) handoff per *extra*
    /// lane. A single lane therefore costs exactly
    /// [`restore_pages_cost`](CostModel::restore_pages_cost) (or the
    /// uncoalesced variant), which keeps the one-lane restore engine
    /// bit-identical to a serial copy loop.
    pub fn restore_lanes_cost(&self, lanes: &[(u64, u64)], coalesce: bool) -> Nanos {
        let slowest = lanes
            .iter()
            .map(|&(pages, runs)| {
                if coalesce {
                    self.restore_pages_cost(pages, runs)
                } else {
                    self.restore_pages_cost_uncoalesced(pages)
                }
            })
            .max()
            .unwrap_or(Nanos::ZERO);
        slowest + self.lane_fork_join * lanes.len().saturating_sub(1) as u64
    }

    /// Cost of arming `pages` deferred pages (grouped into `runs`
    /// contiguous runs) for on-demand restoration: per-run fault-handler
    /// registration plus a per-page PTE walk. For any non-trivial set
    /// this is far below the writeback it replaces — the whole point of
    /// the lazy restore mode.
    pub fn defer_arm_cost(&self, pages: u64, runs: u64) -> Nanos {
        if pages == 0 {
            return Nanos::ZERO;
        }
        self.defer_arm_run * runs.clamp(1, pages) + self.defer_arm_page * pages
    }

    /// Cost of the `fork` syscall for a process with `mapped_pages`.
    pub fn fork_cost(&self, mapped_pages: u64) -> Nanos {
        self.fork_base + self.fork_per_page * mapped_pages
    }

    /// Per-request proxy cost of the Groundhog manager for `input_kb +
    /// output_kb` KiB of payload; `nodejs_refactored` applies the
    /// refactored-wrapper multiplier.
    pub fn gh_proxy_cost(&self, payload_kb: u64, nodejs_refactored: bool) -> Nanos {
        let raw = self.gh_proxy_base + self.gh_proxy_per_kb * payload_kb;
        if nodejs_refactored {
            raw.scale(self.nodejs_refactor_mult)
        } else {
            raw
        }
    }

    /// Faasm's post-request memory reset cost.
    pub fn faasm_reset_cost(&self, dirty_pages: u64) -> Nanos {
        self.faasm_remap_base + self.faasm_remap_per_dirty_page * dirty_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_beats_scattered_copies() {
        let m = CostModel::default();
        let scattered = m.restore_pages_cost(10_000, 10_000);
        let dense = m.restore_pages_cost(10_000, 10);
        assert!(dense < scattered);
        // And dense restore approaches the coalesced page rate.
        let floor = m.coalesced_page_copy * 10_000;
        assert!(dense >= floor);
        assert!(dense < floor + m.coalesced_run_setup * 20);
    }

    #[test]
    fn restore_zero_pages_is_free() {
        let m = CostModel::default();
        assert_eq!(m.restore_pages_cost(0, 0), Nanos::ZERO);
        assert_eq!(m.restore_lanes_cost(&[], true), Nanos::ZERO);
    }

    #[test]
    fn single_lane_matches_serial_cost() {
        let m = CostModel::default();
        assert_eq!(
            m.restore_lanes_cost(&[(1000, 4)], true),
            m.restore_pages_cost(1000, 4)
        );
        assert_eq!(
            m.restore_lanes_cost(&[(1000, 4)], false),
            m.restore_pages_cost_uncoalesced(1000)
        );
    }

    #[test]
    fn lane_parallel_writeback_beats_serial() {
        let m = CostModel::default();
        let serial = m.restore_lanes_cost(&[(1024, 4)], true);
        let split = m.restore_lanes_cost(&[(256, 1); 4], true);
        assert!(split < serial, "4 lanes {split} !< serial {serial}");
        // The fork/join overhead is charged per extra lane.
        assert_eq!(
            m.restore_lanes_cost(&[(256, 1); 4], true),
            m.restore_pages_cost(256, 1) + m.lane_fork_join * 3
        );
    }

    #[test]
    fn runs_clamped_to_pages() {
        let m = CostModel::default();
        // More runs than pages is nonsensical input; clamps to scattered.
        assert_eq!(m.restore_pages_cost(5, 10), m.restore_pages_cost(5, 5));
        // Zero runs clamps to one run.
        assert_eq!(m.restore_pages_cost(5, 0), m.restore_pages_cost(5, 1));
    }

    #[test]
    fn defer_arm_is_cheaper_than_writeback_it_replaces() {
        let m = CostModel::default();
        for (pages, runs) in [(20u64, 18u64), (1_000, 40), (10_000, 1)] {
            assert!(
                m.defer_arm_cost(pages, runs) < m.restore_pages_cost(pages, runs),
                "defer must beat writeback at {pages} pages / {runs} runs"
            );
        }
        assert_eq!(m.defer_arm_cost(0, 0), Nanos::ZERO);
    }

    #[test]
    fn lazy_fault_dearer_than_eager_page_copy() {
        // The per-page lazy trade-off: a deferred page touched by the
        // next request costs more than its eager copy would have — lazy
        // wins only when most deferred pages are never touched.
        let m = CostModel::default();
        assert!(m.lazy_fault > m.coalesced_page_copy);
        assert!(m.lazy_fault > m.restore_page_copy);
    }

    #[test]
    fn scaled_covers_every_time_constant() {
        // The flat Debug rendering has one `: ` per field; everything
        // except the non-time fields must be in the scaling list, so a
        // new Nanos constant that skips `nanos_fields_mut` fails here.
        const RATIO_FIELDS: usize = 2; // nodejs_refactor_mult, charge_model
        let mut m = CostModel::calibrated();
        let listed = m.nanos_fields_mut().len();
        let total = format!("{m:?}").matches(": ").count();
        assert_eq!(
            listed + RATIO_FIELDS,
            total,
            "a CostModel field is missing from nanos_fields_mut — \
             GH_COST_SCALE would silently skip it"
        );
    }

    #[test]
    fn scaled_model_scales_times_not_ratios() {
        let m = CostModel::calibrated();
        let s = m.scaled(2.0);
        assert_eq!(s.minor_fault, m.minor_fault * 2);
        assert_eq!(s.lazy_fault, m.lazy_fault * 2);
        assert_eq!(s.snapshot_base, m.snapshot_base * 2);
        assert_eq!(s.nodejs_refactor_mult, m.nodejs_refactor_mult);
        assert_eq!(
            s.restore_pages_cost(100, 4),
            m.restore_pages_cost(100, 4) * 2
        );
    }

    #[test]
    fn extent_charging_scales_with_dirty_not_mapped() {
        // The tentpole claim at the cost-model level: under extent
        // charging, a scan over a 1M-page space with 1% dirty costs
        // what its extents + dirty set cost — orders of magnitude below
        // the per-mapped-page walk — and is invariant in mapped size.
        let paper = CostModel::calibrated();
        let mut extent = CostModel::calibrated();
        extent.charge_model = ChargeModel::ExtentDirty;
        let big = ScanShape {
            mapped_pages: 1 << 20,
            vmas: 10,
            extents: 40,
            dirty_pages: 10_000,
        };
        let small = ScanShape {
            mapped_pages: 1 << 14,
            ..big
        };
        assert!(extent.dirty_scan_cost(big) * 50 < paper.dirty_scan_cost(big));
        assert_eq!(
            extent.dirty_scan_cost(big),
            extent.dirty_scan_cost(small),
            "extent charging must not see the mapped size"
        );
        assert!(extent.rearm_cost(big) * 50 < paper.rearm_cost(big));
        assert!(
            extent.snapshot_capture_cost(big.mapped_pages, big, true) * 5
                < paper.snapshot_capture_cost(big.mapped_pages, big, false)
        );
        // Paper mode is byte-for-byte the legacy formulas.
        assert_eq!(
            paper.dirty_scan_cost(big),
            paper.scan_cost_vmas(big.mapped_pages, big.vmas)
        );
        assert_eq!(paper.rearm_cost(big), paper.clear_sd_cost(big.mapped_pages));
    }

    #[test]
    fn thread_proportional_costs() {
        let m = CostModel::default();
        assert!(m.interrupt_cost(8) > m.interrupt_cost(1));
        assert_eq!(
            m.interrupt_cost(1),
            m.ptrace_interrupt_base,
            "single thread pays only the base"
        );
        assert_eq!(m.regs_cost(4), m.ptrace_regs_per_thread * 4);
    }

    #[test]
    fn uffd_fault_dearer_than_sd_fault() {
        // §4.3: UFFD wins only when dirtied pages are near zero, because
        // its per-fault cost is much higher than the SD-bit WP fault.
        let m = CostModel::default();
        assert!(m.uffd_fault > m.sd_wp_fault * 10);
    }

    #[test]
    fn cow_fault_dearer_than_sd_fault() {
        // §5.2.3: FORK's page faults also require page copying.
        let m = CostModel::default();
        assert!(m.cow_fault > m.sd_wp_fault * 3);
    }

    #[test]
    fn restore_of_c_hello_world_is_sub_millisecond() {
        // §6: "Groundhog can restore a C hello world function in ~0.5 ms".
        // A hello-world C process: ~1K mapped pages, 1 thread, ~20 dirty
        // pages, ~10 VMAs, no layout changes.
        let m = CostModel::default();
        let total = m.interrupt_cost(1)
            + m.read_maps_cost(10)
            + m.scan_cost(1_000)
            + m.diff_cost(10)
            + m.restore_pages_cost(20, 18)
            + m.clear_sd_cost(1_000)
            + m.regs_cost(1)
            + m.detach_cost(1);
        let ms = total.as_millis_f64();
        assert!(
            (0.3..0.9).contains(&ms),
            "C hello-world restore should be ~0.5ms, got {ms:.3}ms"
        );
    }

    #[test]
    fn node_scan_dominates_large_address_spaces() {
        // Table 3: get-time (n) restores only 0.64K pages but takes
        // ~12.6ms, dominated by scanning 156.76K mapped PTEs.
        let m = CostModel::default();
        let scan = m.scan_cost(156_760) + m.clear_sd_cost(156_760);
        let copy = m.restore_pages_cost(640, 640);
        assert!(scan > copy * 5);
    }

    #[test]
    fn gh_proxy_node_refactor_is_dearer() {
        let m = CostModel::default();
        let py = m.gh_proxy_cost(200, false);
        let node = m.gh_proxy_cost(200, true);
        assert!(node > py);
    }
}
