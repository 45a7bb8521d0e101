//! Groundhog configuration knobs.
//!
//! Defaults correspond to the paper's `GH` configuration; individual
//! fields are the ablation axes of DESIGN.md §7.

/// Which memory-tracking backend to use (§4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TrackerKind {
    /// Soft-dirty bits: cheap per-fault, restore scans the full pagemap.
    #[default]
    SoftDirty,
    /// Userfaultfd write-protection: expensive per-fault notifications,
    /// no scan at restore. "Faster ... only when the number of dirtied
    /// pages was close to zero."
    Uffd,
}

/// How the page-writeback portion of a restore reaches the process
/// (§5.5 sketches deferring it; "How Low Can You Go?" shows restore
/// floors are dominated by paging work that can overlap execution).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RestoreMode {
    /// Write every restore-set page back on the inter-request critical
    /// path (the paper's implementation).
    #[default]
    Eager,
    /// Defer the writeback: the restore plan's `DeferArm` pass
    /// write-protects/unmaps the restore set against the snapshot image
    /// and each page is faulted in from the snapshot on first touch
    /// during the next request (one [`lazy_fault`] per touched page).
    /// Isolation is preserved — a request can never observe stale
    /// contents because every access of a pending page is intercepted —
    /// but untouched pages carry their obligation forward.
    ///
    /// [`lazy_fault`]: gh_sim::CostModel::lazy_fault
    Lazy {
        /// Write back still-pending pages during idle time between
        /// requests (a background drain that consumes idle gaps and
        /// never delays an arriving request). Off, pending pages are
        /// restored purely on demand.
        drain: bool,
    },
}

impl RestoreMode {
    /// True for either lazy variant.
    pub fn is_lazy(self) -> bool {
        matches!(self, RestoreMode::Lazy { .. })
    }

    /// Short label for tables and CSVs.
    pub fn label(self) -> &'static str {
        match self {
            RestoreMode::Eager => "eager",
            RestoreMode::Lazy { drain: false } => "lazy",
            RestoreMode::Lazy { drain: true } => "lazy+drain",
        }
    }
}

/// Configuration of a Groundhog manager instance.
#[derive(Clone, Debug)]
pub struct GroundhogConfig {
    /// Tracking backend.
    pub tracker: TrackerKind,
    /// Restore dirtied pages at all. `false` is the paper's `GHNOP`
    /// configuration: tracking armed once, no rollback — an optimization
    /// for consecutive same-trust requests, *not* an isolation mode.
    pub restore_enabled: bool,
    /// Whether the restore set is written back eagerly or faulted in on
    /// demand during the next request.
    pub restore_mode: RestoreMode,
    /// Coalesce contiguous dirty pages into single copy operations
    /// (§5.2.2's slope change at ~60% dirtied).
    pub coalesce: bool,
    /// Parallel copy lanes for the page-writeback pass of the restore
    /// plan. `1` (the paper's implementation) runs the serial copy loop
    /// bit-for-bit; higher values split the coalesced runs across lanes
    /// and charge the wall-clock of the slowest lane plus a fork/join
    /// handoff per extra lane. Serialized phases (syscall injection,
    /// tracker re-arm, registers) stay serial regardless.
    pub restore_lanes: usize,
    /// Skip rollback when consecutive requests share a principal (§4.4's
    /// "mutually trusting callers" optimization). Defers the restore to
    /// the next request's arrival, when the principal is known.
    pub skip_same_principal: bool,
    /// Store the snapshot as copy-on-write frame references instead of
    /// eager page copies — §5.5's proposed optimization: "memory overhead
    /// could easily be reduced to be proportional to the number of dirtied
    /// pages at the cost of a one-time on-critical-path copy-on-write per
    /// unique modified page in the function's life-cycle".
    pub cow_snapshot: bool,
    /// Virtualize time across restores (§5.3.1's proposed fix for
    /// time-driven GC: "the process restoration resets the time to the
    /// original time of the snapshot"): the platform re-bases the
    /// runtime's in-memory clock after each rollback so collectors do not
    /// observe the rewind.
    pub virtualize_time: bool,
}

impl Default for GroundhogConfig {
    fn default() -> Self {
        GroundhogConfig {
            tracker: TrackerKind::SoftDirty,
            restore_enabled: true,
            restore_mode: RestoreMode::Eager,
            coalesce: true,
            restore_lanes: 1,
            skip_same_principal: false,
            cow_snapshot: false,
            virtualize_time: false,
        }
    }
}

impl GroundhogConfig {
    /// The paper's `GH` configuration.
    pub fn gh() -> Self {
        Self::default()
    }

    /// The paper's `GHNOP` configuration: track but never restore.
    pub fn ghnop() -> Self {
        GroundhogConfig {
            restore_enabled: false,
            ..Self::default()
        }
    }

    /// `GH` with the page-writeback pass split across `lanes` parallel
    /// copy lanes.
    pub fn with_lanes(lanes: usize) -> Self {
        GroundhogConfig {
            restore_lanes: lanes.max(1),
            ..Self::default()
        }
    }

    /// `GH` with on-demand (lazy) restoration, no background drain.
    pub fn lazy() -> Self {
        GroundhogConfig {
            restore_mode: RestoreMode::Lazy { drain: false },
            ..Self::default()
        }
    }

    /// `GH` with on-demand restoration plus the idle-time background
    /// drain.
    pub fn lazy_drain() -> Self {
        GroundhogConfig {
            restore_mode: RestoreMode::Lazy { drain: true },
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gh_defaults() {
        let c = GroundhogConfig::gh();
        assert!(c.restore_enabled);
        assert!(c.coalesce);
        assert_eq!(c.restore_lanes, 1, "the paper's serial copy loop");
        assert!(!c.skip_same_principal);
        assert_eq!(c.tracker, TrackerKind::SoftDirty);
    }

    #[test]
    fn with_lanes_clamps_to_one() {
        assert_eq!(GroundhogConfig::with_lanes(0).restore_lanes, 1);
        assert_eq!(GroundhogConfig::with_lanes(4).restore_lanes, 4);
    }

    #[test]
    fn ghnop_disables_restore_only() {
        let c = GroundhogConfig::ghnop();
        assert!(!c.restore_enabled);
        let restoring = GroundhogConfig {
            restore_enabled: true,
            ..c
        };
        assert_eq!(
            format!("{restoring:?}"),
            format!("{:?}", GroundhogConfig::gh())
        );
    }

    #[test]
    fn restore_modes() {
        assert_eq!(GroundhogConfig::gh().restore_mode, RestoreMode::Eager);
        assert!(!RestoreMode::Eager.is_lazy());
        let l = GroundhogConfig::lazy();
        assert_eq!(l.restore_mode, RestoreMode::Lazy { drain: false });
        assert!(l.restore_mode.is_lazy());
        assert!(l.restore_enabled, "lazy is still an isolation mode");
        let d = GroundhogConfig::lazy_drain();
        assert_eq!(d.restore_mode, RestoreMode::Lazy { drain: true });
        assert_eq!(RestoreMode::Eager.label(), "eager");
        assert_eq!(RestoreMode::Lazy { drain: false }.label(), "lazy");
        assert_eq!(RestoreMode::Lazy { drain: true }.label(), "lazy+drain");
    }
}
