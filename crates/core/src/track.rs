//! Memory-modification tracking backends (§4.3).
//!
//! Groundhog needs to know which pages an activation dirtied. The paper
//! ships soft-dirty bits and reports a prototyped userfaultfd alternative
//! that loses except when the write set is nearly empty; both are
//! implemented here behind [`MemoryTracker`].

use gh_mem::{PageRange, Vpn};
use gh_proc::PtraceSession;
use gh_sim::Nanos;

use crate::config::TrackerKind;
use crate::error::GhError;

/// What a tracker learned at collection time. Trackers refill a report
/// in place ([`MemoryTracker::collect_into`]), so a manager that keeps
/// one collects every restore without allocating once its buffers have
/// grown to the working set.
#[derive(Clone, Debug, Default)]
pub struct DirtyReport {
    /// Pages written since the tracker was armed, ascending.
    pub dirty: Vec<Vpn>,
    /// True when the backend's collection observes the pagemap
    /// (soft-dirty does; userfaultfd does not), so `fresh` and `dropped`
    /// below are known.
    pub pagemap: bool,
    /// Present pages the snapshot did not capture, as sorted maximal
    /// runs (the address space's change index; `O(fresh)` to collect).
    pub fresh: Vec<PageRange>,
    /// Captured pages no longer present, as sorted maximal runs.
    pub dropped: Vec<PageRange>,
    /// Epoch of the change baseline `fresh` and `dropped` refer to: the
    /// snapshot's [`baseline_epoch`](crate::snapshot::Snapshot::baseline_epoch).
    pub epoch: u64,
    /// Virtual time the collection consumed.
    pub cost: Nanos,
}

/// A tracking backend: arm after snapshot/restore, collect before restore.
pub trait MemoryTracker {
    /// Which backend this is.
    fn kind(&self) -> TrackerKind;

    /// Arms tracking for the next activation (clears soft-dirty bits /
    /// write-protects pages). Returns the virtual time consumed.
    fn arm(&mut self, s: &mut PtraceSession<'_>) -> Result<Nanos, GhError>;

    /// Collects the pages dirtied since [`MemoryTracker::arm`] into
    /// `report`, overwriting every field.
    fn collect_into(
        &mut self,
        s: &mut PtraceSession<'_>,
        report: &mut DirtyReport,
    ) -> Result<(), GhError>;

    /// [`MemoryTracker::collect_into`] into a fresh report.
    fn collect(&mut self, s: &mut PtraceSession<'_>) -> Result<DirtyReport, GhError> {
        let mut report = DirtyReport::default();
        self.collect_into(s, &mut report)?;
        Ok(report)
    }
}

/// Builds the tracker for a [`TrackerKind`].
pub fn make_tracker(kind: TrackerKind) -> Box<dyn MemoryTracker + Send> {
    match kind {
        TrackerKind::SoftDirty => Box::new(SoftDirtyTracker),
        TrackerKind::Uffd => Box::new(UffdTracker),
    }
}

/// Soft-dirty-bit tracking: `clear_refs` to arm, a dirty scan to
/// collect. The *simulated* collection cost follows the kernel's charge
/// model: a full pagemap walk scaling with the mapped address space
/// under paper parity (Fig. 3 right, dashed), or per-extent + per-dirty
/// under extent charging. Host-side the scan reads the dirty index and
/// the change indices — `O(dirty + changed)` regardless of the charge
/// model.
pub struct SoftDirtyTracker;

impl MemoryTracker for SoftDirtyTracker {
    fn kind(&self) -> TrackerKind {
        TrackerKind::SoftDirty
    }

    fn arm(&mut self, s: &mut PtraceSession<'_>) -> Result<Nanos, GhError> {
        Ok(s.clear_soft_dirty()?)
    }

    fn collect_into(
        &mut self,
        s: &mut PtraceSession<'_>,
        report: &mut DirtyReport,
    ) -> Result<(), GhError> {
        let t0 = s.kernel().clock.now();
        report.epoch = s.dirty_scan(&mut report.dirty, &mut report.fresh, &mut report.dropped)?;
        report.pagemap = true;
        report.cost = s.kernel().clock.now() - t0;
        Ok(())
    }
}

/// Userfaultfd write-protect tracking: every write notifies user space
/// (expensive, §4.3: "frequent context switches"), but collection just
/// drains the event log — no scan.
pub struct UffdTracker;

impl MemoryTracker for UffdTracker {
    fn kind(&self) -> TrackerKind {
        TrackerKind::Uffd
    }

    fn arm(&mut self, s: &mut PtraceSession<'_>) -> Result<Nanos, GhError> {
        let t0 = s.kernel().clock.now();
        s.arm_uffd()?;
        Ok(s.kernel().clock.now() - t0)
    }

    fn collect_into(
        &mut self,
        s: &mut PtraceSession<'_>,
        report: &mut DirtyReport,
    ) -> Result<(), GhError> {
        let t0 = s.kernel().clock.now();
        report.dirty = s.disarm_uffd()?;
        report.dirty.sort_unstable_by_key(|v| v.0);
        report.dirty.dedup();
        report.pagemap = false;
        report.fresh.clear();
        report.dropped.clear();
        report.epoch = 0;
        report.cost = s.kernel().clock.now() - t0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::{Perms, Taint, Touch, VmaKind};
    use gh_proc::{Kernel, Pid};

    fn machine() -> (Kernel, Pid, Vec<Vpn>) {
        let mut k = Kernel::boot();
        let pid = k.spawn("f");
        let mut vpns = Vec::new();
        k.run_charged(pid, |p, frames| {
            let r = p.mem.mmap(16, Perms::RW, VmaKind::Anon).unwrap();
            for vpn in r.iter() {
                p.mem
                    .touch(vpn, Touch::WriteWord(1), Taint::Clean, frames)
                    .unwrap();
                vpns.push(vpn);
            }
        })
        .unwrap();
        (k, pid, vpns)
    }

    fn write_pages(k: &mut Kernel, pid: Pid, pages: &[Vpn]) {
        k.run_charged(pid, |p, frames| {
            for &vpn in pages {
                p.mem
                    .touch(vpn, Touch::WriteWord(2), Taint::Clean, frames)
                    .unwrap();
            }
        })
        .unwrap();
    }

    fn roundtrip(kind: TrackerKind) -> (DirtyReport, Vec<Vpn>) {
        let (mut k, pid, vpns) = machine();
        let mut tracker = make_tracker(kind);
        {
            let mut s = PtraceSession::attach(&mut k, pid).unwrap();
            s.interrupt_all().unwrap();
            tracker.arm(&mut s).unwrap();
            s.detach().unwrap();
        }
        let written = vec![vpns[3], vpns[7], vpns[8]];
        write_pages(&mut k, pid, &written);
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        s.interrupt_all().unwrap();
        let report = tracker.collect(&mut s).unwrap();
        s.detach().unwrap();
        (report, written)
    }

    #[test]
    fn soft_dirty_collects_exactly_the_writes() {
        let (report, mut written) = roundtrip(TrackerKind::SoftDirty);
        written.sort_unstable_by_key(|v| v.0);
        assert_eq!(report.dirty, written);
        assert!(report.pagemap, "SD scan sees the pagemap");
        assert!(report.fresh.is_empty() && report.dropped.is_empty());
    }

    #[test]
    fn uffd_collects_exactly_the_writes() {
        let (report, mut written) = roundtrip(TrackerKind::Uffd);
        written.sort_unstable_by_key(|v| v.0);
        assert_eq!(report.dirty, written);
        assert!(!report.pagemap, "UFFD has no pagemap view");
    }

    #[test]
    fn backends_agree_on_dirty_sets() {
        let (sd, _) = roundtrip(TrackerKind::SoftDirty);
        let (uffd, _) = roundtrip(TrackerKind::Uffd);
        assert_eq!(sd.dirty, uffd.dirty);
    }

    #[test]
    fn sd_collection_cost_scales_with_address_space_not_writes() {
        // The defining §4.3 trade-off: SD pays a full scan even for one
        // dirty page; UFFD pays per event.
        let (mut k, pid, vpns) = machine();
        let mut sd = SoftDirtyTracker;
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        s.interrupt_all().unwrap();
        sd.arm(&mut s).unwrap();
        s.detach().unwrap();
        write_pages(&mut k, pid, &vpns[..1]);
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        s.interrupt_all().unwrap();
        let sd_report = sd.collect(&mut s).unwrap();
        s.detach().unwrap();

        let (mut k2, pid2, vpns2) = machine();
        let mut uffd = UffdTracker;
        let mut s = PtraceSession::attach(&mut k2, pid2).unwrap();
        s.interrupt_all().unwrap();
        uffd.arm(&mut s).unwrap();
        s.detach().unwrap();
        write_pages(&mut k2, pid2, &vpns2[..1]);
        let mut s = PtraceSession::attach(&mut k2, pid2).unwrap();
        s.interrupt_all().unwrap();
        let uffd_report = uffd.collect(&mut s).unwrap();
        s.detach().unwrap();

        assert!(
            uffd_report.cost < sd_report.cost,
            "with ~0 dirty pages UFFD collection must be cheaper: {} vs {}",
            uffd_report.cost,
            sd_report.cost
        );
    }

    #[test]
    fn rearming_resets_state() {
        let (mut k, pid, vpns) = machine();
        let mut tracker = make_tracker(TrackerKind::SoftDirty);
        for (round, &page) in vpns.iter().enumerate().take(3) {
            {
                let mut s = PtraceSession::attach(&mut k, pid).unwrap();
                s.interrupt_all().unwrap();
                tracker.arm(&mut s).unwrap();
                s.detach().unwrap();
            }
            write_pages(&mut k, pid, &[page]);
            let mut s = PtraceSession::attach(&mut k, pid).unwrap();
            s.interrupt_all().unwrap();
            let report = tracker.collect(&mut s).unwrap();
            s.detach().unwrap();
            assert_eq!(report.dirty, vec![page], "round {round}");
        }
    }
}
