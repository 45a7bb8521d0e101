//! The ptrace facility: the narrow interface Groundhog's manager drives.
//!
//! A [`PtraceSession`] corresponds to `PTRACE_ATTACH` .. `PTRACE_DETACH`
//! on a function process. It exposes exactly the operations §4.2–§4.4
//! describe, and charges each one's calibrated cost to the kernel clock so
//! that the restore breakdown of Fig. 8 can be measured phase by phase:
//!
//! - interrupting all threads,
//! - reading `/proc/pid/maps` and scanning `/proc/pid/pagemap`,
//! - saving/restoring per-thread register files,
//! - bulk page reads (snapshot) and writes (restore),
//! - syscall injection (`brk`, `mmap`, `munmap`, `madvise`, `mprotect`),
//! - clearing soft-dirty bits, and detaching.

use gh_mem::{AccessError, FrameData, FrameTable, PageRange, Taint, Vma, Vpn};
use gh_sim::Nanos;

use crate::kernel::{Kernel, ProcError};
use crate::process::{Pid, ProcessState, Tid};
use crate::registers::RegisterSet;
use crate::syscall::Syscall;

/// Errors from ptrace operations.
#[derive(Debug, PartialEq, Eq)]
pub enum PtraceError {
    /// Process missing or dead.
    Proc(ProcError),
    /// Another tracer is attached.
    AlreadyTraced,
    /// The operation requires the tracee to be stopped.
    NotStopped,
    /// An injected syscall failed in the tracee.
    Syscall(AccessError),
    /// Register access for an unknown tid.
    NoSuchThread(Tid),
}

impl From<ProcError> for PtraceError {
    fn from(e: ProcError) -> Self {
        PtraceError::Proc(e)
    }
}

impl core::fmt::Display for PtraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PtraceError::Proc(e) => write!(f, "{e}"),
            PtraceError::AlreadyTraced => write!(f, "process already traced"),
            PtraceError::NotStopped => write!(f, "tracee is not stopped"),
            PtraceError::Syscall(e) => write!(f, "injected syscall failed: {e}"),
            PtraceError::NoSuchThread(t) => write!(f, "no such thread: {t:?}"),
        }
    }
}
impl std::error::Error for PtraceError {}

/// An attached ptrace session. Dropping without [`PtraceSession::detach`]
/// leaves the tracee stopped (as real ptrace would on tracer death it
/// would resume — the manager never relies on that, and tests detach
/// explicitly).
pub struct PtraceSession<'k> {
    k: &'k mut Kernel,
    pid: Pid,
}

impl<'k> PtraceSession<'k> {
    /// `PTRACE_ATTACH`: begins tracing `pid`.
    pub fn attach(k: &'k mut Kernel, pid: Pid) -> Result<Self, PtraceError> {
        let proc = k.process_mut(pid)?;
        if proc.traced_by_manager {
            return Err(PtraceError::AlreadyTraced);
        }
        proc.traced_by_manager = true;
        Ok(PtraceSession { k, pid })
    }

    /// The traced pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Access to the kernel (cost model, clock) during the session.
    pub fn kernel(&mut self) -> &mut Kernel {
        self.k
    }

    fn require_stopped(&self) -> Result<(), PtraceError> {
        let proc = self.k.process(self.pid)?;
        if proc.state != ProcessState::Stopped {
            return Err(PtraceError::NotStopped);
        }
        Ok(())
    }

    /// Interrupts (group-stops) all threads; charges the per-thread
    /// interrupt cost. Idempotent.
    pub fn interrupt_all(&mut self) -> Result<Nanos, PtraceError> {
        let threads = {
            let proc = self.k.process_mut(self.pid)?;
            proc.state = ProcessState::Stopped;
            proc.thread_count()
        };
        let dt = self.k.cost.interrupt_cost(threads);
        self.k.charge(dt);
        Ok(dt)
    }

    /// Resumes all threads (`PTRACE_CONT`).
    pub fn resume(&mut self) -> Result<(), PtraceError> {
        let proc = self.k.process_mut(self.pid)?;
        proc.state = ProcessState::Running;
        Ok(())
    }

    /// `PTRACE_GETREGS` for every thread; charges per-thread cost.
    pub fn save_regs_all(&mut self) -> Result<Vec<(Tid, RegisterSet)>, PtraceError> {
        self.require_stopped()?;
        let proc = self.k.process(self.pid)?;
        let out: Vec<(Tid, RegisterSet)> = proc
            .threads
            .iter()
            .map(|t| (t.tid, t.regs.clone()))
            .collect();
        let dt = self.k.cost.regs_cost(out.len());
        self.k.charge(dt);
        Ok(out)
    }

    /// `PTRACE_SETREGS` for every thread in `saved`; charges per-thread
    /// cost. Threads that no longer exist yield an error.
    pub fn restore_regs_all(&mut self, saved: &[(Tid, RegisterSet)]) -> Result<(), PtraceError> {
        self.require_stopped()?;
        {
            let proc = self.k.process_mut(self.pid)?;
            for (tid, regs) in saved {
                let t = proc
                    .thread_mut(*tid)
                    .ok_or(PtraceError::NoSuchThread(*tid))?;
                t.regs.load(regs);
            }
        }
        let dt = self.k.cost.regs_cost(saved.len());
        self.k.charge(dt);
        Ok(())
    }

    /// Reads `/proc/pid/maps` into an owned list; charges per-VMA cost.
    /// For callers that keep the list past the session (the snapshotter);
    /// the restorer uses [`PtraceSession::charge_maps_read`] and borrows
    /// the live map instead.
    pub fn read_maps(&mut self) -> Result<Vec<Vma>, PtraceError> {
        let proc = self.k.process(self.pid)?;
        let maps = proc.mem.maps();
        let dt = self.k.cost.read_maps_cost(maps.len());
        self.k.charge(dt);
        Ok(maps)
    }

    /// Reads `/proc/pid/maps` in place: charges exactly what
    /// [`PtraceSession::read_maps`] charges and returns the VMA count,
    /// without copying the list. The caller reads the VMAs from the live
    /// map ([`AddressSpace::vmas_iter`](gh_mem::AddressSpace::vmas_iter))
    /// while nothing between the two edits the layout — the restorer's
    /// dirty scan does not.
    pub fn charge_maps_read(&mut self) -> Result<usize, PtraceError> {
        let vmas = self.k.process(self.pid)?.mem.vma_count();
        let dt = self.k.cost.read_maps_cost(vmas);
        self.k.charge(dt);
        Ok(vmas)
    }

    /// The page-metadata footprint of the tracee right now, for
    /// [`CostModel`](gh_sim::CostModel) charging.
    fn scan_shape(&self, dirty_pages: u64) -> Result<gh_sim::ScanShape, PtraceError> {
        let proc = self.k.process(self.pid)?;
        Ok(gh_sim::ScanShape {
            mapped_pages: proc.mem.mapped_pages(),
            vmas: proc.mem.vma_count(),
            extents: proc.mem.extent_count() as u64,
            dirty_pages,
        })
    }

    /// Collects the soft-dirty pages and the address space's change
    /// indices (present pages outside the last snapshot, snapshot pages
    /// no longer present) in one pass — the `/proc/pid/pagemap` scan.
    /// Overwrites the three buffers and returns the change baseline's
    /// epoch. Host-side work is `O(dirty + changed)`; the simulated
    /// charge follows the kernel's [`ChargeModel`](gh_sim::ChargeModel):
    /// under paper-parity charging it is the full per-PTE pagemap walk.
    pub fn dirty_scan(
        &mut self,
        dirty: &mut Vec<Vpn>,
        fresh: &mut Vec<PageRange>,
        dropped: &mut Vec<PageRange>,
    ) -> Result<u64, PtraceError> {
        let mem = &self.k.process(self.pid)?.mem;
        dirty.clear();
        mem.soft_dirty_into(dirty);
        fresh.clear();
        mem.fresh_runs_into(fresh);
        dropped.clear();
        mem.dropped_runs_into(dropped);
        let epoch = mem.change_epoch();
        let shape = self.scan_shape(dirty.len() as u64)?;
        let dt = self.k.cost.dirty_scan_cost(shape);
        self.k.charge(dt);
        Ok(epoch)
    }

    /// Captures the present pages as refcounted frame runs (the
    /// snapshotter's run-based capture). No cost charged here: the
    /// snapshotter charges the mode-dependent capture cost.
    pub fn capture_frame_runs(&mut self) -> Result<Vec<(Vpn, Vec<gh_mem::FrameId>)>, PtraceError> {
        let (proc, frames) = self.k.mem_ctx(self.pid)?;
        Ok(proc.mem.capture_frame_runs(frames))
    }

    /// `echo 4 > /proc/pid/clear_refs`; charged per the kernel's
    /// [`ChargeModel`](gh_sim::ChargeModel) (per mapped page under paper
    /// parity, per extent under extent charging). Host-side work is
    /// `O(extents + dirty)` either way.
    pub fn clear_soft_dirty(&mut self) -> Result<Nanos, PtraceError> {
        let shape = self.scan_shape(0)?;
        let (proc, _) = self.k.mem_ctx(self.pid)?;
        proc.mem.clear_soft_dirty();
        let dt = self.k.cost.rearm_cost(shape);
        self.k.charge(dt);
        Ok(dt)
    }

    /// Arms userfaultfd write-protection over all present pages (the UFFD
    /// tracking backend, §4.3); charged like a `clear_refs` pass.
    pub fn arm_uffd(&mut self) -> Result<(), PtraceError> {
        let shape = self.scan_shape(0)?;
        let (proc, _) = self.k.mem_ctx(self.pid)?;
        proc.mem.arm_uffd_wp();
        let dt = self.k.cost.rearm_cost(shape);
        self.k.charge(dt);
        Ok(())
    }

    /// Disarms userfaultfd mode and returns the pages it reported dirty.
    /// Cost is proportional to the log length (no full scan — UFFD's
    /// advantage when few pages are dirtied).
    pub fn disarm_uffd(&mut self) -> Result<Vec<Vpn>, PtraceError> {
        let (proc, _) = self.k.mem_ctx(self.pid)?;
        let log = proc.mem.disarm_uffd();
        let dt = self.k.cost.scan_pte * log.len() as u64;
        self.k.charge(dt);
        Ok(log)
    }

    /// Injects one syscall into the stopped tracee; charges the injection
    /// cost even when the syscall fails (the trap round-trip happens
    /// regardless).
    pub fn inject(&mut self, sc: Syscall) -> Result<(), PtraceError> {
        self.require_stopped()?;
        let dt = self.k.cost.syscall_inject;
        self.k.charge(dt);
        let (proc, frames) = self.k.mem_ctx(self.pid)?;
        let res = match sc {
            Syscall::Brk(v) => proc.mem.set_brk(v, frames).map(|_| ()),
            Syscall::MmapFixed { range, perms, file } => {
                let kind = match file {
                    Some(name) => gh_mem::VmaKind::File(name),
                    None => gh_mem::VmaKind::Anon,
                };
                proc.mem.mmap_fixed(range, perms, kind)
            }
            Syscall::Munmap(range) => proc.mem.munmap(range, frames),
            Syscall::MadviseDontneed(range) => proc.mem.madvise_dontneed(range, frames),
            Syscall::Mprotect(range, perms) => proc.mem.mprotect(range, perms),
        };
        res.map_err(PtraceError::Syscall)
    }

    /// Reads one page's contents (snapshot path). No cost charged here:
    /// the snapshotter charges the aggregate per-page copy cost.
    pub fn read_page(&mut self, vpn: Vpn) -> Result<Option<FrameData>, PtraceError> {
        let (proc, frames) = self.k.mem_ctx(self.pid)?;
        Ok(proc.mem.pte(vpn).map(|pte| frames.data(pte.frame).clone()))
    }

    /// Writes one page wholesale (restore path); contents become `taint`.
    /// No cost charged here: the restorer charges coalesced-run costs.
    pub fn write_page(
        &mut self,
        vpn: Vpn,
        data: &FrameData,
        taint: Taint,
    ) -> Result<(), PtraceError> {
        self.require_stopped()?;
        let (proc, frames) = self.k.mem_ctx(self.pid)?;
        proc.mem
            .restore_page(vpn, data, taint, frames)
            .map_err(PtraceError::Syscall)
    }

    /// Writes every page of `runs` (sorted, disjoint) wholesale with the
    /// contents `data` yields for it, called once per page in ascending
    /// order with a view of the tracee machine's frame table; contents
    /// become `taint`. State outcome is identical to
    /// [`PtraceSession::write_page`] per page ascending, at one
    /// page-table walk for the whole set
    /// ([`AddressSpace::restore_runs`](gh_mem::AddressSpace::restore_runs)).
    /// No cost charged here: the restorer charges coalesced-run costs.
    pub fn write_runs(
        &mut self,
        runs: &[PageRange],
        data: impl FnMut(Vpn, &FrameTable) -> FrameData,
        taint: Taint,
    ) -> Result<(), PtraceError> {
        self.require_stopped()?;
        let (proc, frames) = self.k.mem_ctx(self.pid)?;
        proc.mem
            .restore_runs(runs, data, taint, frames)
            .map_err(PtraceError::Syscall)
    }

    /// Registers pages for on-demand restoration (the lazy restore
    /// mode's `DeferArm` pass): instead of writing the restore set back,
    /// the manager write-protects/unmaps it against the snapshot image
    /// and the kernel delivers a fault to the handler on first touch.
    /// The restorer charges the per-run registration cost.
    pub fn arm_lazy(
        &mut self,
        pages: std::collections::BTreeMap<u64, gh_mem::LazyPageSource>,
    ) -> Result<(), PtraceError> {
        self.require_stopped()?;
        let (proc, _) = self.k.mem_ctx(self.pid)?;
        proc.mem.arm_lazy(pages);
        Ok(())
    }

    /// Evicts a page (restore of a newly paged page via `madvise`). The
    /// madvise bookkeeping cost is charged by the restorer.
    pub fn evict_page(&mut self, vpn: Vpn) -> Result<(), PtraceError> {
        self.require_stopped()?;
        let (proc, frames) = self.k.mem_ctx(self.pid)?;
        proc.mem.evict_page(vpn, frames);
        Ok(())
    }

    /// Evicts every page of `ranges` (sorted, disjoint) — the madvise
    /// pass as one page-table edit; state outcome is identical to
    /// [`PtraceSession::evict_page`] per page ascending. The madvise
    /// bookkeeping cost is charged by the restorer.
    pub fn evict_runs(&mut self, ranges: &[PageRange]) -> Result<(), PtraceError> {
        self.require_stopped()?;
        let (proc, frames) = self.k.mem_ctx(self.pid)?;
        proc.mem.evict_runs(ranges, frames);
        Ok(())
    }

    /// Zeroes one page (stack zeroing); the restorer charges the cost.
    pub fn zero_page(&mut self, vpn: Vpn) -> Result<(), PtraceError> {
        self.require_stopped()?;
        let (proc, frames) = self.k.mem_ctx(self.pid)?;
        proc.mem
            .zero_page(vpn, frames)
            .map_err(PtraceError::Syscall)
    }

    /// `PTRACE_DETACH`: resumes the tracee and ends the session, charging
    /// the per-thread detach cost.
    pub fn detach(self) -> Result<Nanos, PtraceError> {
        let threads = {
            let proc = self.k.process_mut(self.pid)?;
            proc.state = ProcessState::Running;
            proc.traced_by_manager = false;
            proc.thread_count()
        };
        let dt = self.k.cost.detach_cost(threads);
        self.k.charge(dt);
        Ok(dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::{PageRange, Perms, Touch, VmaKind};

    fn machine_with_proc() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let pid = k.spawn("tracee");
        k.run_charged(pid, |p, frames| {
            let r = p.mem.mmap(8, Perms::RW, VmaKind::Anon).unwrap();
            for vpn in r.iter() {
                p.mem
                    .touch(vpn, Touch::WriteWord(0xCAFE), Taint::Clean, frames)
                    .unwrap();
            }
        })
        .unwrap();
        (k, pid)
    }

    #[test]
    fn attach_is_exclusive() {
        let (mut k, pid) = machine_with_proc();
        {
            let _s = PtraceSession::attach(&mut k, pid).unwrap();
        }
        // Session dropped without detach: still traced. Re-attach fails.
        assert!(matches!(
            PtraceSession::attach(&mut k, pid),
            Err(PtraceError::AlreadyTraced)
        ));
    }

    #[test]
    fn attach_detach_roundtrip() {
        let (mut k, pid) = machine_with_proc();
        let s = PtraceSession::attach(&mut k, pid).unwrap();
        s.detach().unwrap();
        let s2 = PtraceSession::attach(&mut k, pid).unwrap();
        s2.detach().unwrap();
    }

    #[test]
    fn regs_require_stop() {
        let (mut k, pid) = machine_with_proc();
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        assert_eq!(s.save_regs_all().unwrap_err(), PtraceError::NotStopped);
        s.interrupt_all().unwrap();
        let regs = s.save_regs_all().unwrap();
        assert_eq!(regs.len(), 1);
        s.detach().unwrap();
    }

    #[test]
    fn interrupt_charges_per_thread() {
        let (mut k, pid) = machine_with_proc();
        k.spawn_thread(pid).unwrap();
        k.spawn_thread(pid).unwrap();
        let expected = k.cost.interrupt_cost(3);
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        let dt = s.interrupt_all().unwrap();
        assert_eq!(dt, expected);
        s.detach().unwrap();
    }

    #[test]
    fn save_restore_regs_roundtrip() {
        let (mut k, pid) = machine_with_proc();
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        s.interrupt_all().unwrap();
        let saved = s.save_regs_all().unwrap();
        s.resume().unwrap();
        s.kernel()
            .process_mut(pid)
            .unwrap()
            .main_thread_mut()
            .regs
            .scramble(99, Taint::Clean);
        s.interrupt_all().unwrap();
        s.restore_regs_all(&saved).unwrap();
        let now = s.kernel().process(pid).unwrap().main_thread().regs.clone();
        assert_eq!(now, saved[0].1);
        s.detach().unwrap();
    }

    #[test]
    fn pagemap_scan_sees_dirty_bits() {
        let (mut k, pid) = machine_with_proc();
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        let (mut dirty, mut fresh, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
        s.dirty_scan(&mut dirty, &mut fresh, &mut dropped).unwrap();
        assert_eq!(dirty.len(), 8, "all freshly written");
        s.clear_soft_dirty().unwrap();
        s.dirty_scan(&mut dirty, &mut fresh, &mut dropped).unwrap();
        assert!(dirty.is_empty());
        s.detach().unwrap();
    }

    #[test]
    fn inject_requires_stop_and_applies() {
        let (mut k, pid) = machine_with_proc();
        let heap = k.process(pid).unwrap().mem.config().heap_base;
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        let err = s.inject(Syscall::Brk(Vpn(heap.0 + 10))).unwrap_err();
        assert_eq!(err, PtraceError::NotStopped);
        s.interrupt_all().unwrap();
        s.inject(Syscall::Brk(Vpn(heap.0 + 10))).unwrap();
        assert_eq!(s.kernel().process(pid).unwrap().mem.brk(), Vpn(heap.0 + 10));
        s.detach().unwrap();
    }

    #[test]
    fn inject_surfaces_tracee_errors() {
        let (mut k, pid) = machine_with_proc();
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        s.interrupt_all().unwrap();
        let err = s
            .inject(Syscall::Munmap(PageRange::new(Vpn(5), Vpn(5))))
            .unwrap_err();
        assert!(matches!(err, PtraceError::Syscall(AccessError::BadRange)));
        s.detach().unwrap();
    }

    #[test]
    fn page_read_write_roundtrip() {
        let (mut k, pid) = machine_with_proc();
        let vpn = k.process(pid).unwrap().mem.pagemap().next().unwrap().0;
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        s.interrupt_all().unwrap();
        let page = s.read_page(vpn).unwrap().expect("present");
        assert_eq!(page.read_word(1), 0xCAFE);
        s.write_page(vpn, &FrameData::Zero, Taint::Clean).unwrap();
        assert_eq!(s.read_page(vpn).unwrap().unwrap().read_word(1), 0);
        s.detach().unwrap();
    }

    #[test]
    fn uffd_arm_and_log() {
        let (mut k, pid) = machine_with_proc();
        {
            let mut s = PtraceSession::attach(&mut k, pid).unwrap();
            s.interrupt_all().unwrap();
            s.arm_uffd().unwrap();
            s.detach().unwrap();
        }
        // Function writes two pages.
        let first = k.process(pid).unwrap().mem.pagemap().next().unwrap().0;
        k.run_charged(pid, |p, frames| {
            p.mem
                .touch(first, Touch::WriteWord(1), Taint::Clean, frames)
                .unwrap();
        })
        .unwrap();
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        s.interrupt_all().unwrap();
        let log = s.disarm_uffd().unwrap();
        assert_eq!(log, vec![first]);
        s.detach().unwrap();
    }

    #[test]
    fn detach_resumes() {
        let (mut k, pid) = machine_with_proc();
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        s.interrupt_all().unwrap();
        s.detach().unwrap();
        assert_eq!(k.process(pid).unwrap().state, ProcessState::Running);
        assert!(!k.process(pid).unwrap().traced_by_manager);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::registers::RegisterSet;
    use gh_mem::{Perms, Taint, Touch, VmaKind};

    #[test]
    fn restore_regs_for_unknown_tid_fails() {
        let mut k = Kernel::boot();
        let pid = k.spawn("t");
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        s.interrupt_all().unwrap();
        let bogus = vec![(Tid(0xDEAD), RegisterSet::new())];
        assert_eq!(
            s.restore_regs_all(&bogus).unwrap_err(),
            PtraceError::NoSuchThread(Tid(0xDEAD))
        );
        s.detach().unwrap();
    }

    #[test]
    fn write_page_requires_stop() {
        let mut k = Kernel::boot();
        let pid = k.spawn("t");
        k.run_charged(pid, |p, frames| {
            let r = p.mem.mmap(1, Perms::RW, VmaKind::Anon).unwrap();
            p.mem
                .touch(r.start, Touch::WriteWord(1), Taint::Clean, frames)
                .unwrap();
        })
        .unwrap();
        let vpn = k.process(pid).unwrap().mem.pagemap().next().unwrap().0;
        let mut s = PtraceSession::attach(&mut k, pid).unwrap();
        assert_eq!(
            s.write_page(vpn, &gh_mem::FrameData::Zero, Taint::Clean)
                .unwrap_err(),
            PtraceError::NotStopped
        );
        s.detach().unwrap();
    }

    #[test]
    fn operations_on_dead_process_fail() {
        let mut k = Kernel::boot();
        let pid = k.spawn("t");
        k.exit(pid).unwrap();
        assert!(matches!(
            PtraceSession::attach(&mut k, pid),
            Err(PtraceError::Proc(_))
        ));
    }
}
