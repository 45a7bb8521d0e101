//! The machine: process table, frame table, clock and cost accounting.
//!
//! [`Kernel`] is the single owner of shared machine state. All work that
//! consumes time — page faults during function execution, ptrace
//! orchestration, syscalls — is charged to the [`VirtualClock`] here using
//! the calibrated [`CostModel`], so experiment timings emerge from
//! operation counts.

use std::collections::BTreeMap;

use gh_mem::{AddressSpace, FaultCounters, FrameTable, SpaceConfig};
use gh_sim::{CostModel, Nanos, VirtualClock};

use crate::process::{Pid, Process, ProcessState, Thread, Tid};
use crate::registers::RegisterSet;

/// Machine configuration.
#[derive(Clone, Debug, Default)]
pub struct KernelConfig {
    /// Geometry for new address spaces.
    pub space: SpaceConfig,
    /// Cost model (the paper calibration by default).
    pub cost: CostModel,
}

/// Errors from process-table operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcError {
    /// Unknown or dead pid.
    NoSuchProcess(Pid),
    /// The operation requires a running (not stopped/zombie) process.
    NotRunnable(Pid),
}

impl core::fmt::Display for ProcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProcError::NoSuchProcess(p) => write!(f, "no such process: {p:?}"),
            ProcError::NotRunnable(p) => write!(f, "process not runnable: {p:?}"),
        }
    }
}
impl std::error::Error for ProcError {}

/// The simulated machine.
#[derive(Debug)]
pub struct Kernel {
    /// The virtual clock all costs charge to.
    pub clock: VirtualClock,
    /// The calibrated cost model.
    pub cost: CostModel,
    space_cfg: SpaceConfig,
    frames: FrameTable,
    procs: BTreeMap<u32, Process>,
    next_pid: u32,
    next_tid: u32,
    /// Faults charged since the last [`Kernel::take_fault_accum`].
    fault_accum: FaultCounters,
}

impl Kernel {
    /// Boots a machine with the given configuration and a fresh clock.
    pub fn new(cfg: KernelConfig) -> Kernel {
        Kernel {
            clock: VirtualClock::new(),
            cost: cfg.cost,
            space_cfg: cfg.space,
            frames: FrameTable::new(),
            procs: BTreeMap::new(),
            next_pid: 100,
            next_tid: 100,
            fault_accum: FaultCounters::default(),
        }
    }

    /// Boots a machine with default configuration.
    pub fn boot() -> Kernel {
        Kernel::new(KernelConfig::default())
    }

    fn fresh_pid(&mut self) -> (Pid, Tid) {
        let pid = Pid(self.next_pid);
        let tid = Tid(self.next_tid);
        self.next_pid += 1;
        self.next_tid += 1;
        (pid, tid)
    }

    /// Creates a new single-threaded process with an empty address space.
    pub fn spawn(&mut self, name: &str) -> Pid {
        let (pid, tid) = self.fresh_pid();
        let mem = AddressSpace::new(self.space_cfg, &mut self.frames);
        let proc = Process {
            pid,
            name: name.to_string(),
            threads: vec![Thread {
                tid,
                regs: RegisterSet::new(),
            }],
            mem,
            state: ProcessState::Running,
            traced_by_manager: false,
        };
        self.procs.insert(pid.0, proc);
        pid
    }

    /// Adds a thread to a process (runtime initialization spawning GC /
    /// event-loop threads).
    pub fn spawn_thread(&mut self, pid: Pid) -> Result<Tid, ProcError> {
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        let proc = self.process_mut(pid)?;
        proc.threads.push(Thread {
            tid,
            regs: RegisterSet::new(),
        });
        Ok(tid)
    }

    /// Looks up a process.
    pub fn process(&self, pid: Pid) -> Result<&Process, ProcError> {
        self.procs.get(&pid.0).ok_or(ProcError::NoSuchProcess(pid))
    }

    /// Looks up a process mutably.
    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, ProcError> {
        self.procs
            .get_mut(&pid.0)
            .ok_or(ProcError::NoSuchProcess(pid))
    }

    /// True if the pid exists.
    pub fn exists(&self, pid: Pid) -> bool {
        self.procs.contains_key(&pid.0)
    }

    /// Splits the borrow into (process, frame table) for memory work.
    pub fn mem_ctx(&mut self, pid: Pid) -> Result<(&mut Process, &mut FrameTable), ProcError> {
        let proc = self
            .procs
            .get_mut(&pid.0)
            .ok_or(ProcError::NoSuchProcess(pid))?;
        Ok((proc, &mut self.frames))
    }

    /// Read-only frame table (taint scans in tests).
    pub fn frames(&self) -> &FrameTable {
        &self.frames
    }

    /// Advances the clock by `dt`.
    pub fn charge(&mut self, dt: Nanos) {
        self.clock.advance(dt);
    }

    /// Returns (and resets) the fault counts charged since the last call
    /// — the per-invocation fault accounting used by execution reports.
    pub fn take_fault_accum(&mut self) -> FaultCounters {
        self.fault_accum.take()
    }

    /// Converts fault counts into time and charges them.
    pub fn charge_faults(&mut self, c: FaultCounters) -> Nanos {
        self.fault_accum.absorb(c);
        let m = &self.cost;
        let dt = m.minor_fault * c.minor
            + m.sd_wp_fault * c.sd_wp
            + m.cow_fault * c.cow
            + m.uffd_fault * c.uffd_wp
            + m.fork_cold_access * c.tlb_cold
            + m.lazy_fault * c.lazy
            + m.warm_touch * c.warm;
        self.clock.advance(dt);
        dt
    }

    /// Runs `f` with the process's memory context, then charges all fault
    /// costs the work incurred. Returns `f`'s result and the charged time.
    ///
    /// This is how function execution runs "inside" a process: the paper's
    /// in-function overheads (§5.2.1) are exactly the faults charged here.
    pub fn run_charged<R>(
        &mut self,
        pid: Pid,
        f: impl FnOnce(&mut Process, &mut FrameTable) -> R,
    ) -> Result<(R, Nanos), ProcError> {
        {
            let proc = self.process(pid)?;
            if !proc.is_runnable() {
                return Err(ProcError::NotRunnable(pid));
            }
        }
        let (proc, frames) = self.mem_ctx(pid)?;
        proc.mem.counters_mut().take(); // isolate this run's counts
        let r = f(proc, frames);
        let counts = proc.mem.counters_mut().take();
        let dt = self.charge_faults(counts);
        Ok((r, dt))
    }

    /// Applies a [`TouchBatch`](gh_mem::TouchBatch) inside `pid` and
    /// charges the aggregated fault counters in one shot — the batched
    /// request hot path. Equivalent in accounting and timeline to
    /// [`Kernel::run_charged`] around a per-page `touch` loop: the
    /// fault-cost charge is linear in the counters, so charging the
    /// aggregate advances the clock by exactly the summed per-page
    /// costs. Returns the batch's fault counters and the charged time.
    pub fn touch_batch_charged(
        &mut self,
        pid: Pid,
        batch: &gh_mem::TouchBatch,
    ) -> Result<(gh_mem::BatchOutcome, Nanos), ProcError> {
        self.run_charged(pid, |p, frames| p.mem.touch_batch(batch, frames))
    }

    /// Reads the ascending page set `vpns` inside `pid` as one span
    /// ([`AddressSpace::read_span`](gh_mem::AddressSpace::read_span):
    /// warm pages cost at most a cursor step, every other page goes through
    /// `slow`, the caller's reused scratch batch) and charges the
    /// aggregate fault counters in one shot — the request read path.
    /// Accounting and timeline equal [`Kernel::run_charged`] around a
    /// per-page `touch(vpn, Read, Clean)` loop. Returns the span's fault
    /// counters and the charged time.
    pub fn read_span_charged(
        &mut self,
        pid: Pid,
        vpns: &[gh_mem::Vpn],
        slow: &mut gh_mem::TouchBatch,
    ) -> Result<(gh_mem::BatchOutcome, Nanos), ProcError> {
        self.run_charged(pid, |p, frames| p.mem.read_span(vpns, frames, slow))
    }

    /// POSIX `fork`: clones the address space copy-on-write and **only the
    /// calling (main) thread** — other threads do not exist in the child,
    /// which is why fork-based isolation cannot serve multi-threaded
    /// runtimes (§3.2).
    ///
    /// Charges the fork cost (page-table duplication) to the clock.
    pub fn fork(&mut self, pid: Pid) -> Result<Pid, ProcError> {
        let (child_pid, child_tid) = self.fresh_pid();
        let parent = self
            .procs
            .get_mut(&pid.0)
            .ok_or(ProcError::NoSuchProcess(pid))?;
        let mapped = parent.mem.mapped_pages();
        let child_mem = parent.mem.fork(&mut self.frames);
        let main_regs = parent.threads[0].regs.clone();
        let name = format!("{}:child", parent.name);
        let child = Process {
            pid: child_pid,
            name,
            threads: vec![Thread {
                tid: child_tid,
                regs: main_regs,
            }],
            mem: child_mem,
            state: ProcessState::Running,
            traced_by_manager: false,
        };
        self.procs.insert(child_pid.0, child);
        let dt = self.cost.fork_cost(mapped);
        self.clock.advance(dt);
        Ok(child_pid)
    }

    /// Terminates a process, releasing all its frames, and charges the
    /// teardown cost (`exit_mmap` is page-proportional).
    pub fn exit(&mut self, pid: Pid) -> Result<(), ProcError> {
        let mut proc = self
            .procs
            .remove(&pid.0)
            .ok_or(ProcError::NoSuchProcess(pid))?;
        let present = proc.mem.present_pages();
        proc.mem.release_all(&mut self.frames);
        let dt = self.cost.process_teardown + self.cost.teardown_per_page * present;
        self.clock.advance(dt);
        Ok(())
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::{Perms, Taint, Touch, VmaKind};

    #[test]
    fn spawn_creates_single_threaded_process() {
        let mut k = Kernel::boot();
        let pid = k.spawn("func");
        let p = k.process(pid).unwrap();
        assert_eq!(p.thread_count(), 1);
        assert_eq!(p.state, ProcessState::Running);
        assert_eq!(p.name, "func");
        assert!(k.exists(pid));
    }

    #[test]
    fn unique_pids_and_tids() {
        let mut k = Kernel::boot();
        let a = k.spawn("a");
        let b = k.spawn("b");
        assert_ne!(a, b);
        let t1 = k.spawn_thread(a).unwrap();
        let t2 = k.spawn_thread(a).unwrap();
        assert_ne!(t1, t2);
        assert_eq!(k.process(a).unwrap().thread_count(), 3);
    }

    #[test]
    fn run_charged_charges_fault_costs() {
        let mut k = Kernel::boot();
        let pid = k.spawn("f");
        let t0 = k.clock.now();
        let ((), dt) = k
            .run_charged(pid, |proc, frames| {
                let r = proc.mem.mmap(4, Perms::RW, VmaKind::Anon).unwrap();
                for vpn in r.iter() {
                    proc.mem
                        .touch(vpn, Touch::WriteWord(1), Taint::Clean, frames)
                        .unwrap();
                }
            })
            .unwrap();
        // 4 minor faults charged.
        assert_eq!(dt, k.cost.minor_fault * 4);
        assert_eq!(k.clock.now() - t0, dt);
    }

    #[test]
    fn touch_batch_charged_matches_loop_accounting() {
        use gh_mem::{TouchBatch, Vpn};
        let mut k = Kernel::boot();
        let pid = k.spawn("f");
        let r = k
            .run_charged(pid, |p, _| {
                p.mem.mmap(64, Perms::RW, VmaKind::Anon).unwrap()
            })
            .unwrap()
            .0;
        let mut batch = TouchBatch::new();
        for i in 0..64u64 {
            batch.push(Vpn(r.start.0 + i), Touch::WriteWord(i), Taint::Clean);
        }
        let t0 = k.clock.now();
        let (outcome, dt) = k.touch_batch_charged(pid, &batch).unwrap();
        assert_eq!(outcome.faults.minor, 64);
        assert_eq!(outcome.failed, 0);
        assert_eq!(
            dt,
            k.cost.minor_fault * 64,
            "aggregate charge == Σ per-page"
        );
        assert_eq!(k.clock.now() - t0, dt);
        // The accumulator saw the same counts a touch loop would feed it.
        assert_eq!(k.take_fault_accum().minor, 64);
    }

    #[test]
    fn read_span_charged_matches_loop_accounting() {
        use gh_mem::{TouchBatch, Vpn};
        let mut k = Kernel::boot();
        let pid = k.spawn("f");
        let r = k
            .run_charged(pid, |p, _| {
                p.mem.mmap(64, Perms::RW, VmaKind::Anon).unwrap()
            })
            .unwrap()
            .0;
        let vpns: Vec<Vpn> = r.iter().step_by(2).collect();
        let mut slow = TouchBatch::new();
        // First span: every page is absent and takes a minor fault.
        let t0 = k.clock.now();
        let (outcome, dt) = k.read_span_charged(pid, &vpns, &mut slow).unwrap();
        assert_eq!(outcome.faults.minor, 32);
        assert_eq!(outcome.failed, 0);
        assert_eq!(
            dt,
            k.cost.minor_fault * 32,
            "aggregate charge == Σ per-page"
        );
        assert_eq!(k.clock.now() - t0, dt);
        // Second span: every page is warm and none goes to the slow batch.
        let (outcome, _) = k.read_span_charged(pid, &vpns, &mut slow).unwrap();
        assert_eq!(outcome.faults.warm, 32);
        assert_eq!(outcome.faults.total_faults(), 0);
        assert!(slow.is_empty(), "warm pages skip the slow batch");
        let acc = k.take_fault_accum();
        assert_eq!((acc.minor, acc.warm), (32, 32));
    }

    #[test]
    fn run_charged_rejects_stopped_process() {
        let mut k = Kernel::boot();
        let pid = k.spawn("f");
        k.process_mut(pid).unwrap().state = ProcessState::Stopped;
        let err = k.run_charged(pid, |_, _| ()).unwrap_err();
        assert_eq!(err, ProcError::NotRunnable(pid));
    }

    #[test]
    fn fork_clones_only_calling_thread() {
        let mut k = Kernel::boot();
        let pid = k.spawn("node");
        k.spawn_thread(pid).unwrap();
        k.spawn_thread(pid).unwrap();
        assert_eq!(k.process(pid).unwrap().thread_count(), 3);
        let child = k.fork(pid).unwrap();
        assert_eq!(
            k.process(child).unwrap().thread_count(),
            1,
            "POSIX fork clones only the caller"
        );
    }

    #[test]
    fn fork_charges_page_table_cost() {
        let mut k = Kernel::boot();
        let pid = k.spawn("c");
        k.run_charged(pid, |p, _| {
            p.mem.mmap(100, Perms::RW, VmaKind::Anon).unwrap();
        })
        .unwrap();
        let mapped = k.process(pid).unwrap().mem.mapped_pages();
        let t0 = k.clock.now();
        let _child = k.fork(pid).unwrap();
        assert_eq!(k.clock.now() - t0, k.cost.fork_cost(mapped));
    }

    #[test]
    fn exit_releases_frames() {
        let mut k = Kernel::boot();
        let pid = k.spawn("f");
        k.run_charged(pid, |p, frames| {
            let r = p.mem.mmap(8, Perms::RW, VmaKind::Anon).unwrap();
            for vpn in r.iter() {
                p.mem
                    .touch(vpn, Touch::WriteWord(1), Taint::Clean, frames)
                    .unwrap();
            }
        })
        .unwrap();
        assert_eq!(k.frames().live(), 8);
        k.exit(pid).unwrap();
        assert_eq!(k.frames().live(), 0);
        assert!(!k.exists(pid));
        assert!(matches!(k.process(pid), Err(ProcError::NoSuchProcess(_))));
    }

    #[test]
    fn fork_then_exits_free_everything() {
        let mut k = Kernel::boot();
        let pid = k.spawn("f");
        k.run_charged(pid, |p, frames| {
            let r = p.mem.mmap(4, Perms::RW, VmaKind::Anon).unwrap();
            for vpn in r.iter() {
                p.mem
                    .touch(vpn, Touch::WriteWord(7), Taint::Clean, frames)
                    .unwrap();
            }
        })
        .unwrap();
        let child = k.fork(pid).unwrap();
        k.exit(child).unwrap();
        k.exit(pid).unwrap();
        assert_eq!(k.frames().live(), 0);
    }
}
