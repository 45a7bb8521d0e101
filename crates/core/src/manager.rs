//! The Groundhog manager: lifecycle orchestration and request gating.
//!
//! The manager process "interposes between the FaaS platform and the
//! process executing the function" (§4.1). Its job here:
//!
//! - drive the container through Fig. 1's life cycle (initialize → dummy
//!   warm-up → snapshot → serve/restore loop);
//! - **enforce** request isolation (§4.5): a request may only reach the
//!   function process when the manager has proof the process is clean —
//!   [`Manager::begin_request`] refuses otherwise, and the platform layer
//!   buffers requests until [`Manager::is_ready`];
//! - restore *between* activations, off the request critical path (§4.4);
//! - optionally skip rollback between consecutive requests of the same
//!   principal (§4.4's mutually-trusting-callers optimization), which
//!   defers the restore decision to the next request's arrival.

use gh_mem::StoreHandle;
use gh_proc::{Kernel, Pid};
use gh_sim::Nanos;

use crate::config::{GroundhogConfig, RestoreMode};
use crate::error::GhError;
use crate::restore::{RestoreReport, Restorer};
use crate::snapshot::{Snapshot, SnapshotMode, SnapshotReport, Snapshotter};
use crate::track::{make_tracker, MemoryTracker};

/// Manager lifecycle states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ManagerState {
    /// Process spawned; runtime initializing; no snapshot yet.
    Initializing,
    /// Snapshot taken; process clean; a request may start.
    Ready,
    /// A request is executing in the function process.
    Executing,
    /// Request finished; rollback pending (only reachable with
    /// `skip_same_principal`, which defers restores).
    NeedsRestore,
}

impl ManagerState {
    fn name(self) -> &'static str {
        match self {
            ManagerState::Initializing => "Initializing",
            ManagerState::Ready => "Ready",
            ManagerState::Executing => "Executing",
            ManagerState::NeedsRestore => "NeedsRestore",
        }
    }
}

/// Counters the manager keeps across its lifetime.
#[derive(Clone, Debug, Default)]
pub struct ManagerStats {
    /// Requests admitted.
    pub requests: u64,
    /// Restores performed.
    pub restores: u64,
    /// Restores skipped via the same-principal optimization.
    pub skipped_restores: u64,
    /// Sum of restore durations (off-critical-path time).
    pub total_restore_time: Nanos,
    /// Fresh restore obligations armed for first-touch fault-in (lazy
    /// restore mode). Re-arming a page whose obligation is still
    /// pending does not count again, so the conservation law
    /// `deferred = faulted + drained + dropped + pending` is exact.
    pub deferred_pages: u64,
    /// Deferred pages written back by the background drain.
    pub lazy_drained_pages: u64,
    /// Obligations discarded because the function dropped their mapping
    /// (`munmap`/`madvise`/brk shrink) before touching them — eager
    /// restoration would have copied those pages only to lose them the
    /// same way.
    pub lazy_dropped_pages: u64,
    /// Virtual time the background drain consumed — out of idle gaps,
    /// never the critical path.
    pub lazy_drain_time: Nanos,
    /// The snapshot report, once taken.
    pub snapshot: Option<SnapshotReport>,
    /// Most recent restore report.
    pub last_restore: Option<RestoreReport>,
}

/// What `begin_request` did before admitting the request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admission {
    /// Process was already clean.
    Clean,
    /// A deferred rollback ran first (on the critical path).
    RestoredFirst,
    /// Rollback was skipped: same principal as the previous request.
    SkippedSamePrincipal,
}

/// The per-container Groundhog manager.
pub struct Manager {
    cfg: GroundhogConfig,
    pid: Pid,
    state: ManagerState,
    snapshot: Option<Snapshot>,
    tracker: Box<dyn MemoryTracker + Send>,
    last_principal: Option<String>,
    /// Pool-shared snapshot store + dedup key, when this manager belongs
    /// to a container pool. Used only when `cfg.cow_snapshot` is off — a
    /// CoW snapshot holds references into the process's own frames, so
    /// there are no page copies to intern.
    shared_store: Option<(String, StoreHandle)>,
    /// Virtual time the container went idle after its last lazy restore;
    /// the background drain's budget is the gap between this and the
    /// next request's admission.
    idle_since: Option<Nanos>,
    /// Lifetime counters.
    pub stats: ManagerStats,
}

impl Manager {
    /// Creates a manager for the function process `pid`.
    pub fn new(pid: Pid, cfg: GroundhogConfig) -> Manager {
        Self::with_shared_store(pid, cfg, None)
    }

    /// Creates a manager whose snapshot pages are interned into a
    /// pool-shared [`SnapshotStore`](gh_mem::SnapshotStore) under the
    /// dedup key (`None` keeps the snapshot private, as [`Manager::new`]).
    pub fn with_shared_store(
        pid: Pid,
        cfg: GroundhogConfig,
        shared_store: Option<(String, StoreHandle)>,
    ) -> Manager {
        let tracker = make_tracker(cfg.tracker);
        Manager {
            cfg,
            pid,
            state: ManagerState::Initializing,
            snapshot: None,
            tracker,
            last_principal: None,
            shared_store,
            idle_since: None,
            stats: ManagerStats::default(),
        }
    }

    /// The managed pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current state.
    pub fn state(&self) -> ManagerState {
        self.state
    }

    /// Configuration in effect.
    pub fn config(&self) -> &GroundhogConfig {
        &self.cfg
    }

    /// The snapshot, once taken.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// True when a request may be forwarded to the function process
    /// without violating isolation. (`NeedsRestore` is also admissible —
    /// the manager will roll back or skip during admission.)
    pub fn is_ready(&self) -> bool {
        matches!(self.state, ManagerState::Ready | ManagerState::NeedsRestore)
    }

    /// The principal of the most recently admitted request, if any.
    pub fn last_principal(&self) -> Option<&str> {
        self.last_principal.as_deref()
    }

    /// True when admitting `principal` right now would *not* put a
    /// restore on the request's critical path: the process is provably
    /// clean, or the deferred rollback can be skipped because the
    /// previous request came from the same principal (§4.4's
    /// mutually-trusting-callers optimization). A restore-aware router
    /// uses this to keep rollbacks off every request's critical path.
    pub fn admits_without_restore(&self, principal: &str) -> bool {
        match self.state {
            ManagerState::Ready => true,
            ManagerState::NeedsRestore => {
                self.cfg.skip_same_principal && self.last_principal.as_deref() == Some(principal)
            }
            _ => false,
        }
    }

    /// Takes the clean-state snapshot (§4.2). The caller must have driven
    /// initialization and the dummy warm-up request (§4.1) first.
    pub fn snapshot_now(&mut self, kernel: &mut Kernel) -> Result<SnapshotReport, GhError> {
        if self.state != ManagerState::Initializing {
            return Err(GhError::BadState {
                state: self.state.name(),
                op: "snapshot_now",
            });
        }
        let mode = if self.cfg.cow_snapshot {
            // CoW takes precedence: it keeps no page copies to intern,
            // and honoring it preserves pool-of-one timeline parity with
            // a lone CoW-configured container.
            SnapshotMode::Cow
        } else if let Some((key, store)) = &self.shared_store {
            SnapshotMode::Shared {
                store: store.clone(),
                key: key.clone(),
            }
        } else {
            SnapshotMode::Eager
        };
        let (snapshot, report) =
            Snapshotter::take_mode(kernel, self.pid, self.tracker.as_mut(), mode)?;
        self.snapshot = Some(snapshot);
        self.stats.snapshot = Some(report);
        self.state = ManagerState::Ready;
        Ok(report)
    }

    /// Admits a request from `principal`, enforcing isolation. With
    /// deferred restores pending, either rolls back now (different
    /// principal → critical-path restore) or skips (same principal).
    pub fn begin_request(
        &mut self,
        kernel: &mut Kernel,
        principal: &str,
    ) -> Result<Admission, GhError> {
        if self.state == ManagerState::Ready {
            // Lazy + drain: the idle gap that just ended is the budget
            // the background drain ran in.
            self.background_drain(kernel);
        }
        let admission = match self.state {
            ManagerState::Ready => Admission::Clean,
            ManagerState::NeedsRestore => {
                if self.cfg.skip_same_principal && self.last_principal.as_deref() == Some(principal)
                {
                    self.stats.skipped_restores += 1;
                    Admission::SkippedSamePrincipal
                } else {
                    self.restore_now(kernel)?;
                    Admission::RestoredFirst
                }
            }
            s => {
                return Err(GhError::BadState {
                    state: s.name(),
                    op: "begin_request",
                })
            }
        };
        self.state = ManagerState::Executing;
        // Reuse the previous principal's buffer: no allocation per request.
        let last = self.last_principal.get_or_insert_with(String::new);
        last.clear();
        last.push_str(principal);
        self.stats.requests += 1;
        Ok(admission)
    }

    /// Marks the request finished (response already forwarded) and
    /// performs the off-critical-path rollback. Returns the restore
    /// report, or `None` when restoration is disabled (GHNOP) or deferred
    /// (same-principal skip mode).
    pub fn end_request(&mut self, kernel: &mut Kernel) -> Result<Option<RestoreReport>, GhError> {
        if self.state != ManagerState::Executing {
            return Err(GhError::BadState {
                state: self.state.name(),
                op: "end_request",
            });
        }
        if !self.cfg.restore_enabled {
            // GHNOP: no rollback ever; container stays "ready" (insecure
            // against cross-principal flows by design).
            self.state = ManagerState::Ready;
            return Ok(None);
        }
        if self.cfg.skip_same_principal {
            // Defer: the next request's principal decides.
            self.state = ManagerState::NeedsRestore;
            return Ok(None);
        }
        let report = self.restore_now(kernel)?;
        Ok(Some(report))
    }

    fn restore_now(&mut self, kernel: &mut Kernel) -> Result<RestoreReport, GhError> {
        let snapshot = self.snapshot.as_ref().ok_or(GhError::NoSnapshot)?;
        let pending_before = self.lazy_pending(kernel);
        let report =
            Restorer::restore(kernel, self.pid, snapshot, self.tracker.as_mut(), &self.cfg)?;
        self.stats.restores += 1;
        self.stats.total_restore_time += report.total;
        if self.cfg.restore_mode.is_lazy() {
            // Fresh obligations only: the DeferArm pass may re-arm a
            // page whose (dropped-and-re-entered or never-installed)
            // obligation is still pending — replacement, not new work.
            self.stats.deferred_pages += self.lazy_pending(kernel).saturating_sub(pending_before);
            self.harvest_lazy_drops(kernel);
            self.idle_since = Some(kernel.clock.now());
        }
        self.stats.last_restore = Some(report.clone());
        self.state = ManagerState::Ready;
        Ok(report)
    }

    /// Collects obligations the function discarded by dropping their
    /// mapping since the last harvest.
    fn harvest_lazy_drops(&mut self, kernel: &mut Kernel) {
        if let Ok(p) = kernel.process_mut(self.pid) {
            self.stats.lazy_dropped_pages += p.mem.take_lazy_dropped();
        }
    }

    /// Pages still awaiting on-demand restoration (lazy mode).
    pub fn lazy_pending(&self, kernel: &Kernel) -> u64 {
        kernel
            .process(self.pid)
            .map(|p| p.mem.lazy_pending_len() as u64)
            .unwrap_or(0)
    }

    /// Writes back *every* still-pending page right now, charging the
    /// full writeback cost to the clock — the "flush" end of the lazy
    /// spectrum, used by tests (to reach a bit-exact-with-eager state)
    /// and by operators before e.g. container checkpointing. Callable
    /// whenever no request is executing.
    pub fn drain_now(&mut self, kernel: &mut Kernel) -> Result<u64, GhError> {
        if self.state == ManagerState::Executing {
            return Err(GhError::BadState {
                state: self.state.name(),
                op: "drain_now",
            });
        }
        let runs: Vec<gh_mem::PageRange> = kernel
            .process(self.pid)
            .map(|p| p.mem.lazy_pending_runs())
            .unwrap_or_default();
        if runs.is_empty() {
            return Ok(0);
        }
        // Priced exactly like the eager writeback it stands in for,
        // including the configured parallel copy lanes.
        let (mut split, mut lanes) = (Vec::new(), Vec::new());
        crate::plan::split_lanes(&runs, self.cfg.restore_lanes, &mut split, &mut lanes);
        let cost = kernel.cost.restore_lanes_cost(&lanes, self.cfg.coalesce);
        kernel.charge(cost);
        let (proc, frames) = kernel.mem_ctx(self.pid).map_err(GhError::from)?;
        let drained = proc.mem.drain_lazy(u64::MAX, frames);
        self.stats.lazy_drained_pages += drained;
        self.stats.lazy_drain_time += cost;
        self.harvest_lazy_drops(kernel);
        self.idle_since = Some(kernel.clock.now());
        Ok(drained)
    }

    /// The idle-time background drain: writes back as many pending pages
    /// as fit (at writeback rates) into the idle gap that just elapsed.
    /// The work consumed time the container was otherwise idle, so it is
    /// **not** charged to the clock — a request arriving now was never
    /// delayed by it; the drain merely converts dead time into fewer
    /// future first-touch faults.
    fn background_drain(&mut self, kernel: &mut Kernel) {
        if self.cfg.restore_mode != (RestoreMode::Lazy { drain: true }) {
            return;
        }
        let Some(since) = self.idle_since.take() else {
            return;
        };
        let budget = kernel.clock.now().saturating_sub(since);
        if budget.is_zero() {
            return;
        }
        let pending_runs: Vec<gh_mem::PageRange> = match kernel.process(self.pid) {
            Ok(p) => p.mem.lazy_pending_runs(),
            Err(_) => return,
        };
        if pending_runs.is_empty() {
            return;
        }
        // Greedy prefix in address order: the longest prefix of whole
        // pages whose cumulative cost — per the *same*
        // `restore_pages_cost` formula the eager writeback is priced
        // with — fits the elapsed idle gap. The formula is closed-form,
        // so re-evaluating it per page is cheap and keeps the drain
        // honest against any future change to the writeback model.
        let writeback = |pages: u64, runs: u64| {
            if self.cfg.coalesce {
                kernel.cost.restore_pages_cost(pages, runs)
            } else {
                kernel.cost.restore_pages_cost_uncoalesced(pages)
            }
        };
        let mut spent = Nanos::ZERO;
        let mut take = 0u64;
        let mut runs_taken = 0u64;
        'runs: for run in pending_runs {
            runs_taken += 1;
            for _ in run.iter() {
                let total = writeback(take + 1, runs_taken);
                if total > budget {
                    break 'runs;
                }
                spent = total;
                take += 1;
            }
        }
        if take == 0 {
            return;
        }
        let Ok((proc, frames)) = kernel.mem_ctx(self.pid) else {
            return;
        };
        let drained = proc.mem.drain_lazy(take, frames);
        self.stats.lazy_drained_pages += drained;
        self.stats.lazy_drain_time += spent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::{PageRange, Perms, RequestId, Taint, Touch, VmaKind, Vpn};
    use gh_proc::Kernel;

    struct Rig {
        kernel: Kernel,
        mgr: Manager,
        region: PageRange,
    }

    fn rig_cfg(cfg: GroundhogConfig) -> Rig {
        let mut kernel = Kernel::boot();
        let pid = kernel.spawn("f");
        let region = kernel
            .run_charged(pid, |p, frames| {
                let r = p.mem.mmap(16, Perms::RW, VmaKind::Anon).unwrap();
                for vpn in r.iter() {
                    p.mem
                        .touch(vpn, Touch::WriteWord(7), Taint::Clean, frames)
                        .unwrap();
                }
                r
            })
            .unwrap()
            .0;
        let mut mgr = Manager::new(pid, cfg);
        mgr.snapshot_now(&mut kernel).unwrap();
        Rig {
            kernel,
            mgr,
            region,
        }
    }

    fn rig() -> Rig {
        rig_cfg(GroundhogConfig::gh())
    }

    fn run_request(r: &mut Rig, principal: &str, req: u64) -> Admission {
        let adm = r.mgr.begin_request(&mut r.kernel, principal).unwrap();
        let region = r.region;
        r.kernel
            .run_charged(r.mgr.pid(), |p, frames| {
                p.mem
                    .touch(
                        Vpn(region.start.0 + (req % 16)),
                        Touch::WriteWord(0x1000 + req),
                        Taint::One(RequestId(req)),
                        frames,
                    )
                    .unwrap();
            })
            .unwrap();
        r.mgr.end_request(&mut r.kernel).unwrap();
        adm
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut r = rig();
        assert_eq!(r.mgr.state(), ManagerState::Ready);
        assert!(r.mgr.is_ready());
        let adm = run_request(&mut r, "alice", 1);
        assert_eq!(adm, Admission::Clean);
        assert_eq!(
            r.mgr.state(),
            ManagerState::Ready,
            "eager restore after request"
        );
        assert_eq!(r.mgr.stats.requests, 1);
        assert_eq!(r.mgr.stats.restores, 1);
        // No taint from request 1 survives.
        let proc = r.kernel.process(r.mgr.pid()).unwrap();
        assert!(proc
            .mem
            .tainted_pages(RequestId(1), r.kernel.frames())
            .is_empty());
    }

    #[test]
    fn snapshot_requires_initializing_state() {
        let mut r = rig();
        let err = r.mgr.snapshot_now(&mut r.kernel).unwrap_err();
        assert!(matches!(err, GhError::BadState { .. }));
    }

    #[test]
    fn begin_twice_is_rejected() {
        let mut r = rig();
        r.mgr.begin_request(&mut r.kernel, "alice").unwrap();
        let err = r.mgr.begin_request(&mut r.kernel, "bob").unwrap_err();
        assert!(matches!(err, GhError::BadState { .. }));
    }

    #[test]
    fn end_without_begin_is_rejected() {
        let mut r = rig();
        let err = r.mgr.end_request(&mut r.kernel).unwrap_err();
        assert!(matches!(err, GhError::BadState { .. }));
    }

    #[test]
    fn ghnop_never_restores() {
        let mut r = rig_cfg(GroundhogConfig::ghnop());
        for i in 0..3 {
            run_request(&mut r, "alice", i);
        }
        assert_eq!(r.mgr.stats.restores, 0);
        // Taint persists — GHNOP is not an isolation mode.
        let proc = r.kernel.process(r.mgr.pid()).unwrap();
        assert!(!proc
            .mem
            .tainted_pages(RequestId(0), r.kernel.frames())
            .is_empty());
    }

    #[test]
    fn skip_same_principal_defers_and_skips() {
        let cfg = GroundhogConfig {
            skip_same_principal: true,
            ..GroundhogConfig::gh()
        };
        let mut r = rig_cfg(cfg);
        let a1 = run_request(&mut r, "alice", 1);
        assert_eq!(a1, Admission::Clean);
        assert_eq!(
            r.mgr.state(),
            ManagerState::NeedsRestore,
            "restore deferred"
        );
        let a2 = run_request(&mut r, "alice", 2);
        assert_eq!(a2, Admission::SkippedSamePrincipal);
        assert_eq!(r.mgr.stats.skipped_restores, 1);
        assert_eq!(r.mgr.stats.restores, 0);
        // A different principal forces the rollback before admission.
        let a3 = run_request(&mut r, "bob", 3);
        assert_eq!(a3, Admission::RestoredFirst);
        assert_eq!(r.mgr.stats.restores, 1);
        // After the forced restore, nothing of alice's remains.
        let proc = r.kernel.process(r.mgr.pid()).unwrap();
        assert!(proc
            .mem
            .tainted_pages(RequestId(1), r.kernel.frames())
            .is_empty());
        assert!(proc
            .mem
            .tainted_pages(RequestId(2), r.kernel.frames())
            .is_empty());
    }

    #[test]
    fn restore_time_accumulates_off_critical_path() {
        let mut r = rig();
        run_request(&mut r, "a", 1);
        run_request(&mut r, "b", 2);
        assert_eq!(r.mgr.stats.restores, 2);
        assert!(r.mgr.stats.total_restore_time > Nanos::ZERO);
        let last = r.mgr.stats.last_restore.as_ref().unwrap();
        assert!(last.total > Nanos::ZERO);
    }

    #[test]
    fn pool_managers_share_one_snapshot_image() {
        let store = gh_mem::SnapshotStore::new_handle();
        let mut total_present = 0u64;
        for _ in 0..3 {
            let mut kernel = Kernel::boot();
            let pid = kernel.spawn("f");
            kernel
                .run_charged(pid, |p, frames| {
                    let r = p.mem.mmap(16, Perms::RW, VmaKind::Anon).unwrap();
                    for vpn in r.iter() {
                        p.mem
                            .touch(vpn, Touch::WriteWord(7), Taint::Clean, frames)
                            .unwrap();
                    }
                })
                .unwrap();
            let mut mgr = Manager::with_shared_store(
                pid,
                GroundhogConfig::gh(),
                Some(("f".to_string(), store.clone())),
            );
            let report = mgr.snapshot_now(&mut kernel).unwrap();
            total_present += report.present_pages;
            // Restores still work off the shared snapshot.
            mgr.begin_request(&mut kernel, "alice").unwrap();
            kernel
                .run_charged(pid, |p, frames| {
                    let vpn = p.mem.maps()[0].range.start;
                    let _ = p.mem.touch(vpn, Touch::Read, Taint::Clean, frames);
                })
                .unwrap();
            mgr.end_request(&mut kernel).unwrap();
        }
        let st = store.lock().unwrap();
        assert_eq!(st.stats().logical_pages, total_present);
        assert!(
            (st.live_frames() as u64) < total_present,
            "3 identical containers must dedup: {} unique of {} logical",
            st.live_frames(),
            total_present
        );
    }

    #[test]
    fn stats_snapshot_populated() {
        let r = rig();
        let snap = r.mgr.stats.snapshot.unwrap();
        assert!(snap.present_pages >= 16);
        assert!(snap.duration > Nanos::ZERO);
        assert!(r.mgr.snapshot().is_some());
    }
}
