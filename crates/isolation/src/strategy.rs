//! The strategy state machines.

use std::collections::BTreeMap;

use gh_functions::FunctionSpec;
use gh_mem::{FrameData, StoreHandle, Taint};
use gh_proc::{Kernel, Pid};
use gh_runtime::FunctionProcess;
use gh_sim::Nanos;
use groundhog_core::restore::RestoreReport;
use groundhog_core::{GhError, GroundhogConfig, Manager};

/// Which isolation configuration a container runs (§5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum StrategyKind {
    /// Insecure baseline: container + runtime state reused as-is.
    Base,
    /// Groundhog.
    Gh,
    /// Groundhog without restoration (same-trust optimization).
    GhNop,
    /// Fork-per-request copy-on-write isolation.
    Fork,
    /// WebAssembly (Faasm-style) heap remap isolation.
    Faasm,
    /// A fresh container per request (§2's trivial solution).
    Fresh,
}

impl StrategyKind {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Base => "base",
            StrategyKind::Gh => "GH",
            StrategyKind::GhNop => "GH-NOP",
            StrategyKind::Fork => "fork",
            StrategyKind::Faasm => "faasm",
            StrategyKind::Fresh => "fresh",
        }
    }

    /// True if sequential requests of different principals are isolated
    /// from each other under this strategy.
    pub fn provides_isolation(self) -> bool {
        matches!(
            self,
            StrategyKind::Gh | StrategyKind::Fork | StrategyKind::Faasm | StrategyKind::Fresh
        )
    }
}

/// Strategy-level failures.
#[derive(Debug)]
pub enum StrategyError {
    /// Groundhog engine error.
    Gh(GhError),
    /// Fork cannot isolate multi-threaded functions (§3.2).
    ForkNeedsSingleThread {
        /// Threads the runtime runs.
        threads: usize,
    },
    /// The function does not compile to WebAssembly (§5.3.3).
    NotWasmCompatible {
        /// Benchmark name.
        name: String,
    },
    /// Kernel/process failure.
    Proc(gh_proc::kernel::ProcError),
    /// A pool was asked for zero containers.
    EmptyPool,
}

impl From<GhError> for StrategyError {
    fn from(e: GhError) -> Self {
        StrategyError::Gh(e)
    }
}
impl From<gh_proc::kernel::ProcError> for StrategyError {
    fn from(e: gh_proc::kernel::ProcError) -> Self {
        StrategyError::Proc(e)
    }
}

impl core::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StrategyError::Gh(e) => write!(f, "groundhog: {e}"),
            StrategyError::ForkNeedsSingleThread { threads } => {
                write!(f, "fork isolation cannot snapshot {threads} threads")
            }
            StrategyError::NotWasmCompatible { name } => {
                write!(f, "{name} does not compile to WebAssembly")
            }
            StrategyError::Proc(e) => write!(f, "process: {e}"),
            StrategyError::EmptyPool => write!(f, "a pool needs at least one container"),
        }
    }
}
impl std::error::Error for StrategyError {}

/// Result of preparing a container (after init + dummy warm-up).
#[derive(Clone, Debug, Default)]
pub struct PrepareReport {
    /// One-time preparation time charged (snapshot cost for GH, heap
    /// checkpoint for Faasm).
    pub duration: Nanos,
    /// Pages captured, if a snapshot was taken.
    pub snapshot_pages: Option<u64>,
}

/// Where the request must execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunTarget {
    /// In the container's long-lived function process.
    Resident(Pid),
    /// In a fresh fork child (discarded afterwards).
    ForkChild(Pid),
}

impl RunTarget {
    /// The pid to execute in.
    pub fn pid(self) -> Pid {
        match self {
            RunTarget::Resident(p) | RunTarget::ForkChild(p) => p,
        }
    }
}

/// Result of concluding a request.
#[derive(Clone, Debug, Default)]
pub struct PostReport {
    /// Time the container stays busy *after* the response left
    /// (restoration / teardown / remap — §4's off-critical-path work).
    pub off_path: Nanos,
    /// Full Groundhog restore report, when one ran.
    pub restore: Option<RestoreReport>,
}

impl core::fmt::Debug for Strategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Strategy::{}", self.kind().label())
    }
}

/// A container's isolation state machine.
pub enum Strategy {
    /// Insecure reuse.
    Base,
    /// Groundhog (GH or GHNOP depending on config).
    Gh(Box<Manager>),
    /// Fork-per-request: holds the live child while one executes.
    Fork {
        /// Child currently serving a request.
        active_child: Option<Pid>,
    },
    /// Faasm-style: checkpoint of the wasm heap taken at prepare time.
    Faasm {
        /// Saved (vpn → contents) of the managed heap regions.
        heap: BTreeMap<u64, FrameData>,
        /// Saved execution context (the Faaslet's register state).
        regs: Vec<(gh_proc::Tid, gh_proc::RegisterSet)>,
        /// Compute-time multiplier (wasm vs native).
        compute_scale: f64,
    },
    /// Fresh container per request (the platform rebuilds; this just
    /// remembers the kind).
    Fresh,
}

impl Strategy {
    /// Builds the strategy for `kind`, validating function compatibility.
    pub fn create(
        kind: StrategyKind,
        kernel: &Kernel,
        fproc: &FunctionProcess,
        spec: &FunctionSpec,
        gh_cfg: GroundhogConfig,
    ) -> Result<Strategy, StrategyError> {
        Self::create_with_store(kind, kernel, fproc, spec, gh_cfg, None)
    }

    /// Builds the strategy with an optional pool-shared snapshot store.
    /// GH/GHNOP managers intern their clean-state pages into the store
    /// under the function's name so an entire container pool dedups to
    /// one base image plus per-container deltas; other strategies ignore
    /// the store.
    pub fn create_with_store(
        kind: StrategyKind,
        kernel: &Kernel,
        fproc: &FunctionProcess,
        spec: &FunctionSpec,
        gh_cfg: GroundhogConfig,
        store: Option<StoreHandle>,
    ) -> Result<Strategy, StrategyError> {
        let shared = store.map(|s| (spec.name.to_string(), s));
        match kind {
            StrategyKind::Base => Ok(Strategy::Base),
            StrategyKind::Gh => Ok(Strategy::Gh(Box::new(Manager::with_shared_store(
                fproc.pid, gh_cfg, shared,
            )))),
            StrategyKind::GhNop => {
                let cfg = GroundhogConfig {
                    restore_enabled: false,
                    ..gh_cfg
                };
                Ok(Strategy::Gh(Box::new(Manager::with_shared_store(
                    fproc.pid, cfg, shared,
                ))))
            }
            StrategyKind::Fork => {
                let threads = kernel.process(fproc.pid)?.thread_count();
                if threads != 1 {
                    return Err(StrategyError::ForkNeedsSingleThread { threads });
                }
                Ok(Strategy::Fork { active_child: None })
            }
            StrategyKind::Faasm => {
                let Some(faasm) = spec.faasm else {
                    return Err(StrategyError::NotWasmCompatible {
                        name: spec.name.into(),
                    });
                };
                let compute_scale = if spec.base_invoker_ms > 0.0 {
                    (faasm.invoker_ms / spec.base_invoker_ms).max(0.05)
                } else {
                    1.0
                };
                Ok(Strategy::Faasm {
                    heap: BTreeMap::new(),
                    regs: Vec::new(),
                    compute_scale,
                })
            }
            StrategyKind::Fresh => Ok(Strategy::Fresh),
        }
    }

    /// The kind of this strategy.
    pub fn kind(&self) -> StrategyKind {
        match self {
            Strategy::Base => StrategyKind::Base,
            Strategy::Gh(m) => {
                if m.config().restore_enabled {
                    StrategyKind::Gh
                } else {
                    StrategyKind::GhNop
                }
            }
            Strategy::Fork { .. } => StrategyKind::Fork,
            Strategy::Faasm { .. } => StrategyKind::Faasm,
            Strategy::Fresh => StrategyKind::Fresh,
        }
    }

    /// True when a request may be forwarded without violating isolation
    /// (§4.5): the strategy either has the process provably clean or
    /// will roll it back during admission (§4.4's deferred mode).
    /// Non-Groundhog strategies have no restore gate and are always
    /// admissible; GH delegates to [`Manager::is_ready`], making
    /// restore completion a first-class readiness signal the fleet
    /// scheduler can route on. [`Strategy::admits_without_restore`]
    /// asks the stronger per-principal "clean right now" question.
    pub fn is_ready(&self) -> bool {
        match self {
            Strategy::Gh(mgr) => mgr.is_ready(),
            _ => true,
        }
    }

    /// True when admitting `principal` now puts no restore on the
    /// request's critical path (always for non-GH strategies; for GH,
    /// the process is clean or §4.4's same-principal skip applies).
    pub fn admits_without_restore(&self, principal: &str) -> bool {
        match self {
            Strategy::Gh(mgr) => mgr.admits_without_restore(principal),
            _ => true,
        }
    }

    /// Pages still awaiting on-demand restoration in the function
    /// process (GH under [`RestoreMode::Lazy`](groundhog_core::RestoreMode);
    /// zero for every other strategy or restore mode). Their stale
    /// frames are unobservable — any access faults the snapshot
    /// contents in first — but platforms that checkpoint or migrate
    /// containers drain them first.
    pub fn lazy_pending(&self, kernel: &Kernel) -> u64 {
        match self {
            Strategy::Gh(mgr) => mgr.lazy_pending(kernel),
            _ => 0,
        }
    }

    /// Forces the writeback of every still-pending lazily-restored page,
    /// charging the full writeback cost; no-op for other strategies.
    /// Returns the number of pages drained.
    pub fn drain_lazy_now(&mut self, kernel: &mut Kernel) -> Result<u64, StrategyError> {
        match self {
            Strategy::Gh(mgr) => Ok(mgr.drain_now(kernel)?),
            _ => Ok(0),
        }
    }

    /// Multiplier on the function's compute time (wasm vs native,
    /// §5.3.3); 1.0 for process-based strategies.
    pub fn compute_scale(&self) -> f64 {
        match self {
            Strategy::Faasm { compute_scale, .. } => *compute_scale,
            _ => 1.0,
        }
    }

    /// Prepares the container after initialization + dummy warm-up:
    /// GH takes its snapshot (§4.2); Faasm checkpoints the heap.
    pub fn prepare(
        &mut self,
        kernel: &mut Kernel,
        fproc: &FunctionProcess,
    ) -> Result<PrepareReport, StrategyError> {
        match self {
            Strategy::Gh(mgr) => {
                let report = mgr.snapshot_now(kernel)?;
                Ok(PrepareReport {
                    duration: report.duration,
                    snapshot_pages: Some(report.present_pages),
                })
            }
            Strategy::Faasm { heap, regs, .. } => {
                let t0 = kernel.clock.now();
                let (proc, frames) = kernel.mem_ctx(fproc.pid)?;
                *regs = proc
                    .threads
                    .iter()
                    .map(|t| (t.tid, t.regs.clone()))
                    .collect();
                let mut saved = BTreeMap::new();
                for r in fproc.regions().dirtyable() {
                    for vpn in r.iter() {
                        if let Some(pte) = proc.mem.pte(vpn) {
                            saved.insert(vpn.0, frames.data(pte.frame).clone());
                        }
                    }
                }
                proc.mem.clear_soft_dirty();
                let pages = saved.len() as u64;
                *heap = saved;
                // Checkpointing the contiguous wasm heap is a remap, far
                // cheaper than a page-walk snapshot.
                let cost =
                    kernel.cost.faasm_remap_base + kernel.cost.snapshot_per_mapped_page * pages;
                kernel.charge(cost);
                Ok(PrepareReport {
                    duration: kernel.clock.now() - t0,
                    snapshot_pages: Some(pages),
                })
            }
            _ => Ok(PrepareReport::default()),
        }
    }

    /// Admits a request, returning where it must run. For FORK this is
    /// where the per-request `fork` happens — on the critical path.
    pub fn admit(
        &mut self,
        kernel: &mut Kernel,
        fproc: &FunctionProcess,
        principal: &str,
    ) -> Result<RunTarget, StrategyError> {
        match self {
            Strategy::Base | Strategy::Fresh | Strategy::Faasm { .. } => {
                Ok(RunTarget::Resident(fproc.pid))
            }
            Strategy::Gh(mgr) => {
                mgr.begin_request(kernel, principal)?;
                Ok(RunTarget::Resident(fproc.pid))
            }
            Strategy::Fork { active_child } => {
                assert!(active_child.is_none(), "one request at a time");
                let child = kernel.fork(fproc.pid)?;
                *active_child = Some(child);
                Ok(RunTarget::ForkChild(child))
            }
        }
    }

    /// Concludes a request after the response has been forwarded: the
    /// off-critical-path cleanup (GH restore, fork teardown, Faasm remap).
    pub fn conclude(
        &mut self,
        kernel: &mut Kernel,
        fproc: &FunctionProcess,
    ) -> Result<PostReport, StrategyError> {
        match self {
            Strategy::Base | Strategy::Fresh => Ok(PostReport::default()),
            Strategy::Gh(mgr) => {
                let t0 = kernel.clock.now();
                let restore = mgr.end_request(kernel)?;
                // §5.3.1's proposed fix: virtualize time so the restored
                // process does not observe the clock rewind (prevents
                // re-triggering time-driven GC).
                if restore.is_some() && mgr.config().virtualize_time {
                    fproc.rebase_gc_clock(kernel);
                }
                Ok(PostReport {
                    off_path: kernel.clock.now() - t0,
                    restore,
                })
            }
            Strategy::Fork { active_child } => {
                let t0 = kernel.clock.now();
                if let Some(child) = active_child.take() {
                    kernel.exit(child)?;
                }
                Ok(PostReport {
                    off_path: kernel.clock.now() - t0,
                    restore: None,
                })
            }
            Strategy::Faasm { heap, regs, .. } => {
                // CoW remap of the contiguous wasm region: all dirty pages
                // revert; cost is the remap, not a per-page copy walk. The
                // Faaslet's execution context (registers) resets with it.
                let t0 = kernel.clock.now();
                let (proc, frames) = kernel.mem_ctx(fproc.pid)?;
                for (tid, saved_regs) in regs.iter() {
                    if let Some(t) = proc.thread_mut(*tid) {
                        t.regs.load(saved_regs);
                    }
                }
                let dirty = proc.mem.soft_dirty_pages();
                let mut reverted = 0u64;
                for vpn in &dirty {
                    match heap.get(&vpn.0) {
                        Some(data) => {
                            proc.mem
                                .restore_page(*vpn, data, Taint::Clean, frames)
                                .map_err(|_| {
                                    StrategyError::Proc(gh_proc::kernel::ProcError::NoSuchProcess(
                                        fproc.pid,
                                    ))
                                })?;
                            reverted += 1;
                        }
                        None => {
                            proc.mem.evict_page(*vpn, frames);
                            reverted += 1;
                        }
                    }
                }
                proc.mem.clear_soft_dirty();
                let cost = kernel.cost.faasm_reset_cost(reverted);
                kernel.charge(cost);
                Ok(PostReport {
                    off_path: kernel.clock.now() - t0,
                    restore: None,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_functions::behavior::{Executor, RequestCtx};
    use gh_functions::catalog::by_name;
    use gh_mem::RequestId;
    use gh_runtime::RuntimeProfile;

    fn build(name: &str) -> (Kernel, FunctionProcess, FunctionSpec) {
        let spec = by_name(name).unwrap();
        let mut kernel = Kernel::boot();
        let fproc = FunctionProcess::build(
            &mut kernel,
            spec.name,
            RuntimeProfile::for_kind(spec.runtime),
            spec.total_pages(),
        );
        (kernel, fproc, spec)
    }

    fn full_cycle(
        kind: StrategyKind,
        name: &str,
        requests: u64,
    ) -> (Kernel, FunctionProcess, Strategy) {
        let (mut kernel, mut fproc, spec) = build(name);
        // Dummy warm-up (§4.1), then prepare.
        Executor::invoke(&mut kernel, &mut fproc, &spec, &RequestCtx::dummy(0));
        let mut strat =
            Strategy::create(kind, &kernel, &fproc, &spec, GroundhogConfig::gh()).unwrap();
        strat.prepare(&mut kernel, &fproc).unwrap();
        for i in 1..=requests {
            let target = strat.admit(&mut kernel, &fproc, "alice").unwrap();
            let mut view = fproc.with_pid(target.pid());
            let req = RequestCtx::new(i, "alice", i);
            Executor::invoke(&mut kernel, &mut view, &spec, &req);
            strat.conclude(&mut kernel, &fproc).unwrap();
        }
        (kernel, fproc, strat)
    }

    #[test]
    fn labels_and_isolation_flags() {
        assert_eq!(StrategyKind::Gh.label(), "GH");
        assert_eq!(StrategyKind::GhNop.label(), "GH-NOP");
        assert!(StrategyKind::Gh.provides_isolation());
        assert!(!StrategyKind::Base.provides_isolation());
        assert!(!StrategyKind::GhNop.provides_isolation());
        assert!(StrategyKind::Fork.provides_isolation());
    }

    #[test]
    fn gh_cycle_removes_taint() {
        let (kernel, fproc, strat) = full_cycle(StrategyKind::Gh, "telco (p)", 3);
        assert_eq!(strat.kind(), StrategyKind::Gh);
        let proc = kernel.process(fproc.pid).unwrap();
        for i in 1..=3 {
            assert!(
                proc.mem
                    .tainted_pages(RequestId(i), kernel.frames())
                    .is_empty(),
                "request {i} leaked"
            );
        }
    }

    #[test]
    fn base_cycle_retains_taint() {
        let (kernel, fproc, _) = full_cycle(StrategyKind::Base, "telco (p)", 2);
        let proc = kernel.process(fproc.pid).unwrap();
        assert!(!proc
            .mem
            .tainted_pages(RequestId(2), kernel.frames())
            .is_empty());
    }

    #[test]
    fn ghnop_retains_taint_but_tracks() {
        let (kernel, fproc, strat) = full_cycle(StrategyKind::GhNop, "telco (p)", 2);
        assert_eq!(strat.kind(), StrategyKind::GhNop);
        let proc = kernel.process(fproc.pid).unwrap();
        assert!(!proc
            .mem
            .tainted_pages(RequestId(1), kernel.frames())
            .is_empty());
    }

    #[test]
    fn fork_cycle_keeps_parent_clean() {
        let (kernel, fproc, _) = full_cycle(StrategyKind::Fork, "atax (c)", 3);
        let proc = kernel.process(fproc.pid).unwrap();
        for i in 1..=3 {
            assert!(
                proc.mem
                    .tainted_pages(RequestId(i), kernel.frames())
                    .is_empty(),
                "fork parent dirtied by request {i}"
            );
        }
        // Children were all reaped.
        assert_eq!(kernel.process_count(), 1);
    }

    #[test]
    #[should_panic(expected = "one request at a time")]
    fn fork_admits_one_request_at_a_time_in_every_build() {
        // A second admit before `conclude` would overwrite the live child
        // and leak it, so it panics in release builds too.
        let (mut kernel, fproc, mut strat) = full_cycle(StrategyKind::Fork, "atax (c)", 0);
        strat.admit(&mut kernel, &fproc, "alice").unwrap();
        let _ = strat.admit(&mut kernel, &fproc, "bob");
    }

    #[test]
    fn fork_rejects_multithreaded_runtimes() {
        let (kernel, fproc, spec) = build("json (n)");
        let err = Strategy::create(
            StrategyKind::Fork,
            &kernel,
            &fproc,
            &spec,
            GroundhogConfig::gh(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            StrategyError::ForkNeedsSingleThread { threads: 7 }
        ));
    }

    #[test]
    fn faasm_requires_wasm_compatibility() {
        let (kernel, fproc, spec) = build("json (n)");
        let err = Strategy::create(
            StrategyKind::Faasm,
            &kernel,
            &fproc,
            &spec,
            GroundhogConfig::gh(),
        )
        .unwrap_err();
        assert!(matches!(err, StrategyError::NotWasmCompatible { .. }));
    }

    #[test]
    fn faasm_cycle_reverts_heap_and_scales_compute() {
        let (kernel, fproc, strat) = full_cycle(StrategyKind::Faasm, "pyaes (p)", 2);
        // pyaes under wasm is ~1.8x slower (Table 1: 8559 vs 4672).
        assert!(strat.compute_scale() > 1.5);
        let proc = kernel.process(fproc.pid).unwrap();
        assert!(proc
            .mem
            .tainted_pages(RequestId(1), kernel.frames())
            .is_empty());
        assert!(proc
            .mem
            .tainted_pages(RequestId(2), kernel.frames())
            .is_empty());
    }

    #[test]
    fn faasm_is_faster_than_native_on_polybench() {
        let (kernel, fproc, spec) = build("atax (c)");
        let strat = Strategy::create(
            StrategyKind::Faasm,
            &kernel,
            &fproc,
            &spec,
            GroundhogConfig::gh(),
        )
        .unwrap();
        assert!(
            strat.compute_scale() < 1.0,
            "wasm beats native on PolyBench (§5.3.3)"
        );
    }

    #[test]
    fn gh_lazy_cycle_defers_then_drains_clean() {
        let (mut kernel, mut fproc, spec) = build("telco (p)");
        Executor::invoke(&mut kernel, &mut fproc, &spec, &RequestCtx::dummy(0));
        let mut strat = Strategy::create(
            StrategyKind::Gh,
            &kernel,
            &fproc,
            &spec,
            GroundhogConfig::lazy(),
        )
        .unwrap();
        strat.prepare(&mut kernel, &fproc).unwrap();
        strat.admit(&mut kernel, &fproc, "alice").unwrap();
        Executor::invoke(
            &mut kernel,
            &mut fproc,
            &spec,
            &RequestCtx::new(1, "alice", 1),
        );
        let post = strat.conclude(&mut kernel, &fproc).unwrap();
        let report = post.restore.expect("lazy GH still restores");
        assert!(report.pages_deferred > 0);
        assert_eq!(report.pages_restored, 0);
        assert!(strat.lazy_pending(&kernel) > 0);
        // Draining clears the pending set — and with it the last
        // (unobservable) traces of alice's request.
        let drained = strat.drain_lazy_now(&mut kernel).unwrap();
        assert_eq!(drained, report.pages_deferred);
        assert_eq!(strat.lazy_pending(&kernel), 0);
        let proc = kernel.process(fproc.pid).unwrap();
        assert!(proc
            .mem
            .tainted_pages(RequestId(1), kernel.frames())
            .is_empty());
        // Non-GH strategies report no pending pages.
        let base = Strategy::Base;
        assert_eq!(base.lazy_pending(&kernel), 0);
    }

    #[test]
    fn gh_strategies_share_a_pool_store() {
        let store = gh_mem::SnapshotStore::new_handle();
        let mut per_container = 0u64;
        for _ in 0..2 {
            let (mut kernel, mut fproc, spec) = build("telco (p)");
            Executor::invoke(&mut kernel, &mut fproc, &spec, &RequestCtx::dummy(0));
            let mut strat = Strategy::create_with_store(
                StrategyKind::Gh,
                &kernel,
                &fproc,
                &spec,
                GroundhogConfig::gh(),
                Some(store.clone()),
            )
            .unwrap();
            let prep = strat.prepare(&mut kernel, &fproc).unwrap();
            per_container = prep.snapshot_pages.unwrap();
        }
        let st = store.lock().unwrap();
        assert_eq!(st.stats().logical_pages, per_container * 2);
        assert!(
            st.dedup_ratio() > 1.9,
            "identical containers dedup fully, got {:.2}",
            st.dedup_ratio()
        );
    }

    #[test]
    fn gh_off_path_work_reported() {
        let (mut kernel, mut fproc, spec) = build("float (p)");
        Executor::invoke(&mut kernel, &mut fproc, &spec, &RequestCtx::dummy(0));
        let mut strat = Strategy::create(
            StrategyKind::Gh,
            &kernel,
            &fproc,
            &spec,
            GroundhogConfig::gh(),
        )
        .unwrap();
        let prep = strat.prepare(&mut kernel, &fproc).unwrap();
        assert!(prep.duration > Nanos::ZERO);
        assert!(prep.snapshot_pages.unwrap() > 0);
        strat.admit(&mut kernel, &fproc, "a").unwrap();
        Executor::invoke(&mut kernel, &mut fproc, &spec, &RequestCtx::new(1, "a", 1));
        let post = strat.conclude(&mut kernel, &fproc).unwrap();
        assert!(
            post.off_path > Nanos::ZERO,
            "restore happens off the critical path"
        );
        assert!(post.restore.is_some());
    }

    #[test]
    fn base_has_no_off_path_work() {
        let (mut kernel, mut fproc, spec) = build("float (p)");
        Executor::invoke(&mut kernel, &mut fproc, &spec, &RequestCtx::dummy(0));
        let mut strat = Strategy::create(
            StrategyKind::Base,
            &kernel,
            &fproc,
            &spec,
            GroundhogConfig::gh(),
        )
        .unwrap();
        strat.prepare(&mut kernel, &fproc).unwrap();
        strat.admit(&mut kernel, &fproc, "a").unwrap();
        Executor::invoke(&mut kernel, &mut fproc, &spec, &RequestCtx::new(1, "a", 1));
        let post = strat.conclude(&mut kernel, &fproc).unwrap();
        assert_eq!(post.off_path, Nanos::ZERO);
    }
}
