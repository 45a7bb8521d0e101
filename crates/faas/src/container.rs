//! One function container on one invoker core.
//!
//! Drives the Fig. 1 life cycle and the per-request sequence:
//! interposition → admission (buffering until clean, §4.5) → execution →
//! response → off-critical-path cleanup (restore / teardown / remap).

use gh_functions::behavior::{ExecReport, Executor, RequestCtx};
use gh_functions::FunctionSpec;
use gh_isolation::{PostReport, PrepareReport, Strategy, StrategyError, StrategyKind};
use gh_proc::Kernel;
use gh_runtime::{FunctionProcess, RuntimeProfile};
use gh_sim::{DetRng, Nanos};
use groundhog_core::GroundhogConfig;

use crate::proxy;
use crate::request::{Request, Response};

/// Environment-instantiation time (Fig. 1: "100s of ms").
const ENV_INSTANTIATION: Nanos = Nanos::from_millis(300);

/// The outcome of one invocation, as measured at the invoker.
#[derive(Clone, Debug)]
pub struct InvokeOutcome {
    /// The response sent back to the platform.
    pub response: Response,
    /// Invoker-measured latency: arrival at the container to response
    /// (§5.3: "only the function execution time at the invoker").
    pub invoker_latency: Nanos,
    /// Off-critical-path work after the response (restore/teardown).
    pub off_path: Nanos,
    /// Virtual time at which the container is provably clean again and
    /// may admit the next request (`response.completed_at + off_path`) —
    /// the restore-completion readiness event a fleet scheduler routes on.
    pub ready_at: Nanos,
    /// Execution detail.
    pub exec: ExecReport,
}

/// Per-container lifetime statistics.
#[derive(Clone, Debug, Default)]
pub struct ContainerStats {
    /// Requests served.
    pub requests: u64,
    /// Total cold-start time (environment + runtime + data init).
    pub init_time: Nanos,
    /// Strategy preparation (snapshot) report.
    pub prepare: Option<PrepareReport>,
    /// Most recent post-request report.
    pub last_post: Option<PostReport>,
}

/// A warm function container bound to one core.
pub struct Container {
    /// The machine (one per core; containers do not share kernels, just
    /// as the paper pins containers to cores).
    pub kernel: Kernel,
    /// The function image.
    pub fproc: FunctionProcess,
    /// The deployed function.
    pub spec: FunctionSpec,
    /// Isolation strategy state.
    pub strategy: Strategy,
    /// Measurement noise source.
    rng: DetRng,
    /// Lifetime stats.
    pub stats: ContainerStats,
    next_seq: u64,
}

impl Container {
    /// Cold-starts a container: environment instantiation, runtime
    /// initialization, data initialization via the deployer's dummy
    /// request (§4.1), and strategy preparation (GH snapshot).
    pub fn cold_start(
        spec: &FunctionSpec,
        kind: StrategyKind,
        gh_cfg: GroundhogConfig,
        seed: u64,
    ) -> Result<Container, StrategyError> {
        Self::cold_start_pooled(spec, kind, gh_cfg, seed, None)
    }

    /// Like [`Container::cold_start`], but the clean-state snapshot is
    /// interned into a pool-shared [`SnapshotStore`](gh_mem::SnapshotStore)
    /// (`store`; `None` keeps the snapshot private). Interning charges
    /// exactly the eager snapshot cost, so the container's timeline is
    /// independent of the store — dedup is a pool-memory optimization
    /// only. The snapshot takes the store's lock for its intern alone.
    pub fn cold_start_pooled(
        spec: &FunctionSpec,
        kind: StrategyKind,
        gh_cfg: GroundhogConfig,
        seed: u64,
        store: Option<gh_mem::StoreHandle>,
    ) -> Result<Container, StrategyError> {
        let mut kernel = Kernel::boot();
        let mut rng = DetRng::new(seed);
        let t0 = kernel.clock.now();

        // Fig. 1 phase 1: environment instantiation.
        kernel.charge(ENV_INSTANTIATION.scale(rng.lognormal_factor(0.15)));

        // Fig. 1 phase 2: runtime initialization.
        let mut fproc = FunctionProcess::build(
            &mut kernel,
            spec.name,
            RuntimeProfile::for_kind(spec.runtime),
            spec.total_pages(),
        );

        // Fig. 1 phase 3: data initialization — the dummy request triggers
        // lazy paging / class loading so the snapshot captures it.
        Executor::invoke(&mut kernel, &mut fproc, spec, &RequestCtx::dummy(0));

        // Strategy preparation (snapshot for GH/GHNOP, heap checkpoint for
        // Faasm).
        let mut strategy = Strategy::create_with_store(kind, &kernel, &fproc, spec, gh_cfg, store)?;
        let prepare = strategy.prepare(&mut kernel, &fproc)?;

        let init_time = kernel.clock.now() - t0;
        Ok(Container {
            kernel,
            fproc,
            spec: spec.clone(),
            strategy,
            rng,
            stats: ContainerStats {
                requests: 0,
                init_time,
                prepare: Some(prepare),
                last_post: None,
            },
            next_seq: 1,
        })
    }

    /// The strategy kind this container runs.
    pub fn kind(&self) -> StrategyKind {
        self.strategy.kind()
    }

    /// Serves one request at the invoker. The caller (client model) is
    /// responsible for pacing; the container is synchronous and serves
    /// one request at a time (§3.1, one-at-a-time execution).
    pub fn invoke(&mut self, req: &Request) -> Result<InvokeOutcome, StrategyError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t_arrival = self.kernel.clock.now();

        // Interposition: the manager proxies the payload in (and the
        // response out); charged on the critical path.
        let payload = req.input_kb + self.spec.output_kb;
        let proxy_cost =
            proxy::interposition_cost(&self.kernel.cost, self.kind(), self.spec.runtime, payload);
        self.kernel.charge(proxy_cost);

        // Admission (buffers until clean; forks for FORK).
        let target = self
            .strategy
            .admit(&mut self.kernel, &self.fproc, &req.principal)?;

        // Execute with the strategy's compute scaling (wasm vs native).
        let scale = self.strategy.compute_scale();
        let ctx = RequestCtx::new(req.id, &req.principal, seq);
        let exec = if target.pid() == self.fproc.pid {
            // In-place execution (everything but FORK): run against the
            // persistent image so the cached write plans and the batch
            // scratch survive across invocations — no per-request
            // region/plan clone.
            self.fproc.invocations = seq;
            Self::invoke_scaled(&mut self.kernel, &mut self.fproc, &self.spec, &ctx, scale)
        } else {
            // FORK isolation: the request runs in a CoW child, so bind a
            // view of the image to the child's pid.
            let mut view = self.fproc.with_pid(target.pid());
            view.invocations = seq;
            let exec = Self::invoke_scaled(&mut self.kernel, &mut view, &self.spec, &ctx, scale);
            self.fproc.invocations = view.invocations;
            exec
        };

        // Small invoker-side jitter (scheduling, pipes).
        let jitter = Nanos::from_micros(300).scale(self.rng.lognormal_factor(0.8));
        self.kernel.charge(jitter);

        // Response leaves the container now.
        let t_response = self.kernel.clock.now();
        let response = Response {
            request_id: req.id,
            ok: true,
            output_kb: self.spec.output_kb,
            completed_at: t_response,
        };

        // Off the critical path: rollback / teardown / remap.
        let post = self.strategy.conclude(&mut self.kernel, &self.fproc)?;
        self.stats.requests += 1;
        self.stats.last_post = Some(post.clone());

        Ok(InvokeOutcome {
            response,
            invoker_latency: t_response - t_arrival,
            off_path: post.off_path,
            ready_at: self.kernel.clock.now(),
            exec,
        })
    }

    /// True when the container may admit the next request without
    /// violating isolation (§4.5's gate, surfaced for fleet routing).
    /// Note: in §4.4's deferred-restore mode this includes the
    /// `NeedsRestore` state, where the process still holds the previous
    /// principal's data — admission is safe because the manager rolls
    /// back (or skips, same principal) *before* the request reaches the
    /// process. Use [`Container::admits_without_restore`] to ask the
    /// stronger question "is it clean for this principal right now".
    pub fn is_ready(&self) -> bool {
        self.strategy.is_ready()
    }

    /// True when admitting `principal` now would not charge a restore to
    /// the request's critical path (surfaced for restore-aware routing).
    pub fn admits_without_restore(&self, principal: &str) -> bool {
        self.strategy.admits_without_restore(principal)
    }

    /// Executes with the compute lump scaled (Faasm's wasm slowdown /
    /// speedup). The scaling applies to the intrinsic compute time, not
    /// to fault costs.
    fn invoke_scaled(
        kernel: &mut Kernel,
        view: &mut FunctionProcess,
        spec: &FunctionSpec,
        ctx: &RequestCtx,
        scale: f64,
    ) -> ExecReport {
        if (scale - 1.0).abs() < 1e-9 {
            return Executor::invoke(kernel, view, spec, ctx);
        }
        // Scale the benchmark's intrinsic latency for wasm execution.
        let mut scaled = spec.clone();
        scaled.base_invoker_ms = spec.base_invoker_ms * scale;
        Executor::invoke(kernel, view, &scaled, ctx)
    }

    /// Virtual time on this container's core.
    pub fn now(&self) -> Nanos {
        self.kernel.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_functions::catalog::by_name;
    use gh_mem::RequestId;

    fn start(name: &str, kind: StrategyKind) -> Container {
        let spec = by_name(name).unwrap();
        Container::cold_start(&spec, kind, GroundhogConfig::gh(), 42).unwrap()
    }

    #[test]
    fn time_virtualization_leaves_the_snapshot_untouched() {
        // The first request of an eager-snapshot container does not
        // write the runtime-state page, so its frame is still shared
        // with the snapshot when the post-restore clock rebase writes
        // it: the rebase must land in the process only.
        let spec = by_name("atax (c)").unwrap();
        let cfg = GroundhogConfig {
            virtualize_time: true,
            ..GroundhogConfig::gh()
        };
        let mut c = Container::cold_start(&spec, StrategyKind::Gh, cfg, 42).unwrap();
        let state = c.fproc.regions().state_page();
        let saved = |c: &Container| match &c.strategy {
            Strategy::Gh(m) => m
                .snapshot()
                .expect("snapshot taken")
                .page_data(state, c.kernel.frames())
                .expect("state page captured"),
            _ => unreachable!("GH strategy"),
        };
        let before = saved(&c);
        c.invoke(&Request::new(1, "alice", spec.input_kb)).unwrap();
        assert!(
            saved(&c).logical_eq(&before),
            "the clock rebase rewrote the snapshot's state page"
        );
        assert_eq!(
            c.fproc.gc_clock(&c.kernel),
            c.kernel.clock.now(),
            "the process clock is rebased to the post-restore time"
        );
    }

    #[test]
    fn cold_start_runs_fig1_phases() {
        let c = start("float (p)", StrategyKind::Gh);
        // Environment (~300ms) + runtime init (~350ms) + dummy + snapshot.
        assert!(c.stats.init_time > Nanos::from_millis(500));
        let prep = c.stats.prepare.as_ref().unwrap();
        assert!(prep.snapshot_pages.unwrap() > 0);
    }

    #[test]
    fn invoke_measures_invoker_latency() {
        let mut c = start("float (p)", StrategyKind::Base);
        let out = c.invoke(&Request::new(1, "alice", 1)).unwrap();
        assert!(out.response.ok);
        let ms = out.invoker_latency.as_millis_f64();
        assert!(
            (20.0..45.0).contains(&ms),
            "float(p) baseline invoker ≈ 27ms, got {ms:.1}"
        );
        assert_eq!(out.off_path, Nanos::ZERO);
    }

    #[test]
    fn gh_has_off_path_restore() {
        let mut c = start("float (p)", StrategyKind::Gh);
        let out = c.invoke(&Request::new(1, "alice", 1)).unwrap();
        assert!(out.off_path > Nanos::ZERO);
        // And the process is clean afterwards.
        let proc = c.kernel.process(c.fproc.pid).unwrap();
        assert!(proc
            .mem
            .tainted_pages(RequestId(1), c.kernel.frames())
            .is_empty());
    }

    #[test]
    fn sequential_requests_are_isolated_under_gh() {
        let mut c = start("telco (p)", StrategyKind::Gh);
        for i in 1..=4 {
            c.invoke(&Request::new(
                i,
                if i % 2 == 0 { "bob" } else { "alice" },
                1,
            ))
            .unwrap();
        }
        let proc = c.kernel.process(c.fproc.pid).unwrap();
        for i in 1..=4 {
            assert!(proc
                .mem
                .tainted_pages(RequestId(i), c.kernel.frames())
                .is_empty());
        }
        assert_eq!(c.stats.requests, 4);
    }

    #[test]
    fn base_is_faster_but_dirty() {
        let mut base = start("telco (p)", StrategyKind::Base);
        let mut gh = start("telco (p)", StrategyKind::Gh);
        let b = base.invoke(&Request::new(1, "alice", 1)).unwrap();
        let g = gh.invoke(&Request::new(1, "alice", 1)).unwrap();
        assert!(
            g.invoker_latency >= b.invoker_latency,
            "GH pays tracking + proxy"
        );
        let proc = base.kernel.process(base.fproc.pid).unwrap();
        assert!(!proc
            .mem
            .tainted_pages(RequestId(1), base.kernel.frames())
            .is_empty());
    }

    #[test]
    fn fork_supported_for_c_only() {
        let mut c = start("atax (c)", StrategyKind::Fork);
        let out = c.invoke(&Request::new(1, "a", 1)).unwrap();
        assert!(out.response.ok);
        assert!(out.off_path > Nanos::ZERO, "child teardown is off-path");
        let spec = by_name("get-time (n)").unwrap();
        assert!(
            Container::cold_start(&spec, StrategyKind::Fork, GroundhogConfig::gh(), 1).is_err()
        );
    }

    #[test]
    fn faasm_scales_compute() {
        let mut f = start("pyaes (p)", StrategyKind::Faasm);
        let out = f.invoke(&Request::new(1, "a", 1)).unwrap();
        let ms = out.invoker_latency.as_millis_f64();
        // Table 1: pyaes faasm invoker ≈ 8559ms vs base 4672ms.
        assert!(
            ms > 7000.0,
            "wasm pyaes should be ~1.8x native, got {ms:.0}ms"
        );
    }
}
