//! The fleet scheduler: an event-driven pool of containers behind a
//! router.
//!
//! §4's claim — "Groundhog restores state *between* activations … and
//! therefore does not contribute to a function's activation latency
//! under low to medium server load" — is a statement about a *fleet*,
//! not a single container: once one container is restoring, the pool
//! still has clean capacity, so a scheduler that knows when restores
//! complete can keep them off every request's critical path even near
//! saturation (the §5.3 throughput and §5.3.4 core-scaling settings).
//!
//! This module drives N containers, each on its own virtual timeline,
//! through one global [`gh_sim::event::EventQueue`]:
//!
//! - [`pool::Pool`] / [`pool::Slot`] — containers plus scheduling state
//!   (admission queue, response/readiness times, restore-overlap
//!   accounting);
//! - [`router::Router`] — Poisson arrivals are assigned per-container by
//!   a pluggable [`router::RoutePolicy`] (round-robin, least-loaded, and
//!   the Groundhog-specific restore-aware policy that routes on the
//!   containers' readiness events);
//! - [`queue::AdmissionQueue`] — requests buffered until the container
//!   is provably clean (§4.5), with queue-depth percentile tracking;
//! - [`autoscaler::Autoscaler`] — optional queue-depth-driven growth and
//!   idle retirement;
//! - `backend` — the dispatch kernel and its event loop over one pool,
//!   the only loop that admits, attempts and releases requests. A fleet
//!   run and a [`crate::gateway`] run share one body around that loop
//!   (`Fleet::drive`), and every [`crate::cluster`] node runs it once
//!   per pool. So admission, the gateway's policies, crash, recovery,
//!   park, backoff, retry, abandon, restore failure and the end of a
//!   run are defined once. A fault-free run is the same loop with no
//!   fault plan, and a fleet run the gateway's with every policy off.
//!
//! A pool of one with the round-robin policy reproduces the single
//! container open-loop semantics exactly: it is §4's limit harness,
//! where requests arrive whether or not the container is ready and
//! queue behind both execution *and* restoration (the `loadsweep`
//! bench; `tests/fleet_scheduling.rs` pins it against a hand-rolled
//! single-container loop).
//!
//! # Host threads
//!
//! A fleet run is the kernel's one loop on the caller's thread, whatever
//! its [`ExecMode`], so every request executes in the kernel's event
//! order.
//! Host parallelism spreads independent runs instead: sweep cells and
//! cluster nodes, through `gh_sim::par::ordered_map`. A one-node
//! cluster fed a round-robin fleet's arrivals runs the same loop and
//! gives the same result bit for bit
//! (`cluster::tests::a_one_node_cluster_is_the_round_robin_fleet`).

pub mod autoscaler;
pub(crate) mod backend;
pub(crate) mod par;
pub mod pool;
pub mod queue;
pub mod router;

use gh_functions::FunctionSpec;
use gh_gateway::cache::mix;
use gh_gateway::GatewayConfig;
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::stats::throughput_rps;
use gh_sim::{DetRng, Nanos, QuantileSketch};
use groundhog_core::GroundhogConfig;

use crate::fault::{FaultConfig, FaultPlan, FaultStats};
use crate::gateway::Gate;
use crate::trace::Diurnal;
use backend::{Backend, Event, Tally};

pub use autoscaler::{AutoscaleConfig, Autoscaler, ScaleAction};
pub use par::ExecMode;
pub use pool::{Dispatched, Pool, PoolMemory, Slot};
pub use queue::{AdmissionQueue, DepthTracker, Pending};
pub use router::{RoutePolicy, Router};

/// Fleet-run configuration (the pool itself carries function, strategy
/// and size).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Routing policy.
    pub policy: RoutePolicy,
    /// Offered Poisson arrival rate, requests/second.
    pub offered_rps: f64,
    /// Seed of the arrival process (containers seed separately, at pool
    /// construction).
    pub seed: u64,
    /// Distinct principals issuing requests, drawn uniformly. `1` (the
    /// default) sends everything as the single principal `"client"`;
    /// larger values exercise §4.4's per-principal restore decisions.
    pub principals: usize,
    /// Optional autoscaling.
    pub autoscale: Option<AutoscaleConfig>,
}

impl FleetConfig {
    /// A fixed-size fleet at `offered_rps` under `policy`.
    pub fn fixed(policy: RoutePolicy, offered_rps: f64, seed: u64) -> FleetConfig {
        FleetConfig {
            policy,
            offered_rps,
            seed,
            principals: 1,
            autoscale: None,
        }
    }

    /// Same, with traffic drawn from `principals` distinct callers.
    pub fn with_principals(mut self, principals: usize) -> FleetConfig {
        assert!(principals > 0, "need at least one principal");
        self.principals = principals;
        self
    }
}

/// Per-container load figures reported after a run.
#[derive(Clone, Copy, Debug)]
pub struct ContainerLoad {
    /// Requests this container served.
    pub served: u64,
    /// Busy time / active span.
    pub utilization: f64,
    /// Total off-critical-path restore time, ms.
    pub restore_ms: f64,
    /// Restore time that hid in idle gaps (never delayed a request), ms.
    pub restore_hidden_ms: f64,
    /// First-touch lazy-restore faults served inside requests (lazy
    /// restore mode only).
    pub lazy_faults: u64,
    /// Deferred pages the background drain wrote back during idle gaps.
    pub lazy_drained_pages: u64,
    /// Whether the autoscaler retired this container.
    pub retired: bool,
}

/// Fleet-level statistics for one run.
#[derive(Clone, Debug)]
pub struct FleetStats {
    /// Slots in the pool at the end of the run (including retired).
    pub pool_size: usize,
    /// Non-retired slots at the end of the run.
    pub active: usize,
    /// Containers the autoscaler spawned.
    pub spawned: usize,
    /// Containers the autoscaler retired.
    pub retired: usize,
    /// Per-container breakdown.
    pub per_container: Vec<ContainerLoad>,
    /// Mean aggregate queue depth over scheduling events.
    pub queue_mean: f64,
    /// Median aggregate queue depth.
    pub queue_p50: f64,
    /// 95th-percentile aggregate queue depth.
    pub queue_p95: f64,
    /// 99th-percentile aggregate queue depth.
    pub queue_p99: f64,
    /// Total restore time charged across the fleet, ms. Under lazy
    /// restoration this is only the critical-path (DeferArm) component;
    /// the amortized component shows up as `lazy_faults` inside request
    /// execution.
    pub restore_total_ms: f64,
    /// First-touch lazy-restore faults across the fleet.
    pub lazy_faults: u64,
    /// Deferred pages drained during idle gaps across the fleet.
    pub lazy_drained_pages: u64,
    /// Fraction of restore time that overlapped idle gaps (1.0 = every
    /// restore fully hidden; 1.0 also when no restores ran).
    pub restore_overlap_ratio: f64,
    /// Snapshot dedup ratio of the pool-shared store (logical pages per
    /// unique resident frame; 1.0 = no sharing).
    pub snapshot_dedup_ratio: f64,
    /// Snapshot bytes resident across the pool (shared store + per-
    /// container reference tables).
    pub snapshot_resident_bytes: u64,
    /// `snapshot_resident_bytes / pool_size`.
    pub snapshot_bytes_per_container: f64,
    /// Bytes held by the run's statistics (the sojourn and queue-depth
    /// sketches) — constant in the request count by construction.
    pub stats_bytes: u64,
    /// Fault-injection accounting ([`crate::fault`]); all zero on a
    /// fault-free run.
    pub faults: FaultStats,
}

/// Outcome of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Offered arrival rate (requests/second), fleet-wide.
    pub offered_rps: f64,
    /// Completed requests.
    pub completed: usize,
    /// Achieved goodput (completions per second of busy span).
    pub goodput_rps: f64,
    /// Mean sojourn time (arrival → response), ms. Queueing included.
    pub mean_ms: f64,
    /// 99th-percentile sojourn time, ms.
    pub p99_ms: f64,
    /// Mean per-container utilization.
    pub utilization: f64,
    /// Fleet-level detail.
    pub stats: FleetStats,
}

/// Per-slot counter baseline captured at run start (busy, restore
/// total, restore hidden, served, lazy faults, drained pages).
pub(crate) type Baseline = (Nanos, Nanos, Nanos, u64, u64, u64);

/// Deferred pages this slot's background drain wrote back (GH only).
fn drained(s: &Slot) -> u64 {
    match &s.container.strategy {
        gh_isolation::Strategy::Gh(m) => m.stats.lazy_drained_pages,
        _ => 0,
    }
}

/// Workload knobs a gateway layers on the fleet's Poisson process, as
/// in [`GatewayFleetConfig`](crate::gateway::GatewayFleetConfig). Each
/// is off at zero and then leaves its stream undrawn, so the default is
/// the plain fleet workload.
#[derive(Clone, Copy, Default)]
pub(crate) struct Shape {
    pub idempotent_frac: f64,
    pub payload_universe: u64,
    pub hot_principal_frac: f64,
    pub diurnal_amplitude: f64,
    pub diurnal_period: Nanos,
}

/// A workload's arrival process as data: [`Pending`]s with ids from 1,
/// each with its principal's index (the token-bucket key); a run takes
/// as many as it has requests. Every fleet and gateway run consumes one
/// in [`Fleet::drive`], so they draw the same requests from the same
/// seed. Every stream is its own
/// [`DetRng`]: switching one on never perturbs another.
pub(crate) struct Arrivals {
    diurnal: Diurnal,
    principals: u64,
    shape: Shape,
    input_kb: u64,
    at: Nanos,
    issued: u64,
    gaps: DetRng,
    principal: DetRng,
    payload: DetRng,
    skew: DetRng,
    thin: DetRng,
}

impl Arrivals {
    /// The arrivals of `cfg`'s workload, shaped by `shape`, from `t_start`.
    pub fn new(cfg: &FleetConfig, shape: Shape, input_kb: u64, t_start: Nanos) -> Self {
        let seed = cfg.seed;
        Arrivals {
            diurnal: Diurnal {
                rps: cfg.offered_rps,
                amplitude: shape.diurnal_amplitude,
                period: shape.diurnal_period,
                origin: t_start,
            },
            principals: cfg.principals as u64,
            shape,
            input_kb,
            at: t_start,
            issued: 0,
            gaps: DetRng::new(seed ^ 0x09E4_100D),
            principal: DetRng::new(seed ^ 0x7E4A_4175),
            payload: DetRng::new(seed ^ 0x6A7E_0001),
            skew: DetRng::new(seed ^ 0x6A7E_0002),
            thin: DetRng::new(seed ^ 0x6A7E_0003),
        }
    }
}

impl Iterator for Arrivals {
    type Item = (u64, Pending);

    fn next(&mut self) -> Option<(u64, Pending)> {
        self.issued += 1;
        let s = self.shape;
        self.at = self.diurnal.next(self.at, &mut self.gaps, &mut self.thin);
        let (idx, principal) = if self.principals <= 1 {
            (0, "client".to_string())
        } else {
            let hot = s.hot_principal_frac > 0.0 && self.skew.next_f64() < s.hot_principal_frac;
            let idx = if hot {
                0
            } else {
                self.principal.next_below(self.principals)
            };
            (idx, format!("user-{idx}"))
        };
        let (payload_hash, idempotent) = if s.idempotent_frac > 0.0 {
            let p = self.payload.next_below(s.payload_universe.max(1));
            (mix(p), self.payload.next_f64() < s.idempotent_frac)
        } else {
            (0, false)
        };
        let pending = Pending {
            id: self.issued,
            principal,
            input_kb: self.input_kb,
            arrival: self.at,
            payload_hash,
            idempotent,
            attempt: 1,
        };
        Some((idx, pending))
    }
}

/// The event-driven fleet driver. Holds only its configuration, and
/// runs take `&self`: each run builds its own router and autoscaler, so
/// a reused `Fleet` repeats exactly. Borrows the pool per run so pools
/// can be kept (e.g. by the platform) across runs.
pub struct Fleet {
    cfg: FleetConfig,
    /// Fault plan, present only when injection is active — `None` keeps
    /// every run free of fault draws, retries and their events, which
    /// is what the fault oracle's bit-identity arm pins.
    plan: Option<FaultPlan>,
}

impl Fleet {
    /// Creates a driver for `cfg`.
    pub fn new(cfg: FleetConfig) -> Fleet {
        assert!(cfg.offered_rps > 0.0, "offered load must be positive");
        Fleet { cfg, plan: None }
    }

    /// Arms fault injection. A config with all rates zero is treated as
    /// absent, so a disabled plan cannot perturb the run even in
    /// principle.
    pub fn with_faults(mut self, cfg: FaultConfig) -> Fleet {
        self.plan = cfg.is_active().then(|| FaultPlan::new(cfg));
        self
    }

    /// The measurement span opens when the whole initial pool is warm
    /// (every container past Fig. 1 init + snapshot).
    pub(crate) fn span_start(pool: &Pool) -> Nanos {
        pool.slots
            .iter()
            .map(|s| s.ready_at)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Per-slot counter baselines: the result reports *this run's*
    /// deltas, so a pool reused across runs (Platform::run_fleet)
    /// never mixes one run's load figures into the next. Slots the
    /// autoscaler adds mid-run have implicit zero baselines.
    pub(crate) fn baselines(pool: &Pool) -> Vec<Baseline> {
        pool.slots
            .iter()
            .map(|s| {
                (
                    s.busy,
                    s.restore_total,
                    s.restore_hidden,
                    s.served,
                    s.lazy_faults,
                    drained(s),
                )
            })
            .collect()
    }

    /// Drives `requests` Poisson arrivals through `pool` and runs the
    /// queues dry, on the caller's thread.
    ///
    /// ```
    /// use gh_faas::fleet::{Fleet, FleetConfig, Pool, RoutePolicy};
    /// use gh_isolation::StrategyKind;
    /// use groundhog_core::GroundhogConfig;
    ///
    /// let spec = gh_functions::catalog::by_name("fannkuch (p)").unwrap();
    /// let cfg = FleetConfig::fixed(RoutePolicy::LeastLoaded, 200.0, 42);
    /// let mut pool = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 42)?;
    /// let result = Fleet::new(cfg).run(&mut pool, 50)?;
    /// assert_eq!(result.completed, 50);
    /// assert!(result.goodput_rps > 0.0);
    /// # Ok::<(), gh_isolation::StrategyError>(())
    /// ```
    pub fn run(&self, pool: &mut Pool, requests: usize) -> Result<FleetResult, StrategyError> {
        let disabled = GatewayConfig::disabled();
        let run = self.drive(pool, requests, Shape::default(), &disabled, &[]);
        run.map(|(result, _)| result)
    }

    /// [`Fleet::run`], ignoring `mode`: a fleet run is one loop on the
    /// caller's thread in every [`ExecMode`]. Kept for `perfbench`,
    /// which calls it.
    pub fn run_with(
        &self,
        pool: &mut Pool,
        requests: usize,
        _mode: ExecMode,
    ) -> Result<FleetResult, StrategyError> {
        self.run(pool, requests)
    }

    /// The driver body of a fleet run and of a gateway run
    /// ([`crate::gateway::GatewayFleet::run`]): `requests` arrivals of
    /// `shape` through `pool`, behind a [`Gate`] armed with `gateway`'s
    /// policies and the fleet's autoscaler, with `redeploys` scheduled.
    /// Returns the result (cache hits count as served) and the gate.
    pub(crate) fn drive(
        &self,
        pool: &mut Pool,
        requests: usize,
        shape: Shape,
        gateway: &GatewayConfig,
        redeploys: &[Nanos],
    ) -> Result<(FleetResult, Gate), StrategyError> {
        let t_start = Self::span_start(pool);
        let baseline = Self::baselines(pool);
        let arrivals = Arrivals::new(&self.cfg, shape, pool.spec.input_kb, t_start).take(requests);
        let mut router = Router::new(self.cfg.policy);
        let mut gate = Gate::new(gateway, self.cfg.autoscale, t_start);
        let mut k = Backend::new(self.plan);
        // Redeploys are part of the config, not the workload. Scheduled
        // before the first arrival takes its insertion number, a redeploy
        // tied with an arrival invalidates before the arrival's lookup.
        for &at in redeploys {
            k.events.schedule(at, Event::Redeploy);
        }
        k.run(pool, &mut router, arrivals, &mut gate)?;
        let mut tally = k.finish(requests - gate.hits - gate.rejected() as usize);
        tally.completed += gate.hits;
        let scaler = gate.scaler.as_ref();
        let result = Self::finish(&self.cfg, scaler, pool, t_start, &baseline, &tally);
        Ok((result, gate))
    }

    /// Result assembly: settles trailing restores and folds the pool's
    /// post-run state and the run's autoscaler (if any) into a
    /// [`FleetResult`]. [`Fleet::drive`] ends here.
    pub(crate) fn finish(
        cfg: &FleetConfig,
        scaler: Option<&Autoscaler>,
        pool: &mut Pool,
        t_start: Nanos,
        baseline: &[Baseline],
        tally: &Tally,
    ) -> FleetResult {
        let Tally {
            sojourns,
            depth,
            completed,
            faults,
        } = tally;
        for s in &mut pool.slots {
            s.settle();
        }
        let span_end = pool
            .slots
            .iter()
            .map(|s| s.container.now())
            .max()
            .unwrap_or(t_start);
        let span = span_end - t_start;

        let per_container: Vec<ContainerLoad> = pool
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (base_busy, base_total, base_hidden, base_served, base_lazy, base_drained) =
                    baseline.get(i).copied().unwrap_or_default();
                let busy = s.busy - base_busy;
                let active_start = s.spawned_at.max(t_start);
                let active_span = span_end.saturating_sub(active_start);
                ContainerLoad {
                    served: s.served - base_served,
                    utilization: if active_span.is_zero() {
                        0.0
                    } else {
                        (busy.as_secs_f64() / active_span.as_secs_f64()).min(1.0)
                    },
                    restore_ms: (s.restore_total - base_total).as_millis_f64(),
                    restore_hidden_ms: (s.restore_hidden - base_hidden).as_millis_f64(),
                    lazy_faults: s.lazy_faults - base_lazy,
                    lazy_drained_pages: drained(s) - base_drained,
                    retired: s.retired,
                }
            })
            .collect();
        let restore_total: Nanos = pool
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| s.restore_total - baseline.get(i).map(|b| b.1).unwrap_or_default())
            .sum();
        let restore_hidden: Nanos = pool
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| s.restore_hidden - baseline.get(i).map(|b| b.2).unwrap_or_default())
            .sum();
        let restore_overlap_ratio = if restore_total.is_zero() {
            1.0
        } else {
            restore_hidden.as_secs_f64() / restore_total.as_secs_f64()
        };
        let utilization = if per_container.is_empty() {
            0.0
        } else {
            per_container.iter().map(|c| c.utilization).sum::<f64>() / per_container.len() as f64
        };
        let mean_ms = sojourns.mean_ms();
        let depth_pcts = depth.percentiles(&[50.0, 95.0, 99.0]);
        let (spawned, retired) = scaler.map_or((0, 0), |a| (a.grown, a.retired));
        let lazy_faults = per_container.iter().map(|c| c.lazy_faults).sum();
        let lazy_drained_pages = per_container.iter().map(|c| c.lazy_drained_pages).sum();
        let memory = pool.memory();
        FleetResult {
            offered_rps: cfg.offered_rps,
            completed: *completed,
            goodput_rps: throughput_rps(*completed, span),
            mean_ms,
            p99_ms: sojourns.quantile_ms(99.0),
            utilization,
            stats: FleetStats {
                pool_size: pool.slots.len(),
                active: pool.active(),
                spawned,
                retired,
                per_container,
                queue_mean: depth.mean(),
                queue_p50: depth_pcts[0],
                queue_p95: depth_pcts[1],
                queue_p99: depth_pcts[2],
                restore_total_ms: restore_total.as_millis_f64(),
                lazy_faults,
                lazy_drained_pages,
                restore_overlap_ratio,
                snapshot_dedup_ratio: memory.dedup_ratio,
                snapshot_resident_bytes: memory.resident_bytes,
                snapshot_bytes_per_container: memory.resident_bytes_per_container,
                stats_bytes: 2 * QuantileSketch::memory_bytes() as u64,
                faults: *faults,
            },
        }
    }
}

/// Builds a pool of `pool_size` containers and drives `requests` through
/// it — the one-call entry point used by benches and examples.
pub fn run_fleet(
    spec: &FunctionSpec,
    kind: StrategyKind,
    gh: GroundhogConfig,
    pool_size: usize,
    cfg: FleetConfig,
    requests: usize,
) -> Result<FleetResult, StrategyError> {
    let mut pool = Pool::build(spec, kind, gh, pool_size, cfg.seed)?;
    Fleet::new(cfg).run(&mut pool, requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_functions::catalog::by_name;

    fn run(
        kind: StrategyKind,
        pool_size: usize,
        policy: RoutePolicy,
        rps: f64,
        requests: usize,
        seed: u64,
    ) -> FleetResult {
        let spec = by_name("fannkuch (p)").unwrap();
        run_fleet(
            &spec,
            kind,
            GroundhogConfig::gh(),
            pool_size,
            FleetConfig::fixed(policy, rps, seed),
            requests,
        )
        .unwrap()
    }

    #[test]
    fn all_requests_complete_and_stats_cohere() {
        let r = run(
            StrategyKind::Gh,
            3,
            RoutePolicy::RestoreAware,
            90.0,
            150,
            11,
        );
        assert_eq!(r.completed, 150);
        assert_eq!(r.stats.pool_size, 3);
        assert_eq!(r.stats.active, 3);
        assert_eq!(
            r.stats.per_container.iter().map(|c| c.served).sum::<u64>(),
            150
        );
        assert!(r.goodput_rps > 0.0);
        assert!(r.p99_ms >= r.mean_ms);
        assert!((0.0..=1.0).contains(&r.utilization));
        assert!((0.0..=1.0).contains(&r.stats.restore_overlap_ratio));
        assert!(
            r.stats.restore_total_ms > 0.0,
            "GH restores after every request"
        );
        assert!(r.stats.queue_p99 >= r.stats.queue_p50);
        // Pool snapshot memory dedups in the shared store.
        assert!(
            r.stats.snapshot_dedup_ratio > 2.5,
            "3 containers should share their base image: {:.2}",
            r.stats.snapshot_dedup_ratio
        );
        assert!(r.stats.snapshot_resident_bytes > 0);
        assert!(
            (r.stats.snapshot_bytes_per_container * r.stats.pool_size as f64
                - r.stats.snapshot_resident_bytes as f64)
                .abs()
                < 1.0,
            "per-container figure is resident bytes over pool size"
        );
    }

    #[test]
    fn base_fleet_reports_full_overlap() {
        let r = run(StrategyKind::Base, 2, RoutePolicy::RoundRobin, 50.0, 60, 3);
        assert_eq!(r.stats.restore_total_ms, 0.0);
        assert_eq!(r.stats.restore_overlap_ratio, 1.0, "vacuously hidden");
    }

    #[test]
    fn low_load_hides_restores_across_pool() {
        let r = run(StrategyKind::Gh, 4, RoutePolicy::RestoreAware, 40.0, 200, 5);
        assert!(r.utilization < 0.35, "low load: {:.2}", r.utilization);
        assert!(
            r.stats.restore_overlap_ratio > 0.9,
            "restores should hide in idle gaps: {:.2}",
            r.stats.restore_overlap_ratio
        );
    }

    #[test]
    fn more_containers_cut_queueing_at_fixed_load() {
        let small = run(
            StrategyKind::Gh,
            1,
            RoutePolicy::RestoreAware,
            150.0,
            200,
            7,
        );
        let large = run(
            StrategyKind::Gh,
            4,
            RoutePolicy::RestoreAware,
            150.0,
            200,
            7,
        );
        assert!(
            large.mean_ms < small.mean_ms / 2.0,
            "pool of 4 must beat pool of 1: {:.1}ms vs {:.1}ms",
            large.mean_ms,
            small.mean_ms
        );
        assert!(large.stats.queue_p99 <= small.stats.queue_p99);
    }

    /// §4's open-loop limit harness: Poisson arrivals against one
    /// round-robin container, 120 requests.
    fn open_loop(kind: StrategyKind, rps: f64) -> FleetResult {
        run(kind, 1, RoutePolicy::RoundRobin, rps, 120, 5)
    }

    #[test]
    fn low_load_hides_restoration() {
        // fannkuch: exec ≈ 4.6ms, restore ≈ 2ms. At 20 r/s (≈10%
        // utilization) the restore must be invisible in sojourn times.
        let base = open_loop(StrategyKind::Base, 20.0);
        let gh = open_loop(StrategyKind::Gh, 20.0);
        assert!(gh.utilization < 0.35, "low load: {:.2}", gh.utilization);
        let rel = gh.mean_ms / base.mean_ms;
        assert!(
            rel < 1.45,
            "restore hidden at low load: gh {:.2}ms vs base {:.2}ms",
            gh.mean_ms,
            base.mean_ms
        );
    }

    #[test]
    fn high_load_exposes_restoration_as_queueing() {
        // Offered near BASE's capacity: GH's reduced capacity makes the
        // queue explode.
        let base = open_loop(StrategyKind::Base, 130.0);
        let gh = open_loop(StrategyKind::Gh, 130.0);
        assert!(
            gh.mean_ms > base.mean_ms * 1.8,
            "queueing should blow up first under GH: gh {:.1}ms base {:.1}ms",
            gh.mean_ms,
            base.mean_ms
        );
    }

    #[test]
    fn utilization_grows_with_offered_load() {
        let lo = open_loop(StrategyKind::Gh, 10.0);
        let hi = open_loop(StrategyKind::Gh, 100.0);
        assert!(hi.utilization > lo.utilization * 2.0);
        assert!(lo.p99_ms >= lo.mean_ms);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_load_rejected() {
        run(StrategyKind::Base, 1, RoutePolicy::RoundRobin, 0.0, 1, 1);
    }

    #[test]
    fn faulty_fleet_retries_and_accounts() {
        let spec = by_name("fannkuch (p)").unwrap();
        let mut pool = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 21).unwrap();
        let fcfg = crate::fault::FaultConfig {
            restore_failure_rate: 0.02,
            ..crate::fault::FaultConfig::deaths(5, 0.08)
        };
        let r = Fleet::new(FleetConfig::fixed(RoutePolicy::RoundRobin, 60.0, 21))
            .with_faults(fcfg)
            .run(&mut pool, 300)
            .unwrap();
        let f = r.stats.faults;
        assert!(f.deaths > 0, "8% death rate over 300 requests must fire");
        assert_eq!(
            f.retries,
            f.deaths - f.abandoned,
            "every death short of the attempt bound schedules a retry"
        );
        assert_eq!(r.completed + f.abandoned as usize, 300);
        assert!(
            r.stats.per_container.iter().map(|c| c.served).sum::<u64>() == r.completed as u64,
            "served counts crashed attempts never"
        );
    }

    #[test]
    fn rerouting_retries_complete_too() {
        let spec = by_name("fannkuch (p)").unwrap();
        let mut pool = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 3, 9).unwrap();
        let fcfg = crate::fault::FaultConfig {
            retry: crate::fault::RetryPolicy::rerouting(),
            ..crate::fault::FaultConfig::deaths(5, 0.1)
        };
        let r = Fleet::new(FleetConfig::fixed(RoutePolicy::LeastLoaded, 60.0, 9))
            .with_faults(fcfg)
            .run(&mut pool, 200)
            .unwrap();
        let f = r.stats.faults;
        assert!(f.deaths > 0);
        assert_eq!(r.completed + f.abandoned as usize, 200);
    }

    #[test]
    fn inert_fault_config_is_not_armed() {
        let spec = by_name("fannkuch (p)").unwrap();
        let cfg = FleetConfig::fixed(RoutePolicy::RestoreAware, 90.0, 11);
        let mut p1 = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 11).unwrap();
        let mut p2 = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 11).unwrap();
        let plain = Fleet::new(cfg.clone()).run(&mut p1, 80).unwrap();
        let gated = Fleet::new(cfg)
            .with_faults(crate::fault::FaultConfig::none(5))
            .run(&mut p2, 80)
            .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{gated:?}"));
        assert!(gated.stats.faults.is_empty());
    }

    /// Restore-aware routing at 400 r/s with a 1–6 slot autoscaler: one
    /// starting container is overloaded, so the pool grows.
    fn overloaded_autoscaled() -> FleetConfig {
        FleetConfig {
            policy: RoutePolicy::RestoreAware,
            offered_rps: 400.0,
            seed: 13,
            principals: 1,
            autoscale: Some(AutoscaleConfig {
                min_size: 1,
                max_size: 6,
                scale_up_depth: 2.0,
                idle_retire: Nanos::from_secs(5),
                cooldown: Nanos::from_millis(200),
            }),
        }
    }

    #[test]
    fn autoscaler_grows_under_overload() {
        let spec = by_name("fannkuch (p)").unwrap();
        let cfg = overloaded_autoscaled();
        let r = run_fleet(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 1, cfg, 300).unwrap();
        assert!(r.stats.spawned > 0, "overload must trigger growth");
        assert_eq!(r.completed, 300);
        assert_eq!(
            r.stats.pool_size,
            1 + r.stats.spawned,
            "every spawn adds a slot"
        );
    }

    #[test]
    fn autoscaler_retires_when_idle() {
        let spec = by_name("fannkuch (p)").unwrap();
        let cfg = FleetConfig {
            policy: RoutePolicy::RoundRobin,
            offered_rps: 2.0, // ~1% utilization: most of the pool idles
            seed: 17,
            principals: 1,
            autoscale: Some(AutoscaleConfig {
                min_size: 1,
                max_size: 4,
                scale_up_depth: 4.0,
                idle_retire: Nanos::from_millis(500),
                cooldown: Nanos::from_millis(100),
            }),
        };
        let r = run_fleet(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 4, cfg, 80).unwrap();
        assert!(r.stats.retired > 0, "idle containers must retire");
        assert!(r.stats.active < 4);
        assert_eq!(r.completed, 80);
    }

    #[test]
    fn a_reused_autoscaled_fleet_repeats_exactly() {
        // The autoscaler is per run: a second run on a fresh 1-slot pool
        // grows the same way, with no spawn count or cooldown carried
        // over from the first.
        let spec = by_name("fannkuch (p)").unwrap();
        let fleet = Fleet::new(overloaded_autoscaled());
        let run = || {
            let mut pool =
                Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 1, 13).unwrap();
            fleet.run(&mut pool, 300).unwrap()
        };
        let first = run();
        let second = run();
        assert!(first.stats.spawned > 0, "overload must trigger growth");
        assert_eq!(first.stats.pool_size, 1 + first.stats.spawned);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    fn a_reused_round_robin_fleet_restarts_its_cursor() {
        // The router is per run: each run of 301 requests over 3 slots
        // starts at slot 0, in every mode, since `run_with` ignores it.
        let spec = by_name("fannkuch (p)").unwrap();
        for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
            let fleet = Fleet::new(FleetConfig::fixed(RoutePolicy::RoundRobin, 90.0, 7));
            let served = || {
                let mut pool =
                    Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 3, 7).unwrap();
                let r = fleet.run_with(&mut pool, 301, mode).unwrap();
                r.stats
                    .per_container
                    .iter()
                    .map(|c| c.served)
                    .collect::<Vec<_>>()
            };
            assert_eq!(served(), [101, 100, 100], "{mode:?}: first run");
            assert_eq!(served(), [101, 100, 100], "{mode:?}: second run");
        }
    }
}
