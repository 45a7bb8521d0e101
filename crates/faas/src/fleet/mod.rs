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
//! - `backend` — the dispatch kernel. Every loop that drives pools (this
//!   module's serial loop, [`crate::gateway`]'s, each [`crate::cluster`]
//!   node's) admits, attempts and retries through it, so crash,
//!   recovery, park, backoff, retry, abandon and restore failure are
//!   defined once. A fault-free run is the same loop with no fault plan.
//!
//! A pool of one with the round-robin policy reproduces the single
//! container open-loop semantics exactly: it is §4's limit harness,
//! where requests arrive whether or not the container is ready and
//! queue behind both execution *and* restoration (the `loadsweep`
//! bench; `tests/fleet_scheduling.rs` pins it against a hand-rolled
//! single-container loop).
//!
//! # Host-parallel execution
//!
//! [`Fleet::run`] shards eligible runs across host threads: routing
//! decisions are precomputed on the coordinator, container-local
//! invoke/restore work fans out to per-shard event queues
//! (`par::drive_shard`), and the coordinator then replays the global
//! event loop against the recorded per-slot dispatches — the same
//! ordered-merge discipline `gh_bench::harness::run_cells` applies
//! across sweep cells, applied inside one run. The **shard/merge
//! invariant**: a slot's dispatch outcomes depend only on its own
//! arrivals and its own previous readiness, so shard-local processing
//! reproduces the serial per-slot timelines and the replay reproduces
//! the serial interleaving — results are bit-identical to serial,
//! enforced by the differential oracle in `tests/fleet_par_oracle.rs`.
//!
//! The **serial reference** runs instead whenever a run is not
//! provably shardable: the policy is not
//! [`RoutePolicy::RoundRobin`] (least-loaded and restore-aware
//! routing read container state at arrival time, an arrival→readiness
//! data dependence), an autoscaler is configured (growth/retirement
//! mutates the pool mid-run), faults are injected (crash and retry
//! events make readiness depend on arrivals), the pool has fewer than
//! two slots, fewer than two threads are available, or the caller forced
//! it ([`ExecMode::Serial`], `--serial`, `GH_SERIAL=1`).

pub mod autoscaler;
pub(crate) mod backend;
pub(crate) mod par;
pub mod pool;
pub mod queue;
pub mod router;

use gh_functions::FunctionSpec;
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::event::EventQueue;
use gh_sim::stats::throughput_rps;
use gh_sim::{DetRng, Nanos, QuantileSketch};
use groundhog_core::GroundhogConfig;

use crate::fault::{FaultConfig, FaultPlan, FaultStats};
use backend::{Backend, Event, Tally};
use par::ShardEv;

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

/// The issuing principal of the next arrival: `"client"` when the
/// workload has one principal, else a uniform draw from `rng`.
fn draw_principal(principals: usize, rng: &mut DetRng) -> String {
    if principals <= 1 {
        "client".to_string()
    } else {
        format!("user-{}", rng.next_below(principals as u64))
    }
}

/// Next inter-arrival gap of the Poisson arrival process.
pub(crate) fn poisson_gap(offered_rps: f64, rng: &mut DetRng) -> Nanos {
    let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    Nanos::from_millis_f64(-u.ln() / offered_rps * 1e3)
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
    /// queues dry, in [`ExecMode::Auto`] (parallel when eligible — see
    /// the module docs — honoring `--serial`/`GH_SERIAL` and
    /// `GH_THREADS`).
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
        self.run_with(pool, requests, ExecMode::Auto)
    }

    /// Drives `requests` arrivals in an explicit [`ExecMode`]. The
    /// parallel path is bit-identical to the serial reference; a run
    /// that is not eligible to shard (non-round-robin policy,
    /// autoscaler configured, pool or thread count below two) runs
    /// serially regardless of `mode`.
    pub fn run_with(
        &self,
        pool: &mut Pool,
        requests: usize,
        mode: ExecMode,
    ) -> Result<FleetResult, StrategyError> {
        let threads = mode.threads();
        // Faulty runs stay serial: crash/retry events create
        // arrival→readiness data dependences the shard/merge scheme
        // cannot express. (Cluster runs still parallelize across *nodes*
        // with faults on — see `crate::cluster` — because node timelines
        // stay pure.)
        let eligible = requests > 0
            && threads >= 2
            && self.plan.is_none()
            && self.cfg.policy == RoutePolicy::RoundRobin
            && self.cfg.autoscale.is_none()
            && pool.slots.len() >= 2;
        if eligible {
            self.run_parallel(pool, requests, threads)
        } else {
            self.run_serial(pool, requests)
        }
    }

    /// The bit-exact serial reference: one global event loop on the
    /// caller's thread, every attempt through the dispatch kernel
    /// ([`backend`]). A fault-free run is the same loop with no plan.
    fn run_serial(&self, pool: &mut Pool, requests: usize) -> Result<FleetResult, StrategyError> {
        let input_kb = pool.spec.input_kb;
        let t_start = Self::span_start(pool);
        let offered_rps = self.cfg.offered_rps;
        let baseline = Self::baselines(pool);
        let mut arrival_rng = DetRng::new(self.cfg.seed ^ 0x09E4_100D);
        // A separate stream: principal draws must not perturb the
        // arrival process (single-principal runs stay bit-identical to
        // the original open-loop harness).
        let mut principal_rng = DetRng::new(self.cfg.seed ^ 0x7E4A_4175);
        let mut k: Backend = Backend::new(self.plan);
        let mut router = Router::new(self.cfg.policy);
        let mut scaler = self.cfg.autoscale.map(Autoscaler::new);
        let mut next_arrival = t_start;
        let mut generated = 0usize;
        if requests > 0 {
            next_arrival += poisson_gap(offered_rps, &mut arrival_rng);
            k.events.schedule(next_arrival, Event::Arrival);
            generated = 1;
        }
        let pools = std::slice::from_mut(pool);
        let routers = std::slice::from_mut(&mut router);

        while let Some((now, ev)) = k.events.pop() {
            match ev {
                Event::Arrival => {
                    let pending = Pending {
                        // Arrivals are scheduled one ahead, so this is
                        // the `generated`-th.
                        id: generated as u64,
                        principal: draw_principal(self.cfg.principals, &mut principal_rng),
                        input_kb,
                        arrival: now,
                        payload_hash: 0,
                        idempotent: false,
                        attempt: 1,
                    };
                    let slot = k.admit(now, pools, routers, 0, pending);
                    if generated < requests {
                        next_arrival += poisson_gap(offered_rps, &mut arrival_rng);
                        k.events.schedule(next_arrival, Event::Arrival);
                        generated += 1;
                    }
                    k.dispatch(now, pools, 0, slot)?;
                    if let Some(scaler) = scaler.as_mut() {
                        if let Some((idx, ready)) = scaler.step(now, &mut pools[0])? {
                            // The new container announces readiness once
                            // initialized.
                            k.events.schedule(ready, Event::Ready(0, idx as u32));
                        }
                    }
                }
                Event::Ready(p, s) => {
                    k.ready(now, pools, p as usize, s as usize)?;
                }
                Event::Retry(token) => {
                    let (p, s) = k.retry(now, token, pools, routers);
                    k.dispatch(now, pools, p, s)?;
                }
            }
            if k.settled(requests) {
                break;
            }
        }
        let tally = k.finish(requests);
        let pool = &mut pools[0];
        Ok(Self::finish(
            &self.cfg,
            scaler.as_ref(),
            pool,
            t_start,
            &baseline,
            &tally,
        ))
    }

    /// The sharded path: plan on the coordinator, fan container-local
    /// invoke/restore work out to per-shard event queues, then replay
    /// the global loop against the recorded dispatches (see the module
    /// docs and [`par`]). Callers guarantee eligibility: round-robin
    /// policy, no autoscaler, ≥ 2 slots, ≥ 2 threads, ≥ 1 request.
    fn run_parallel(
        &self,
        pool: &mut Pool,
        requests: usize,
        threads: usize,
    ) -> Result<FleetResult, StrategyError> {
        let input_kb = pool.spec.input_kb;
        let t_start = Self::span_start(pool);
        let offered_rps = self.cfg.offered_rps;
        let baseline = Self::baselines(pool);
        let restore_cost = Nanos::from_millis_f64(pool.spec.paper_restore_ms);

        // Phase 1 — plan: draw the arrival process (same RNG streams and
        // per-stream draw order as the serial loop) and route every
        // request with a fresh router — round-robin routing reads only
        // the slots' static retired flags, so pre-run decisions are
        // exact. A second fresh router re-routes during the phase-3
        // replay and must agree.
        let mut arrival_rng = DetRng::new(self.cfg.seed ^ 0x09E4_100D);
        let mut principal_rng = DetRng::new(self.cfg.seed ^ 0x7E4A_4175);
        let mut router = Router::new(self.cfg.policy);
        let mut planner = router.clone();
        let mut plan: Vec<par::Arrival> = Vec::with_capacity(requests);
        let mut next_arrival = t_start;
        for i in 0..requests {
            next_arrival += poisson_gap(offered_rps, &mut arrival_rng);
            let principal = draw_principal(self.cfg.principals, &mut principal_rng);
            let slot = planner.route(next_arrival, &principal, restore_cost, &pool.slots);
            plan.push(par::Arrival {
                at: next_arrival,
                id: i as u64 + 1,
                principal,
                slot,
            });
        }

        // Pre-shard readiness, so the phase-3 mirrors start from the
        // same per-slot state the serial loop would see.
        let ready0: Vec<Nanos> = pool.slots.iter().map(|s| s.ready_at).collect();

        // Phase 2 — shard: contiguous slot slices fan out across scoped
        // workers; only container-local work runs off the coordinator.
        let n_slots = pool.slots.len();
        let mut outs: Vec<Vec<Dispatched>> = (0..n_slots).map(|_| Vec::new()).collect();
        let chunk = n_slots.div_ceil(threads);
        std::thread::scope(|scope| {
            let plan = &plan;
            let handles: Vec<_> = pool
                .slots
                .chunks_mut(chunk)
                .zip(outs.chunks_mut(chunk))
                .enumerate()
                .map(|(si, (slots, outs))| {
                    scope.spawn(move || par::drive_shard(slots, si * chunk, plan, input_kb, outs))
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("shard worker panicked"))
        })?;

        // Phase 3 — merge: replay the serial event loop against per-slot
        // mirrors, consuming the recorded dispatches. The replay issues
        // the same schedule calls in the same order as the serial loop,
        // so tie-breaking sequence numbers — and therefore pop order,
        // sojourn ordering and depth samples — match bit for bit.
        struct Mirror {
            qlen: usize,
            ready_at: Nanos,
            next: usize,
        }
        fn mirror_dispatch(
            m: &mut Mirror,
            idx: usize,
            now: Nanos,
            outs: &[Vec<Dispatched>],
            events: &mut EventQueue<ShardEv>,
            tally: &mut Tally,
            queued_total: &mut usize,
        ) {
            if m.ready_at <= now && m.qlen > 0 {
                let d = outs[idx][m.next];
                m.next += 1;
                m.qlen -= 1;
                *queued_total -= 1;
                tally.sojourns.record_nanos(d.sojourn);
                tally.completed += 1;
                events.schedule(d.ready_at, ShardEv::Ready(idx));
                m.ready_at = d.ready_at;
            }
        }
        let mut mirrors: Vec<Mirror> = ready0
            .into_iter()
            .map(|r| Mirror {
                qlen: 0,
                ready_at: r,
                next: 0,
            })
            .collect();
        let mut events: EventQueue<ShardEv> = EventQueue::new();
        let mut tally = Tally::default();
        let mut queued_total = 0usize;
        events.schedule(plan[0].at, ShardEv::Arrival(0));

        while let Some((now, ev)) = events.pop() {
            match ev {
                ShardEv::Arrival(i) => {
                    let a = &plan[i];
                    let idx = router.route(now, &a.principal, restore_cost, &pool.slots);
                    assert_eq!(idx, a.slot, "replay route diverged from plan");
                    mirrors[idx].qlen += 1;
                    queued_total += 1;
                    tally.depth.record(queued_total);
                    if let Some(next) = plan.get(i + 1) {
                        events.schedule(next.at, ShardEv::Arrival(i + 1));
                    }
                    mirror_dispatch(
                        &mut mirrors[idx],
                        idx,
                        now,
                        &outs,
                        &mut events,
                        &mut tally,
                        &mut queued_total,
                    );
                }
                ShardEv::Ready(idx) => {
                    mirror_dispatch(
                        &mut mirrors[idx],
                        idx,
                        now,
                        &outs,
                        &mut events,
                        &mut tally,
                        &mut queued_total,
                    );
                    tally.depth.record(queued_total);
                }
            }
            if tally.completed == requests && queued_total == 0 {
                break;
            }
        }
        assert_eq!(tally.completed, requests, "all arrivals must be served");
        assert!(
            mirrors
                .iter()
                .enumerate()
                .all(|(i, m)| m.next == outs[i].len()),
            "every recorded dispatch must be consumed by the replay"
        );

        Ok(Self::finish(
            &self.cfg, None, pool, t_start, &baseline, &tally,
        ))
    }

    /// Shared result assembly: settles trailing restores and folds the
    /// pool's post-run state and the run's autoscaler (if any) into a
    /// [`FleetResult`]. Both fleet execution paths and the gateway end
    /// here, so the report derivation is identical by construction.
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
#[allow(clippy::too_many_arguments)]
pub fn run_fleet(
    spec: &FunctionSpec,
    kind: StrategyKind,
    gh: GroundhogConfig,
    pool_size: usize,
    cfg: FleetConfig,
    requests: usize,
) -> Result<FleetResult, StrategyError> {
    run_fleet_with(spec, kind, gh, pool_size, cfg, requests, ExecMode::Auto)
}

/// [`run_fleet`] with an explicit [`ExecMode`] — the entry point of the
/// serial-vs-parallel differential oracle and the determinism CI job.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet_with(
    spec: &FunctionSpec,
    kind: StrategyKind,
    gh: GroundhogConfig,
    pool_size: usize,
    cfg: FleetConfig,
    requests: usize,
    mode: ExecMode,
) -> Result<FleetResult, StrategyError> {
    let seed = cfg.seed;
    let mut pool = Pool::build(spec, kind, gh, pool_size, seed)?;
    Fleet::new(cfg).run_with(&mut pool, requests, mode)
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
        // starts at slot 0, serially and sharded alike.
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
