//! The gateway-wrapped fleet: result caching, admission control and
//! predictive pre-warming in front of one function's container pool.
//!
//! This is the fleet-level event loop that wires the policies of
//! [`gh_gateway`] between clients and [`Pool`]: arrivals pass through
//! the result cache (idempotent hits are answered at the gateway and
//! never reach a container), then per-principal token-bucket admission
//! and the global concurrency ceiling (rejects are shed, defers are
//! parked and released as backend capacity frees), and the pre-warmer
//! watches backend arrivals to grow the pool *ahead* of load where the
//! reactive [`Autoscaler`] would trail it.
//!
//! The loop is a driver over the fleet's dispatch kernel (the crate's
//! one definition of an attempt, shared with the fleet and every
//! cluster node): it owns the arrival process and the gateway policies,
//! while admission to the pool, each attempt, and fault handling
//! (crash, park, retry, abandon, restore failure) happen in the kernel.
//! The gateway's own events — cold-start completions, cache expiries,
//! redeploys — ride the kernel's timeline as driver events.
//!
//! # Determinism contract
//!
//! The loop is structured so that a [`GatewayConfig::disabled`] gateway
//! over a flat workload replays the ungated
//! [`Fleet::run`](super::fleet::Fleet::run) serial reference **bit for
//! bit**: the arrival and principal RNG streams, per-stream draw order,
//! and the sequence of event-queue `schedule` calls (which fixes
//! tie-breaking) are identical, and gateway-only draws (payload
//! identity, principal skew, diurnal thinning) ride separate seeded
//! streams that are skipped entirely when their feature is off. The
//! differential oracle in `tests/gateway_oracle.rs` pins this, with and
//! without injected faults.
//!
//! Cache expiry is driven as events on the same
//! [`gh_sim::event::EventQueue`] (one `CacheExpire` per insertion, at
//! the entry's exact virtual-time deadline), so enabling the cache
//! changes the schedule only through its own events — never by
//! perturbing the arrival process.

use std::collections::VecDeque;

use gh_functions::FunctionSpec;
use gh_gateway::admission::{AdmissionControl, Decision};
use gh_gateway::cache::{mix, CacheKey, ResultCache};
use gh_gateway::prewarm::Prewarmer;
use gh_gateway::{GatewayConfig, GatewayStats};
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::{DetRng, Nanos};
use groundhog_core::GroundhogConfig;

use crate::fault::{FaultConfig, FaultPlan};
use crate::fleet::backend::{Backend, Event, Tally};
use crate::fleet::{
    poisson_gap, Autoscaler, Dispatched, Fleet, FleetConfig, FleetResult, Pending, Pool, Router,
};

/// Workload and policy of one gateway-fronted fleet run. The workload
/// knobs extend the plain fleet's Poisson process; every knob's zero
/// value means "exactly the ungated fleet workload".
#[derive(Clone, Debug)]
pub struct GatewayFleetConfig {
    /// The underlying fleet (policy, offered load, seed, principals,
    /// optional reactive autoscaler).
    pub fleet: FleetConfig,
    /// Gateway policies; [`GatewayConfig::disabled`] is a pass-through.
    pub gateway: GatewayConfig,
    /// Fraction of requests flagged idempotent (cache-eligible); 0
    /// skips the payload stream entirely.
    pub idempotent_frac: f64,
    /// Distinct payloads idempotent requests draw from — smaller means
    /// a higher achievable hit ratio.
    pub payload_universe: u64,
    /// Principal skew: with this probability an arrival is issued by
    /// principal 0 instead of a uniform draw; 0 skips the skew stream.
    pub hot_principal_frac: f64,
    /// Diurnal arrival-rate amplitude `A` in `[0, 1)`: the offered rate
    /// swings between `(1−A)` and `(1+A)` × `fleet.offered_rps`
    /// (realized by thinning, like [`crate::trace::TraceGen`]); 0 keeps
    /// the plain homogeneous Poisson process.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal envelope.
    pub diurnal_period: Nanos,
    /// Fault injection behind the gateway: container deaths release the
    /// concurrency ceiling (draining defers) and are retried per the
    /// plan's policy; a died attempt never fills the result cache.
    /// `None` (or an inert config) keeps the loop byte-identical to the
    /// fault-free reference.
    pub faults: Option<FaultConfig>,
    /// Virtual times at which the function is redeployed: each event
    /// bumps the cache-key generation and drops every cached result of
    /// the old deployment. Empty means never.
    pub redeploys: Vec<Nanos>,
}

impl GatewayFleetConfig {
    /// A gateway run that reproduces the ungated fleet exactly: all
    /// policies disabled, flat workload.
    pub fn passthrough(fleet: FleetConfig) -> GatewayFleetConfig {
        GatewayFleetConfig {
            fleet,
            gateway: GatewayConfig::disabled(),
            idempotent_frac: 0.0,
            payload_universe: 64,
            hot_principal_frac: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: Nanos::from_secs(120),
            faults: None,
            redeploys: Vec::new(),
        }
    }

    /// Same workload, different gateway policy.
    pub fn with_gateway(mut self, gateway: GatewayConfig) -> GatewayFleetConfig {
        self.gateway = gateway;
        self
    }
}

/// Outcome of one gateway-fronted fleet run.
#[derive(Clone, Debug)]
pub struct GatewayResult {
    /// The fleet-level result. `completed` counts *served* requests —
    /// backend completions plus cache hits — and the sojourn
    /// distribution includes hits at the cache's `hit_cost`.
    pub fleet: FleetResult,
    /// What the gateway did: hit/miss/eviction, reject/defer and
    /// pre-warm counters.
    pub gateway: GatewayStats,
}

/// The gateway's own events, riding the dispatch kernel's
/// [`Event::Driver`]. Each exists only when its policy is enabled.
enum GatewayEvent {
    /// A pre-warmed or autoscaled container finished cold-starting.
    WarmReady(u32),
    /// A result-cache entry reached its TTL deadline.
    CacheExpire,
    /// The function was redeployed: bump the cache generation and drop
    /// the old deployment's cached results.
    Redeploy,
}

/// Drives `requests` arrivals through a gateway in front of a fresh
/// pool of `pool_size` containers — the gateway counterpart of
/// [`crate::fleet::run_fleet`].
#[allow(clippy::too_many_arguments)]
pub fn run_gateway_fleet(
    spec: &FunctionSpec,
    kind: StrategyKind,
    gh: GroundhogConfig,
    pool_size: usize,
    cfg: GatewayFleetConfig,
    requests: usize,
) -> Result<GatewayResult, StrategyError> {
    let mut pool = Pool::build(spec, kind, gh, pool_size, cfg.fleet.seed)?;
    GatewayFleet::new(cfg).run(&mut pool, requests)
}

/// The gateway-fronted fleet driver. Holds only its configuration, and
/// runs take `&self`: each run builds its own router, autoscaler and
/// gateway policy state, so a reused `GatewayFleet` repeats exactly.
pub struct GatewayFleet {
    cfg: GatewayFleetConfig,
}

/// One run's gateway policy state.
struct Gate {
    cache: Option<ResultCache>,
    admission: Option<AdmissionControl>,
    prewarmer: Option<Prewarmer>,
    /// Arrivals the concurrency ceiling deferred, oldest first.
    defer: VecDeque<Pending>,
    /// Deployment generation, bumped by `Redeploy`; cache keys carry it
    /// so stale results can never be served.
    generation: u64,
    hits: usize,
    cache_peak: u64,
}

impl Gate {
    /// Admits `p` to the backend: the kernel's admit step, then the
    /// ceiling's begin edge and the pre-warmer's arrival observation.
    /// Returns the slot.
    fn enter(
        &mut self,
        k: &mut Backend<GatewayEvent>,
        pools: &mut [Pool],
        routers: &mut [Router],
        now: Nanos,
        p: Pending,
    ) -> usize {
        let slot = k.admit(now, pools, routers, 0, p);
        if let Some(ac) = &mut self.admission {
            ac.begin();
        }
        if let Some(pw) = &mut self.prewarmer {
            pw.observe(now);
        }
        slot
    }

    /// Fills the result cache from an idempotent response. A crashed
    /// attempt produced none, so it never fills the cache.
    fn fill(&mut self, k: &mut Backend<GatewayEvent>, d: Option<Dispatched>) {
        let (Some(d), Some(c)) = (d, &mut self.cache) else {
            return;
        };
        if !d.idempotent {
            return;
        }
        let key = CacheKey {
            fn_id: 0,
            generation: self.generation,
            payload_hash: d.payload_hash,
        };
        // The fill becomes visible when the response leaves the
        // container; its TTL runs from that instant.
        c.insert(key, d.output_kb, d.resp_at);
        if let Some(at) = c.next_expiry() {
            // One expiry event per insertion keeps the sweep exact
            // without a timer wheel; stale events sweep nothing.
            let expire = Event::Driver(GatewayEvent::CacheExpire);
            k.events.schedule(at.max(d.resp_at), expire);
        }
        self.cache_peak = self.cache_peak.max(c.bytes());
    }

    fn rejected(&self) -> u64 {
        self.admission.as_ref().map_or(0, |a| a.rejected)
    }

    /// Arrivals of `requests` that reached or still wait for the
    /// backend: everything the cache did not answer and admission did
    /// not shed.
    fn backend_bound(&self, requests: usize) -> usize {
        requests - self.hits - self.rejected() as usize
    }
}

impl GatewayFleet {
    /// Creates a driver for `cfg`.
    pub fn new(cfg: GatewayFleetConfig) -> GatewayFleet {
        assert!(cfg.fleet.offered_rps > 0.0, "offered load must be positive");
        assert!(
            (0.0..1.0).contains(&cfg.diurnal_amplitude),
            "amplitude must be in [0, 1)"
        );
        if let Some(ac) = &cfg.gateway.admission {
            assert!(
                ac.max_in_flight != Some(0),
                "a zero concurrency ceiling would defer every request forever"
            );
        }
        GatewayFleet { cfg }
    }

    /// Runs the gateway event loop over `pool` until every arrival is
    /// served, shed or abandoned. Serial by construction (gateway state
    /// is a global arrival→completion data dependence, like the
    /// autoscaler); host parallelism comes from running sweep *cells*
    /// concurrently — see `gh_bench`'s `gatewaysweep`. Every attempt,
    /// fault handling included, goes through the fleet's dispatch
    /// kernel, so container deaths release the concurrency ceiling on
    /// their recovery edge exactly as completions do.
    pub fn run(&self, pool: &mut Pool, requests: usize) -> Result<GatewayResult, StrategyError> {
        let input_kb = pool.spec.input_kb;
        let t_start = Fleet::span_start(pool);
        let baseline = Fleet::baselines(pool);
        let cfg = &self.cfg;
        if requests == 0 {
            let fleet = Fleet::finish(
                &cfg.fleet,
                None,
                pool,
                t_start,
                &baseline,
                &Tally::default(),
            );
            return Ok(GatewayResult {
                fleet,
                gateway: GatewayStats::default(),
            });
        }
        // Mean per-request slot occupancy (execution + restore): the
        // pre-warmer's capacity-planning service time.
        let service_secs = (pool.spec.base_invoker_ms + pool.spec.paper_restore_ms) / 1e3;

        // Same streams and draw order as the serial fleet loop…
        let mut arrival_rng = DetRng::new(cfg.fleet.seed ^ 0x09E4_100D);
        let mut principal_rng = DetRng::new(cfg.fleet.seed ^ 0x7E4A_4175);
        // …plus gateway-only streams, touched only when their feature
        // is on, so a pass-through run never perturbs the base draws.
        let mut payload_rng = DetRng::new(cfg.fleet.seed ^ 0x6A7E_0001);
        let mut skew_rng = DetRng::new(cfg.fleet.seed ^ 0x6A7E_0002);
        let mut thin_rng = DetRng::new(cfg.fleet.seed ^ 0x6A7E_0003);

        let mut gate = Gate {
            cache: cfg.gateway.cache.map(ResultCache::new),
            admission: cfg.gateway.admission.map(AdmissionControl::new),
            prewarmer: cfg.gateway.prewarm.map(|p| Prewarmer::new(p, t_start)),
            defer: VecDeque::new(),
            generation: 0,
            hits: 0,
            cache_peak: 0,
        };
        let plan = cfg
            .faults
            .filter(FaultConfig::is_active)
            .map(FaultPlan::new);
        let mut k: Backend<GatewayEvent> = Backend::new(plan);
        let mut router = Router::new(cfg.fleet.policy);
        let mut scaler = cfg.fleet.autoscale.map(Autoscaler::new);

        // Redeploys are scheduled up front (the schedule is part of the
        // config, not the workload); an empty schedule adds no events
        // and leaves the timeline untouched. Scheduling them before the
        // first arrival means a redeploy tied with an arrival
        // invalidates before the arrival's lookup.
        for &at in &cfg.redeploys {
            k.events.schedule(at, Event::Driver(GatewayEvent::Redeploy));
        }
        let mut next_arrival = t_start;
        cfg.advance_arrival(&mut next_arrival, t_start, &mut arrival_rng, &mut thin_rng);
        k.events.schedule(next_arrival, Event::Arrival);
        let mut generated = 1usize;
        let pools = std::slice::from_mut(pool);
        let routers = std::slice::from_mut(&mut router);

        while let Some((now, ev)) = k.events.pop() {
            match ev {
                Event::Arrival => {
                    let (pidx, principal) = cfg.draw_principal(&mut principal_rng, &mut skew_rng);
                    let (payload_hash, idempotent) = if cfg.idempotent_frac > 0.0 {
                        let p = payload_rng.next_below(cfg.payload_universe.max(1));
                        let idem = payload_rng.next_f64() < cfg.idempotent_frac;
                        (mix(p), idem)
                    } else {
                        (0, false)
                    };
                    let pending = Pending {
                        // Arrivals are scheduled one ahead, so this is
                        // the `generated`-th.
                        id: generated as u64,
                        principal,
                        input_kb,
                        arrival: now,
                        payload_hash,
                        idempotent,
                        attempt: 1,
                    };
                    // 1. Result cache: idempotent hits are answered at
                    // the gateway — the backend (and its admission
                    // ceiling) never sees them.
                    let key = CacheKey {
                        fn_id: 0,
                        generation: gate.generation,
                        payload_hash,
                    };
                    let hit_cost = match &mut gate.cache {
                        Some(c) if idempotent => c.lookup(key, now).map(|_| c.config().hit_cost),
                        _ => None,
                    };
                    let slot = if let Some(cost) = hit_cost {
                        k.tally.sojourns.record_nanos(cost);
                        gate.hits += 1;
                        None
                    } else {
                        // 2. Admission: token bucket, then the ceiling.
                        let admission = gate.admission.as_mut();
                        match admission.map_or(Decision::Admit, |ac| ac.admit(pidx, now)) {
                            Decision::Admit => {
                                Some(gate.enter(&mut k, pools, routers, now, pending))
                            }
                            Decision::Defer => {
                                gate.defer.push_back(pending);
                                None
                            }
                            Decision::Reject => None,
                        }
                    };
                    // The next arrival is scheduled before the dispatch,
                    // matching the serial fleet loop's schedule order.
                    if generated < requests {
                        cfg.advance_arrival(
                            &mut next_arrival,
                            t_start,
                            &mut arrival_rng,
                            &mut thin_rng,
                        );
                        k.events.schedule(next_arrival, Event::Arrival);
                        generated += 1;
                    }
                    if let Some(slot) = slot {
                        let d = k.dispatch(now, pools, 0, slot)?;
                        gate.fill(&mut k, d);
                        // One scaling observation: the pre-warmer first
                        // (it is the point of this module), else the
                        // reactive autoscaler.
                        let grown = match (&mut gate.prewarmer, &mut scaler) {
                            (Some(pw), _) => pw
                                .want_grow(now, pools[0].active(), service_secs)
                                .then(|| pools[0].grow(now))
                                .transpose()?,
                            (None, Some(scaler)) => scaler.step(now, &mut pools[0])?,
                            (None, None) => None,
                        };
                        if let Some((idx, ready)) = grown {
                            let warm = Event::Driver(GatewayEvent::WarmReady(idx as u32));
                            k.events.schedule(ready, warm);
                        }
                    }
                }
                Event::Ready(p, s) => {
                    // One Ready per attempt: this is the completion (or
                    // recovery) edge the concurrency ceiling releases on.
                    if let Some(ac) = &mut gate.admission {
                        ac.end();
                    }
                    while gate.admission.as_ref().is_some_and(|ac| ac.has_capacity()) {
                        let Some(deferred) = gate.defer.pop_front() else {
                            break;
                        };
                        let slot = gate.enter(&mut k, pools, routers, now, deferred);
                        let d = k.dispatch(now, pools, 0, slot)?;
                        gate.fill(&mut k, d);
                    }
                    let d = k.ready(now, pools, p as usize, s as usize)?;
                    gate.fill(&mut k, d);
                }
                Event::Retry(token) => {
                    // A killed request's backoff elapsed: re-enter the
                    // backend. The retry was admitted on its first
                    // attempt and keeps its admission (it re-begins the
                    // ceiling it released when the crash's Ready edge
                    // fired), but never re-pays the token bucket.
                    let (p, s) = k.retry(now, token, pools, routers);
                    if let Some(ac) = &mut gate.admission {
                        ac.begin();
                    }
                    let d = k.dispatch(now, pools, p, s)?;
                    gate.fill(&mut k, d);
                }
                Event::Driver(GatewayEvent::WarmReady(s)) => {
                    // A cold start completed (pre-warm or autoscale):
                    // serve anything already routed to the new slot.
                    let d = k.ready(now, pools, 0, s as usize)?;
                    gate.fill(&mut k, d);
                }
                Event::Driver(GatewayEvent::CacheExpire) => {
                    if let Some(c) = &mut gate.cache {
                        c.expire_due(now);
                    }
                }
                Event::Driver(GatewayEvent::Redeploy) => {
                    // New code is live: results produced by the old
                    // deployment must never be served again. Bumping
                    // the generation makes stale entries unreachable
                    // (even in-flight fills from old-code responses);
                    // the sweep reclaims their bytes immediately.
                    gate.generation += 1;
                    if let Some(c) = &mut gate.cache {
                        c.redeploy(0);
                    }
                }
            }
            // Done when every arrival is resolved (served, shed, or
            // abandoned after its retry budget) and nothing waits in a
            // queue, the defer buffer, or the retry park table.
            if gate.defer.is_empty() && k.settled(gate.backend_bound(requests)) {
                break;
            }
        }

        let mut tally = k.finish(gate.backend_bound(requests));
        let mut gw = GatewayStats {
            served: (tally.completed + gate.hits) as u64,
            rejected: gate.rejected(),
            deferred: gate.admission.as_ref().map_or(0, |a| a.deferred),
            prewarm_spawns: gate.prewarmer.as_ref().map_or(0, |p| p.spawned),
            cache_peak_bytes: gate.cache_peak,
            ..GatewayStats::default()
        };
        if let Some(c) = &gate.cache {
            gw.absorb_cache(&c.stats);
        }
        assert_eq!(gw.cache_hits, gate.hits as u64, "every hit is a cache hit");
        // The fleet result counts served requests: backend completions
        // plus cache hits, whose sojourns the tally already holds.
        tally.completed = gw.served as usize;
        let pool = &mut pools[0];
        let fleet = Fleet::finish(
            &cfg.fleet,
            scaler.as_ref(),
            pool,
            t_start,
            &baseline,
            &tally,
        );
        Ok(GatewayResult { fleet, gateway: gw })
    }
}

impl GatewayFleetConfig {
    /// Instantaneous offered rate at `t` under the diurnal envelope.
    fn rate_at(&self, t: Nanos, t_start: Nanos) -> f64 {
        let phase = t.saturating_sub(t_start).as_secs_f64() / self.diurnal_period.as_secs_f64();
        self.fleet.offered_rps
            * (1.0 + self.diurnal_amplitude * (std::f64::consts::TAU * phase).sin())
    }

    /// Advances the arrival cursor past the next (possibly thinned)
    /// arrival. Amplitude 0 is a plain exponential gap — bit-identical
    /// to the fleet loop's `poisson_gap` sequence.
    fn advance_arrival(
        &self,
        cursor: &mut Nanos,
        t_start: Nanos,
        arrival_rng: &mut DetRng,
        thin_rng: &mut DetRng,
    ) {
        if self.diurnal_amplitude == 0.0 {
            *cursor += poisson_gap(self.fleet.offered_rps, arrival_rng);
            return;
        }
        let rate_max = self.fleet.offered_rps * (1.0 + self.diurnal_amplitude);
        loop {
            *cursor += poisson_gap(rate_max, arrival_rng);
            let accept = self.rate_at(*cursor, t_start) / rate_max;
            if thin_rng.next_f64() < accept {
                return;
            }
        }
    }

    /// Draws the issuing principal: the fleet's uniform stream, with an
    /// optional hot-principal skew on its own stream.
    fn draw_principal(&self, principal_rng: &mut DetRng, skew_rng: &mut DetRng) -> (u64, String) {
        if self.fleet.principals <= 1 {
            return (0, "client".to_string());
        }
        let idx = if self.hot_principal_frac > 0.0 && skew_rng.next_f64() < self.hot_principal_frac
        {
            0
        } else {
            principal_rng.next_below(self.fleet.principals as u64)
        };
        (idx, format!("user-{idx}"))
    }
}
