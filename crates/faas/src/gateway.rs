//! The gateway-wrapped fleet: result caching, admission control and
//! predictive pre-warming in front of one function's container pool.
//!
//! `Gate` holds one run's policies of [`gh_gateway`], between clients
//! and [`Pool`]: arrivals pass through the result cache (idempotent hits
//! are answered at the gateway and never reach a container), then
//! per-principal token-bucket admission and the global concurrency
//! ceiling (rejects are shed, defers are parked and released as backend
//! capacity frees), and the pre-warmer watches backend arrivals to grow
//! the pool *ahead* of load where the reactive [`Autoscaler`] would
//! trail it.
//!
//! The gateway has no loop of its own: its run is the fleet's driver
//! body, which runs the dispatch kernel's one event loop (shared with
//! every cluster node) behind the gateway's gate. Admission to the pool,
//! each attempt, fault handling (crash, park, retry, abandon, restore
//! failure), the ceiling's release and the gateway's events (a grown
//! slot's first readiness, cache expiries, redeploys) all happen there.
//!
//! # Determinism contract
//!
//! A [`GatewayConfig::disabled`] gateway over a flat workload replays
//! the ungated [`Fleet::run`](super::fleet::Fleet::run) serial reference
//! **bit for bit** by construction: both are the same driver body over
//! the fleet's arrival source, whose gateway-only streams (payload
//! identity, principal skew, diurnal thinning) are drawn only when their
//! knob is on, behind a gate whose policies are all off. The
//! differential oracle in `tests/gateway_oracle.rs` pins this, with and
//! without injected faults.
//!
//! Cache expiry is driven as events on the kernel's
//! [`gh_sim::event::EventQueue`] (one `CacheExpire` per insertion, at
//! the entry's exact virtual-time deadline), so enabling the cache
//! changes the schedule only through its own events — never by
//! perturbing the arrival process.

use std::collections::VecDeque;

use gh_functions::FunctionSpec;
use gh_gateway::admission::{AdmissionControl, Decision};
use gh_gateway::cache::{CacheKey, ResultCache};
use gh_gateway::prewarm::Prewarmer;
use gh_gateway::{GatewayConfig, GatewayStats};
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::event::EventQueue;
use gh_sim::{Nanos, QuantileSketch};
use groundhog_core::GroundhogConfig;

use crate::fault::FaultConfig;
use crate::fleet::backend::Event;
use crate::fleet::{
    AutoscaleConfig, Autoscaler, Dispatched, Fleet, FleetConfig, FleetResult, Pending, Pool, Shape,
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
    // Validate the config before the pool's cold starts.
    let gateway = GatewayFleet::new(cfg);
    let mut pool = Pool::build(spec, kind, gh, pool_size, gateway.cfg.fleet.seed)?;
    gateway.run(&mut pool, requests)
}

/// The gateway-fronted fleet driver. Holds only its configuration, and
/// runs take `&self`: each run builds its own router, autoscaler and
/// gateway policy state, so a reused `GatewayFleet` repeats exactly.
pub struct GatewayFleet {
    cfg: GatewayFleetConfig,
    fleet: Fleet,
}

/// One run's gateway policy state: the gate the dispatch kernel's loop
/// ([`Backend::run`](crate::fleet::backend::Backend::run)) passes every
/// arrival and edge through. Each policy is optional. A fleet run arms
/// only its autoscaler, and a cluster node's pools run behind
/// `Gate::default()`, every policy off: it admits every arrival, and its
/// steps change nothing.
#[derive(Default)]
pub(crate) struct Gate {
    cache: Option<ResultCache>,
    admission: Option<AdmissionControl>,
    prewarmer: Option<Prewarmer>,
    /// The reactive autoscaler, stepped only when no pre-warmer is armed.
    pub(crate) scaler: Option<Autoscaler>,
    /// Arrivals the concurrency ceiling deferred, oldest first.
    defer: VecDeque<Pending>,
    /// Deployment generation, bumped by `Redeploy`; cache keys carry it
    /// so stale results can never be served.
    generation: u64,
    /// Arrivals answered from the cache.
    pub(crate) hits: usize,
    cache_peak: u64,
}

impl Gate {
    /// The gate of `cfg`'s policies and `autoscale`, for a run whose span
    /// opens at `t_start`.
    pub(crate) fn new(
        cfg: &GatewayConfig,
        autoscale: Option<AutoscaleConfig>,
        t_start: Nanos,
    ) -> Gate {
        Gate {
            cache: cfg.cache.map(ResultCache::new),
            admission: cfg.admission.map(AdmissionControl::new),
            prewarmer: cfg.prewarm.map(|p| Prewarmer::new(p, t_start)),
            scaler: autoscale.map(Autoscaler::new),
            ..Gate::default()
        }
    }

    /// Principal `principal`'s arrival `p` at `now`. An idempotent hit
    /// is answered at the gateway, its sojourn the cache's hit cost added
    /// to `sojourns`: the backend (and its ceiling) never sees it. Else
    /// the token bucket may shed it and the ceiling defer it. Returns `p`
    /// when it may enter the backend.
    pub(crate) fn arrive(
        &mut self,
        now: Nanos,
        principal: u64,
        p: Pending,
        sojourns: &mut QuantileSketch,
    ) -> Option<Pending> {
        let key = CacheKey {
            fn_id: 0,
            generation: self.generation,
            payload_hash: p.payload_hash,
        };
        let hit_cost = match &mut self.cache {
            Some(c) if p.idempotent => c.lookup(key, now).map(|_| c.config().hit_cost),
            _ => None,
        };
        if let Some(cost) = hit_cost {
            sojourns.record_nanos(cost);
            self.hits += 1;
            return None;
        }
        let admission = self.admission.as_mut();
        match admission.map_or(Decision::Admit, |ac| ac.admit(principal, now)) {
            Decision::Admit => Some(p),
            Decision::Defer => {
                self.defer.push_back(p);
                None
            }
            Decision::Reject => None,
        }
    }

    /// A request entered the backend at `now`: the ceiling's begin edge
    /// and the pre-warmer's arrival observation.
    pub(crate) fn admitted(&mut self, now: Nanos) {
        if let Some(ac) = &mut self.admission {
            ac.begin();
        }
        if let Some(pw) = &mut self.prewarmer {
            pw.observe(now);
        }
    }

    /// A retry re-entered the backend. It was admitted on its first
    /// attempt and keeps its admission, so it never re-pays the token
    /// bucket, but it re-begins the ceiling its crash's `Ready` edge
    /// released.
    pub(crate) fn requeued(&mut self) {
        if let Some(ac) = &mut self.admission {
            ac.begin();
        }
    }

    /// One scaling observation, after an admitted arrival's attempt: the
    /// pre-warmer first (it is the point of this module), else the
    /// reactive autoscaler with `queued` requests waiting. Returns the
    /// grown slot and when it is ready.
    pub(crate) fn scale(
        &mut self,
        now: Nanos,
        pool: &mut Pool,
        queued: usize,
    ) -> Result<Option<(usize, Nanos)>, StrategyError> {
        match (&mut self.prewarmer, &mut self.scaler) {
            (Some(pw), _) => {
                // Mean per-request slot occupancy (execution + restore):
                // the pre-warmer's capacity-planning service time.
                let service_secs = (pool.spec.base_invoker_ms + pool.spec.paper_restore_ms) / 1e3;
                pw.want_grow(now, pool.active(), service_secs)
                    .then(|| pool.grow(now))
                    .transpose()
            }
            (None, Some(scaler)) => scaler.step(now, pool, queued),
            (None, None) => Ok(None),
        }
    }

    /// A `Ready` edge, one per attempt: the completion (or recovery) edge
    /// the concurrency ceiling releases on.
    pub(crate) fn release(&mut self) {
        if let Some(ac) = &mut self.admission {
            ac.end();
        }
    }

    /// The oldest deferral, once the ceiling has room for it.
    pub(crate) fn undefer(&mut self) -> Option<Pending> {
        let room = self.admission.as_ref().is_some_and(|ac| ac.has_capacity());
        room.then(|| self.defer.pop_front()).flatten()
    }

    /// True while no deferral waits.
    pub(crate) fn idle(&self) -> bool {
        self.defer.is_empty()
    }

    /// Fills the result cache from an idempotent response, after its
    /// attempt scheduled the slot's `Ready` edge on `events`. A crashed
    /// attempt produced none, so it never fills the cache.
    pub(crate) fn fill(&mut self, events: &mut EventQueue<Event>, d: Option<Dispatched>) {
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
            events.schedule(at.max(d.resp_at), Event::CacheExpire);
        }
        self.cache_peak = self.cache_peak.max(c.bytes());
    }

    /// A cache entry reached its TTL deadline at `now`.
    pub(crate) fn expire(&mut self, now: Nanos) {
        if let Some(c) = &mut self.cache {
            c.expire_due(now);
        }
    }

    /// New code is live: results produced by the old deployment must
    /// never be served again. Bumping the generation makes stale entries
    /// unreachable (even in-flight fills from old-code responses); the
    /// sweep reclaims their bytes immediately.
    pub(crate) fn redeploy(&mut self) {
        self.generation += 1;
        if let Some(c) = &mut self.cache {
            c.redeploy(0);
        }
    }

    /// Arrivals the token buckets shed.
    pub(crate) fn rejected(&self) -> u64 {
        self.admission.as_ref().map_or(0, |a| a.rejected)
    }
}

impl GatewayFleet {
    /// Creates a driver for `cfg`.
    pub fn new(cfg: GatewayFleetConfig) -> GatewayFleet {
        let mut fleet = Fleet::new(cfg.fleet.clone());
        if let Some(faults) = cfg.faults {
            fleet = fleet.with_faults(faults);
        }
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
        GatewayFleet { cfg, fleet }
    }

    /// Runs `requests` arrivals through the gateway over `pool` until
    /// every arrival is served, shed or abandoned: the fleet's driver
    /// body behind this gateway's gate, with its redeploys on the
    /// timeline. Serial by construction (gateway state is a global
    /// arrival→completion data dependence, like the autoscaler); host
    /// parallelism comes from running sweep *cells* concurrently — see
    /// `gh_bench`'s `gatewaysweep`. Every attempt, fault handling
    /// included, goes through the fleet's dispatch kernel, so container
    /// deaths release the concurrency ceiling on their recovery edge
    /// exactly as completions do.
    pub fn run(&self, pool: &mut Pool, requests: usize) -> Result<GatewayResult, StrategyError> {
        let cfg = &self.cfg;
        // The fleet's arrival source, with the gateway's streams drawn
        // only for the knobs that are on: a pass-through run draws the
        // fleet's requests.
        let shape = Shape {
            idempotent_frac: cfg.idempotent_frac,
            payload_universe: cfg.payload_universe,
            hot_principal_frac: cfg.hot_principal_frac,
            diurnal_amplitude: cfg.diurnal_amplitude,
            diurnal_period: cfg.diurnal_period,
        };
        let (fleet, gate) =
            self.fleet
                .drive(pool, requests, shape, &cfg.gateway, &cfg.redeploys)?;
        let mut gw = GatewayStats {
            served: fleet.completed as u64,
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
        Ok(GatewayResult { fleet, gateway: gw })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::fleet::backend::Backend;
    use crate::fleet::{Arrivals, RoutePolicy, Router};
    use gh_gateway::admission::AdmissionConfig;
    use gh_gateway::cache::CacheConfig;
    use gh_gateway::prewarm::PrewarmConfig;

    /// The pre-fold gate: [`super::Gate`]'s state without the
    /// autoscaler, which the pre-fold loop kept apart, and its steps.
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
            k: &mut Backend,
            pool: &mut Pool,
            router: &mut Router,
            now: Nanos,
            p: Pending,
        ) -> usize {
            let slot = k.admit(now, pool, router, p);
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
        fn fill(&mut self, k: &mut Backend, d: Option<Dispatched>) {
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
                let expire = Event::CacheExpire;
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

    /// The gateway's own event loop before it folded into the kernel's,
    /// kept as the reference its fold is pinned against: it steps the
    /// kernel (`admit`, `dispatch`, `ready`, `retry`, `settled`,
    /// `finish`) and schedules its arrivals on the heap. Only the event
    /// names changed, and the queued count is read off the pool.
    fn reference_run(
        cfg: &GatewayFleetConfig,
        pool: &mut Pool,
        requests: usize,
    ) -> Result<GatewayResult, StrategyError> {
        let t_start = Fleet::span_start(pool);
        let baseline = Fleet::baselines(pool);
        // Mean per-request slot occupancy (execution + restore): the
        // pre-warmer's capacity-planning service time.
        let service_secs = (pool.spec.base_invoker_ms + pool.spec.paper_restore_ms) / 1e3;
        // The fleet's arrival source, with the gateway's streams drawn
        // only for the knobs that are on: a pass-through run draws the
        // fleet's requests.
        let shape = Shape {
            idempotent_frac: cfg.idempotent_frac,
            payload_universe: cfg.payload_universe,
            hot_principal_frac: cfg.hot_principal_frac,
            diurnal_amplitude: cfg.diurnal_amplitude,
            diurnal_period: cfg.diurnal_period,
        };
        let mut arrivals =
            Arrivals::new(&cfg.fleet, shape, pool.spec.input_kb, t_start).take(requests);

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
        let mut k = Backend::new(plan);
        let mut router = Router::new(cfg.fleet.policy);
        let mut scaler = cfg.fleet.autoscale.map(Autoscaler::new);

        // Redeploys are scheduled up front (the schedule is part of the
        // config, not the workload); an empty schedule adds no events
        // and leaves the timeline untouched. Scheduling them before the
        // first arrival means a redeploy tied with an arrival
        // invalidates before the arrival's lookup.
        for &at in &cfg.redeploys {
            k.events.schedule(at, Event::Redeploy);
        }
        let mut upcoming = arrivals.next();
        if let Some((_, p)) = &upcoming {
            k.events.schedule(p.arrival, Event::Arrival);
        }

        while let Some((now, ev)) = k.events.pop() {
            match ev {
                Event::Arrival => {
                    let (pidx, pending) = upcoming.take().expect("an arrival is due");
                    // 1. Result cache: idempotent hits are answered at
                    // the gateway — the backend (and its admission
                    // ceiling) never sees them.
                    let key = CacheKey {
                        fn_id: 0,
                        generation: gate.generation,
                        payload_hash: pending.payload_hash,
                    };
                    let hit_cost = match &mut gate.cache {
                        Some(c) if pending.idempotent => {
                            c.lookup(key, now).map(|_| c.config().hit_cost)
                        }
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
                                Some(gate.enter(&mut k, pool, &mut router, now, pending))
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
                    upcoming = arrivals.next();
                    if let Some((_, next)) = &upcoming {
                        k.events.schedule(next.arrival, Event::Arrival);
                    }
                    if let Some(slot) = slot {
                        let d = k.dispatch(now, pool, slot)?;
                        gate.fill(&mut k, d);
                        // One scaling observation: the pre-warmer first
                        // (it is the point of this module), else the
                        // reactive autoscaler.
                        let grown = match (&mut gate.prewarmer, &mut scaler) {
                            (Some(pw), _) => pw
                                .want_grow(now, pool.active(), service_secs)
                                .then(|| pool.grow(now))
                                .transpose()?,
                            (None, Some(scaler)) => scaler.step(now, pool, pool.queued())?,
                            (None, None) => None,
                        };
                        if let Some((idx, ready)) = grown {
                            let warm = Event::Grown(idx as u32);
                            k.events.schedule(ready, warm);
                        }
                    }
                }
                Event::Ready(s) => {
                    // One Ready per attempt: this is the completion (or
                    // recovery) edge the concurrency ceiling releases on.
                    if let Some(ac) = &mut gate.admission {
                        ac.end();
                    }
                    while gate.admission.as_ref().is_some_and(|ac| ac.has_capacity()) {
                        let Some(deferred) = gate.defer.pop_front() else {
                            break;
                        };
                        let slot = gate.enter(&mut k, pool, &mut router, now, deferred);
                        let d = k.dispatch(now, pool, slot)?;
                        gate.fill(&mut k, d);
                    }
                    let d = k.ready(now, pool, s as usize)?;
                    gate.fill(&mut k, d);
                }
                Event::Retry(token) => {
                    // A killed request's backoff elapsed: re-enter the
                    // backend. The retry was admitted on its first
                    // attempt and keeps its admission (it re-begins the
                    // ceiling it released when the crash's Ready edge
                    // fired), but never re-pays the token bucket.
                    let s = k.retry(now, token, pool, &mut router);
                    if let Some(ac) = &mut gate.admission {
                        ac.begin();
                    }
                    let d = k.dispatch(now, pool, s)?;
                    gate.fill(&mut k, d);
                }
                Event::Grown(s) => {
                    // A cold start completed (pre-warm or autoscale):
                    // serve anything already routed to the new slot.
                    let d = k.ready(now, pool, s as usize)?;
                    gate.fill(&mut k, d);
                }
                Event::CacheExpire => {
                    if let Some(c) = &mut gate.cache {
                        c.expire_due(now);
                    }
                }
                Event::Redeploy => {
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

    /// The prototype workload: 260 r/s from 6 principals, half of them
    /// idempotent over 12 payloads, 30% from a hot principal, under a
    /// 0.6 diurnal swing over 2 s, behind a 400 ms cache, 50 r/s buckets
    /// of burst 20 and a ceiling of 4, on `route`, grown by a pre-warmer
    /// or a 1–4 slot autoscaler.
    fn workload(
        route: RoutePolicy,
        prewarm: bool,
        faults: Option<FaultConfig>,
        redeploys: Vec<Nanos>,
    ) -> GatewayFleetConfig {
        let mut fleet = FleetConfig::fixed(route, 260.0, 7).with_principals(6);
        let mut gateway = GatewayConfig::builder()
            .cache(CacheConfig::default_for_ttl(Nanos::from_millis(400)))
            .admission(AdmissionConfig {
                rate_per_sec: 50.0,
                burst: 20,
                max_in_flight: Some(4),
            })
            .build();
        if prewarm {
            gateway.prewarm = Some(PrewarmConfig::flat(Nanos::from_millis(500), 4));
        } else {
            fleet.autoscale = Some(AutoscaleConfig {
                min_size: 1,
                max_size: 4,
                ..AutoscaleConfig::default()
            });
        }
        GatewayFleetConfig {
            idempotent_frac: 0.5,
            payload_universe: 12,
            hot_principal_frac: 0.3,
            diurnal_amplitude: 0.6,
            diurnal_period: Nanos::from_secs(2),
            faults,
            redeploys,
            ..GatewayFleetConfig::passthrough(fleet)
        }
        .with_gateway(gateway)
    }

    #[test]
    fn the_gateway_run_is_the_pre_fold_loop() {
        // The kernel's loop takes every gateway step the pre-fold loop
        // took, in its order: a `Ready` edge releases the ceiling, then
        // drains deferrals, then attempts its slot; a `Grown` edge
        // releases nothing; the scaling step follows only an admitted
        // arrival's attempt. So every enabled run matches it byte for
        // byte, faults and redeploys included.
        let spec = gh_functions::catalog::by_name("fannkuch (p)").unwrap();
        let pool = || Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 1, 7).unwrap();
        let t_start = Fleet::span_start(&pool());
        let faulty = |retry| FaultConfig {
            restore_failure_rate: 0.05,
            retry,
            ..FaultConfig::deaths(7, 0.1)
        };
        let mut cases = Vec::new();
        for faults in [
            None,
            Some(faulty(RetryPolicy::bounded())),
            Some(faulty(RetryPolicy::rerouting())),
        ] {
            for route in [RoutePolicy::LeastLoaded, RoutePolicy::RestoreAware] {
                for prewarm in [true, false] {
                    for redeploys in [
                        Vec::new(),
                        vec![
                            t_start + Nanos::from_millis(250),
                            t_start + Nanos::from_millis(500),
                        ],
                    ] {
                        cases.push(workload(route, prewarm, faults, redeploys));
                    }
                }
            }
        }
        // Redeploys on arrivals' exact instants: the first arrival's and
        // a later idempotent one's. The pre-fold loop scheduled its
        // arrivals on the heap; the kernel holds them back, so these pin
        // the tie (the redeploy, scheduled first, invalidates first).
        let tied = workload(RoutePolicy::LeastLoaded, true, None, Vec::new());
        let shape = Shape {
            idempotent_frac: tied.idempotent_frac,
            payload_universe: tied.payload_universe,
            hot_principal_frac: tied.hot_principal_frac,
            diurnal_amplitude: tied.diurnal_amplitude,
            diurnal_period: tied.diurnal_period,
        };
        let arrivals: Vec<(u64, Pending)> =
            Arrivals::new(&tied.fleet, shape, spec.input_kb, t_start)
                .take(200)
                .collect();
        let later = arrivals[100..].iter().find(|(_, p)| p.idempotent).unwrap();
        cases.push(GatewayFleetConfig {
            redeploys: vec![arrivals[0].1.arrival, later.1.arrival],
            ..tied
        });

        let mut seen = GatewayStats::default();
        let (mut spawned, mut deaths) = (0, 0);
        for cfg in &cases {
            let folded = GatewayFleet::new(cfg.clone())
                .run(&mut pool(), 200)
                .unwrap();
            let reference = reference_run(cfg, &mut pool(), 200).unwrap();
            assert_eq!(
                format!("{folded:?}"),
                format!("{reference:?}"),
                "{:?} prewarm={} faults={:?} redeploys={:?}",
                cfg.fleet.policy,
                cfg.gateway.prewarm.is_some(),
                cfg.faults,
                cfg.redeploys
            );
            let g = folded.gateway;
            seen.cache_hits += g.cache_hits;
            seen.rejected += g.rejected;
            seen.deferred += g.deferred;
            seen.cache_expired += g.cache_expired;
            seen.cache_invalidated += g.cache_invalidated;
            seen.prewarm_spawns += g.prewarm_spawns;
            spawned += folded.fleet.stats.spawned;
            deaths += folded.fleet.stats.faults.deaths;
        }
        println!("{seen:?}, autoscaler spawns {spawned}, deaths {deaths}");
        for (what, n) in [
            ("hits", seen.cache_hits),
            ("rejects", seen.rejected),
            ("defers", seen.deferred),
            ("expiries", seen.cache_expired),
            ("invalidations", seen.cache_invalidated),
            ("pre-warm spawns", seen.prewarm_spawns),
            ("autoscaler spawns", spawned as u64),
            ("deaths", deaths),
        ] {
            assert!(n > 0, "the cases must exercise {what}");
        }
    }
}
