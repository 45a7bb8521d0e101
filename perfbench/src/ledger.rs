//! The traced run: bench-side replicas of the cluster node loop and the
//! fleet loop, built only from public layer calls, with a wall-clock lap
//! after each call.
//!
//! A replica must reproduce the untraced run's completions and sojourn
//! sketch exactly — that is what makes its layer times a ledger of the
//! real run rather than of a look-alike. Laps are chained (one
//! `Instant::now` per boundary): the interval since the previous lap is
//! charged to the layer named at the lap, so glue code between layer
//! calls is lapped to [`Layer::Other`] wherever there is any.
//!
//! `Slot::dispatch` hides execution and restore inside
//! `Container::invoke`. The split pass ([`replay`]) replays the
//! dispatched requests on fresh copies of the same pools through the
//! public steps of `Container::invoke` — proxy charge, `Strategy::admit`,
//! `Executor::invoke`, `Strategy::conclude` — and report only how the
//! host time divides between them: the container's jitter RNG is
//! private, so the replay's virtual timeline differs from the real one.

use std::time::{Duration, Instant};

use gh_faas::cluster::{FrontDecision, GatewayFront, Placer};
use gh_faas::fault::{FaultPlan, FaultStats};
use gh_faas::fleet::{DepthTracker, Dispatched, Pending, Pool, RoutePolicy, Router};
use gh_faas::proxy;
use gh_faas::trace::{TraceEvent, TraceGen};
use gh_functions::behavior::{Executor, RequestCtx};
use gh_isolation::StrategyError;
use gh_sim::event::EventQueue;
use gh_sim::{DetRng, Nanos, QuantileSketch};
use groundhog_core::GroundhogConfig;

use crate::workload::{build_fleet_pool, ClusterInputs, FleetInputs, Inputs, Outcome, Workload};

/// A layer of the simulator, named by module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Pool::build` (container cold starts and snapshots).
    Setup,
    /// `TraceGen::next` / the fleet's arrival draws.
    Trace,
    /// `GatewayFront::decide`.
    Front,
    /// `Placer::place` plus the failover scan over `FaultPlan::node_down`.
    Place,
    /// `EventQueue::schedule` and `pop`.
    Event,
    /// `Router::route` / `route_avoiding`.
    Router,
    /// `AdmissionQueue::push` and `DepthTracker::record`.
    Queue,
    /// `Slot::dispatch`.
    Container,
    /// Fault draws, `Slot::crash`, `Slot::fail_restore`, retry parking.
    Fault,
    /// `QuantileSketch::record_nanos`.
    Sketch,
    /// Replica glue between layer calls.
    Other,
}

const LAYERS: usize = 11;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Setup,
        Layer::Trace,
        Layer::Front,
        Layer::Place,
        Layer::Event,
        Layer::Router,
        Layer::Queue,
        Layer::Container,
        Layer::Fault,
        Layer::Sketch,
        Layer::Other,
    ];

    /// Module-style name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Trace => "trace",
            Layer::Front => "front",
            Layer::Place => "place",
            Layer::Event => "event",
            Layer::Router => "router",
            Layer::Queue => "queue",
            Layer::Container => "container",
            Layer::Fault => "fault",
            Layer::Sketch => "sketch",
            Layer::Other => "other",
        }
    }
}

/// Chained lap timer: wall-clock per layer.
pub struct Laps {
    last: Instant,
    ns: [u128; LAYERS],
}

impl Laps {
    fn new() -> Laps {
        Laps {
            last: Instant::now(),
            ns: [0; LAYERS],
        }
    }

    /// Restarts the lap without charging anyone (time outside the
    /// traced region).
    fn resume(&mut self) {
        self.last = Instant::now();
    }

    /// Charges the time since the previous lap to `layer`.
    #[inline]
    fn lap(&mut self, layer: Layer) {
        let now = Instant::now();
        self.ns[layer as usize] += (now - self.last).as_nanos();
        self.last = now;
    }

    /// Nanoseconds charged to `layer`.
    pub fn ns(&self, layer: Layer) -> u128 {
        self.ns[layer as usize]
    }
}

/// Work counts taken at the same boundaries as the laps.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// `TraceGen::next` events yielded, summed over every replay.
    pub trace_events: u64,
    /// `GatewayFront::decide` calls.
    pub front_decides: u64,
    /// Arrivals served by the front's cache (coordinator fold).
    pub front_hits: u64,
    /// `Placer::place` calls.
    pub place_calls: u64,
    /// `EventQueue::schedule` + `pop` calls.
    pub event_ops: u64,
    /// Largest event-queue length seen on any node.
    pub event_max_len: usize,
    /// Arrivals that reached a node's admission queue.
    pub backend_arrivals: u64,
    /// Successful `Slot::dispatch` calls.
    pub dispatches: u64,
    /// Dispatch attempts, crashed ones included.
    pub attempts: u64,
    /// Virtual admission-queue wait summed over dispatches, ns.
    pub wait_ns: u128,
    /// Virtual execution (start → response) summed over dispatches, ns.
    pub exec_ns: u128,
    /// Virtual off-path time (response → ready) summed, ns.
    pub offpath_ns: u128,
    /// Restore-report sums over dispatches.
    pub dirty_pages: u64,
    /// Pages written back from the snapshot.
    pub pages_restored: u64,
    /// Contiguous runs those pages formed.
    pub runs: u64,
    /// Restore time hidden in idle gaps / total restore time, summed
    /// over slots after settling.
    pub restore_hidden: Nanos,
    /// Total restore time over slots.
    pub restore_total: Nanos,
    /// Containers built.
    pub containers: u64,
    /// Fault accounting of the replica.
    pub faults: FaultStats,
}

/// Host time of the split pass, by step of `Container::invoke`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    /// Proxy charge plus `Strategy::admit`.
    pub admit_ns: u128,
    /// `Executor::invoke` (the gh-mem touch batch).
    pub exec_ns: u128,
    /// `Strategy::conclude` (the groundhog-core restore).
    pub restore_ns: u128,
    /// Requests replayed.
    pub requests: u64,
}

impl Split {
    fn total(&self) -> u128 {
        self.admit_ns + self.exec_ns + self.restore_ns
    }

    /// Share of container host time spent executing.
    pub fn exec_share(&self) -> f64 {
        self.exec_ns as f64 / self.total().max(1) as f64
    }

    /// Share of container host time spent restoring.
    pub fn restore_share(&self) -> f64 {
        self.restore_ns as f64 / self.total().max(1) as f64
    }
}

/// Everything the traced run measured.
pub struct Traced {
    /// Per-layer wall-clock.
    pub laps: Laps,
    /// Wall-clock of the traced region.
    pub wall: Duration,
    /// Wall-clock of the untraced serial reference.
    pub untraced_wall: Duration,
    /// Work counts.
    pub counts: Counts,
    /// Split-pass shares.
    pub split: Split,
    /// The untraced serial reference's outcome.
    pub reference: Outcome,
}

impl Traced {
    /// Sum of the named layers' time over the traced wall-clock.
    pub fn closure(&self) -> f64 {
        let named: u128 = Layer::ALL
            .iter()
            .filter(|&&l| l != Layer::Other)
            .map(|&l| self.laps.ns(l))
            .sum();
        named as f64 / self.wall.as_nanos().max(1) as f64
    }

    /// Traced over untraced wall-clock.
    pub fn overhead(&self) -> f64 {
        self.wall.as_secs_f64() / self.untraced_wall.as_secs_f64().max(1e-9)
    }
}

/// A dispatched request, as the split pass replays it.
struct Served {
    pool: u32,
    slot: u32,
    id: u64,
    principal: String,
    input_kb: u64,
}

/// splitmix64 finalizer: the cluster's per-pool container seed hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs the untraced serial reference, the traced replica and the split
/// pass, and checks the replica against the reference.
pub fn run(w: &Workload) -> Result<Traced, String> {
    let (untraced_wall, reference) = w.serial_reference().map_err(|e| e.to_string())?;
    let mut laps = Laps::new();
    let mut counts = Counts::default();
    let (wall, replica, split) = match &w.inputs {
        Inputs::Cluster(c) => traced_cluster(c, &mut laps, &mut counts),
        Inputs::Fleet(f) => traced_fleet(f, &mut laps, &mut counts),
    }
    .map_err(|e| e.to_string())?;
    check_replica(&reference, &replica)?;
    Ok(Traced {
        laps,
        wall,
        untraced_wall,
        counts,
        split,
        reference,
    })
}

/// What the replica reproduced, for comparison with the reference.
struct Replica {
    completed: u64,
    sojourns: QuantileSketch,
    faults: FaultStats,
}

fn check_replica(reference: &Outcome, replica: &Replica) -> Result<(), String> {
    let mut diffs = Vec::new();
    if replica.completed != reference.completed {
        diffs.push(format!(
            "completed {} vs {}",
            replica.completed, reference.completed
        ));
    }
    for (q, want) in &reference.quantiles {
        let got = replica.sojourns.quantile_ms(*q);
        if got.to_bits() != want.to_bits() {
            diffs.push(format!("p{q} {got} vs {want}"));
        }
    }
    let mean = replica.sojourns.mean_ms();
    if mean.to_bits() != reference.mean_ms.to_bits() {
        diffs.push(format!("mean {mean} vs {}", reference.mean_ms));
    }
    if replica.faults != reference.faults {
        diffs.push(format!("{:?} vs {:?}", replica.faults, reference.faults));
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "traced replica diverged from the untraced run: {}",
            diffs.join("; ")
        ))
    }
}

/// The trace fold one node replays: generator → front → placer →
/// failover scan, keeping the arrivals that land on `node`.
struct Feed<'a> {
    node: usize,
    c: &'a ClusterInputs,
    gen: TraceGen,
    front: Option<GatewayFront>,
    placer: Placer,
    plan: Option<FaultPlan>,
    failovers: u64,
    all_down: u64,
}

impl Feed<'_> {
    fn next(&mut self, laps: &mut Laps, k: &mut Counts) -> Option<TraceEvent> {
        // The fold's own glue (counters, the skip branches) is charged to
        // the generator call that follows it, as in the node loop's
        // closure; a separate lap per event would cost more than the glue.
        loop {
            let ev = self.gen.next();
            laps.lap(Layer::Trace);
            let ev = ev?;
            k.trace_events += 1;
            let f = ev.fn_id as usize;
            if let Some(front) = &mut self.front {
                let d = front.decide(&ev, self.c.catalog[f].output_kb);
                laps.lap(Layer::Front);
                k.front_decides += 1;
                if d != FrontDecision::Backend {
                    continue;
                }
            }
            let target = self.placer.place(f);
            k.place_calls += 1;
            let Some(pl) = &self.plan else {
                laps.lap(Layer::Place);
                if target == self.node {
                    return Some(ev);
                }
                continue;
            };
            if !pl.node_down(target, ev.at) {
                laps.lap(Layer::Place);
                if target == self.node {
                    return Some(ev);
                }
                continue;
            }
            let pick = self.placer.candidates(f).find(|&n| !pl.node_down(n, ev.at));
            laps.lap(Layer::Place);
            match pick {
                Some(n) if n == self.node => {
                    self.failovers += 1;
                    return Some(ev);
                }
                Some(_) => {}
                None => {
                    if self.node == 0 {
                        self.all_down += 1;
                    }
                }
            }
        }
    }
}

/// Node-local events, as in the node loop.
enum NodeEv {
    Arrival,
    Ready(u32, u32),
    Retry(u32),
}

/// Virtual-time accounting of one successful dispatch.
fn account(k: &mut Counts, pool: &Pool, si: usize, start: Nanos, d: &Dispatched) {
    let slot = &pool.slots[si];
    k.dispatches += 1;
    k.attempts += 1;
    let queued = d.sojourn - (d.resp_at - start);
    k.wait_ns += queued.as_nanos() as u128;
    k.exec_ns += (d.resp_at - start).as_nanos() as u128;
    k.offpath_ns += (d.ready_at - d.resp_at).as_nanos() as u128;
    if let Some(r) = slot
        .container
        .stats
        .last_post
        .as_ref()
        .and_then(|p| p.restore.as_ref())
    {
        k.dirty_pages += r.dirty_pages;
        k.pages_restored += r.pages_restored;
        k.runs += r.runs;
    }
}

/// Pool seeds and placement predicate as the cluster derives them.
fn build_node_pools(
    node: usize,
    c: &ClusterInputs,
    placer: &Placer,
) -> Result<(Vec<Pool>, Vec<Option<u32>>), StrategyError> {
    let nf = c.trace.functions as usize;
    let mut pools = Vec::new();
    let mut pool_of = vec![None; nf];
    for (f, spec) in c.catalog.iter().enumerate().take(nf) {
        if !placer.hosts(node, f) {
            continue;
        }
        let seed = mix(c.ccfg.seed ^ ((node as u64) << 32) ^ f as u64);
        pool_of[f] = Some(pools.len() as u32);
        pools.push(Pool::build(
            spec,
            c.ccfg.kind,
            GroundhogConfig::gh(),
            c.ccfg.slots_per_pool,
            seed,
        )?);
    }
    Ok((pools, pool_of))
}

fn new_placer(c: &ClusterInputs) -> Placer {
    let nf = c.trace.functions as usize;
    Placer::new(
        c.ccfg.policy,
        c.ccfg.nodes,
        c.ccfg.replicas,
        &c.catalog[..nf],
        c.ccfg.seed,
    )
}

fn traced_cluster(
    c: &ClusterInputs,
    laps: &mut Laps,
    k: &mut Counts,
) -> Result<(Duration, Replica, Split), StrategyError> {
    assert!(
        c.ccfg.autoscale.is_none() && c.ccfg.redeploys.is_empty(),
        "the replica covers fixed-size clusters without redeploys"
    );
    let mut wall = Duration::ZERO;
    let mut split = Split::default();
    let mut sojourns = QuantileSketch::new();
    let mut completed = 0u64;

    // Coordinator pass of a gateway run: one pure front fold over the
    // trace, recording the hits' front-side sojourns.
    if let Some(g) = &c.gateway {
        let t0 = Instant::now();
        laps.resume();
        let mut front = GatewayFront::new(g);
        let hit_cost = front.hit_cost();
        let mut gen = TraceGen::new(&c.trace);
        laps.lap(Layer::Other);
        loop {
            let ev = gen.next();
            laps.lap(Layer::Trace);
            let Some(ev) = ev else { break };
            k.trace_events += 1;
            let d = front.decide(&ev, c.catalog[ev.fn_id as usize].output_kb);
            laps.lap(Layer::Front);
            k.front_decides += 1;
            if d == FrontDecision::Hit {
                sojourns.record_nanos(hit_cost);
                laps.lap(Layer::Sketch);
            }
        }
        k.front_hits = front.hits;
        completed += front.hits;
        wall += t0.elapsed();
    }

    for node in 0..c.ccfg.nodes {
        let t0 = Instant::now();
        laps.resume();
        let (node_done, node_sojourns, log) = traced_node(node, c, laps, k)?;
        wall += t0.elapsed();
        completed += node_done;
        sojourns.merge(&node_sojourns);
        split_node(node, c, &log, &mut split)?;
    }
    Ok((
        wall,
        Replica {
            completed,
            sojourns,
            faults: k.faults,
        },
        split,
    ))
}

/// One node's timeline, replicating the cluster's node loop.
fn traced_node(
    node: usize,
    c: &ClusterInputs,
    laps: &mut Laps,
    k: &mut Counts,
) -> Result<(u64, QuantileSketch, Vec<Served>), StrategyError> {
    let placer = new_placer(c);
    let (mut pools, pool_of) = build_node_pools(node, c, &placer)?;
    let mut routers: Vec<Router> = pools
        .iter()
        .map(|_| Router::new(RoutePolicy::RoundRobin))
        .collect();
    let restore_cost: Vec<Nanos> = pools
        .iter()
        .map(|p| Nanos::from_millis_f64(p.spec.paper_restore_ms))
        .collect();
    k.containers += pools.iter().map(|p| p.slots.len() as u64).sum::<u64>();
    let principals: Vec<String> = (0..c.trace.principals)
        .map(|p| format!("user-{p}"))
        .collect();
    let plan = c.ccfg.faults.filter(|f| f.is_active()).map(FaultPlan::new);
    let reroute = plan.map(|p| p.config().retry.reroute).unwrap_or(false);
    let mut feed = Feed {
        node,
        c,
        gen: TraceGen::new(&c.trace),
        front: c.gateway.as_ref().map(GatewayFront::new),
        placer,
        plan,
        failovers: 0,
        all_down: 0,
    };
    laps.lap(Layer::Setup);

    let mut events: EventQueue<NodeEv> = EventQueue::new();
    let mut upcoming = feed.next(laps, k);
    if let Some(ev) = &upcoming {
        events.schedule(ev.at, NodeEv::Arrival);
        laps.lap(Layer::Event);
        k.event_ops += 1;
    }
    let mut sojourns = QuantileSketch::new();
    let mut depth = DepthTracker::new();
    let mut completed = 0u64;
    let mut queued = 0usize;
    let mut parked: Vec<Option<(Pending, usize, usize)>> = Vec::new();
    let mut fstats = FaultStats::default();
    let mut log: Vec<Served> = Vec::new();
    laps.lap(Layer::Other);

    loop {
        let popped = events.pop();
        laps.lap(Layer::Event);
        let Some((now, ev)) = popped else { break };
        k.event_ops += 1;
        let is_ready = matches!(ev, NodeEv::Ready(..));
        let (pi, si) = match ev {
            NodeEv::Arrival => {
                let a = upcoming.take().expect("arrival without a trace event");
                let pi = pool_of[a.fn_id as usize].expect("placed on a non-replica") as usize;
                laps.lap(Layer::Other);
                let si = routers[pi].route(
                    now,
                    &principals[a.principal as usize],
                    restore_cost[pi],
                    &pools[pi].slots,
                );
                laps.lap(Layer::Router);
                let pool = &mut pools[pi];
                pool.slots[si].queue.push(Pending {
                    id: a.seq,
                    principal: principals[a.principal as usize].clone(),
                    input_kb: pool.spec.input_kb,
                    arrival: a.at,
                    payload_hash: a.payload_hash,
                    idempotent: a.idempotent,
                    attempt: 1,
                });
                queued += 1;
                depth.record(queued);
                laps.lap(Layer::Queue);
                k.backend_arrivals += 1;
                upcoming = feed.next(laps, k);
                laps.lap(Layer::Other);
                if let Some(next) = &upcoming {
                    events.schedule(next.at, NodeEv::Arrival);
                    laps.lap(Layer::Event);
                    k.event_ops += 1;
                    k.event_max_len = k.event_max_len.max(events.len());
                }
                (pi, si)
            }
            NodeEv::Ready(pi, si) => (pi as usize, si as usize),
            NodeEv::Retry(token) => {
                let (p, pi, died_si) = parked[token as usize]
                    .take()
                    .expect("retry token fired twice");
                laps.lap(Layer::Fault);
                let si = if reroute {
                    let si = routers[pi].route_avoiding(
                        now,
                        &p.principal,
                        restore_cost[pi],
                        &pools[pi].slots,
                        Some(died_si),
                    );
                    laps.lap(Layer::Router);
                    si
                } else {
                    died_si
                };
                pools[pi].slots[si].queue.push(p);
                queued += 1;
                depth.record(queued);
                laps.lap(Layer::Queue);
                (pi, si)
            }
        };
        let head = {
            let slot = &pools[pi].slots[si];
            if slot.idle_at(now) {
                slot.queue
                    .peek()
                    .map(|p| (p.id, p.attempt, p.principal.clone(), p.input_kb))
            } else {
                None
            }
        };
        let start = now.max(pools[pi].slots[si].container.now());
        laps.lap(Layer::Other);
        if let Some((id, attempt, principal, input_kb)) = head {
            let death = plan.as_ref().and_then(|pl| pl.death(id, attempt));
            if plan.is_some() {
                laps.lap(Layer::Fault);
            }
            if let (Some(pl), Some(frac)) = (&plan, death) {
                let slot = &mut pools[pi].slots[si];
                let (mut pending, ready) =
                    slot.crash(now, frac).expect("idle slot with a queued head");
                queued -= 1;
                fstats.deaths += 1;
                k.attempts += 1;
                if pl.death_after_commit(id, attempt) {
                    fstats.duplicates += 1;
                }
                if attempt < pl.max_attempts() {
                    fstats.retries += 1;
                    pending.attempt += 1;
                    let backoff_at = now + pl.backoff(attempt);
                    let retry_at = if reroute {
                        backoff_at
                    } else {
                        backoff_at.max(ready)
                    };
                    let token = parked.len() as u32;
                    parked.push(Some((pending, pi, si)));
                    laps.lap(Layer::Fault);
                    events.schedule(retry_at, NodeEv::Retry(token));
                    laps.lap(Layer::Event);
                    k.event_ops += 1;
                } else {
                    fstats.abandoned += 1;
                    laps.lap(Layer::Fault);
                }
                events.schedule(ready, NodeEv::Ready(pi as u32, si as u32));
                laps.lap(Layer::Event);
                k.event_ops += 1;
                k.event_max_len = k.event_max_len.max(events.len());
            } else {
                let d = pools[pi].slots[si].dispatch(now)?;
                laps.lap(Layer::Container);
                if let Some(d) = d {
                    sojourns.record_nanos(d.sojourn);
                    laps.lap(Layer::Sketch);
                    completed += 1;
                    queued -= 1;
                    account(k, &pools[pi], si, start, &d);
                    log.push(Served {
                        pool: pi as u32,
                        slot: si as u32,
                        id,
                        principal,
                        input_kb,
                    });
                    laps.lap(Layer::Other);
                    let ready = match &plan {
                        Some(pl) if pl.restore_failure(id, attempt) => {
                            fstats.restore_failures += 1;
                            let r = pools[pi].slots[si].fail_restore();
                            laps.lap(Layer::Fault);
                            r
                        }
                        _ => d.ready_at,
                    };
                    events.schedule(ready, NodeEv::Ready(pi as u32, si as u32));
                    laps.lap(Layer::Event);
                    k.event_ops += 1;
                    k.event_max_len = k.event_max_len.max(events.len());
                }
            }
        }
        if is_ready {
            depth.record(queued);
            laps.lap(Layer::Queue);
        }
    }
    assert_eq!(queued, 0, "queues must drain");
    fstats.node_losses = feed.failovers;
    fstats.abandoned += feed.all_down;
    for pool in &mut pools {
        for s in &mut pool.slots {
            s.settle();
            k.restore_total += s.restore_total;
            k.restore_hidden += s.restore_hidden;
        }
    }
    k.faults.merge(&fstats);
    laps.lap(Layer::Other);
    drop(pools);
    laps.lap(Layer::Setup);
    Ok((completed, sojourns, log))
}

/// Split pass for one node: fresh copies of its pools replay the
/// requests each container served, step by step.
fn split_node(
    node: usize,
    c: &ClusterInputs,
    log: &[Served],
    split: &mut Split,
) -> Result<(), StrategyError> {
    let placer = new_placer(c);
    let (mut pools, _) = build_node_pools(node, c, &placer)?;
    replay(&mut pools, log, split)
}

/// Replays `log` through the public steps of `Container::invoke`.
fn replay(pools: &mut [Pool], log: &[Served], split: &mut Split) -> Result<(), StrategyError> {
    let mut seqs: Vec<Vec<u64>> = pools.iter().map(|p| vec![0; p.slots.len()]).collect();
    for s in log {
        let seq = &mut seqs[s.pool as usize][s.slot as usize];
        *seq += 1;
        let c = &mut pools[s.pool as usize].slots[s.slot as usize].container;
        let t0 = Instant::now();
        let cost = proxy::interposition_cost(
            &c.kernel.cost,
            c.kind(),
            c.spec.runtime,
            s.input_kb + c.spec.output_kb,
        );
        c.kernel.charge(cost);
        let target = c.strategy.admit(&mut c.kernel, &c.fproc, &s.principal)?;
        assert_eq!(target.pid(), c.fproc.pid, "GH runs requests in place");
        let t1 = Instant::now();
        c.fproc.invocations = *seq;
        let ctx = RequestCtx::new(s.id, &s.principal, *seq);
        std::hint::black_box(Executor::invoke(&mut c.kernel, &mut c.fproc, &c.spec, &ctx));
        let t2 = Instant::now();
        std::hint::black_box(c.strategy.conclude(&mut c.kernel, &c.fproc)?);
        let t3 = Instant::now();
        split.admit_ns += (t1 - t0).as_nanos();
        split.exec_ns += (t2 - t1).as_nanos();
        split.restore_ns += (t3 - t2).as_nanos();
        split.requests += 1;
    }
    Ok(())
}

/// Next inter-arrival gap of the fleet's Poisson process.
fn poisson_gap(offered_rps: f64, rng: &mut DetRng) -> Nanos {
    let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    Nanos::from_millis_f64(-u.ln() / offered_rps * 1e3)
}

/// Fleet events, as in the fleet loop.
enum FleetEv {
    Arrival,
    Ready(usize),
}

/// The fleet's serial loop (fault-free, no autoscaler), traced.
fn traced_fleet(
    f: &FleetInputs,
    laps: &mut Laps,
    k: &mut Counts,
) -> Result<(Duration, Replica, Split), StrategyError> {
    assert!(
        f.cfg.autoscale.is_none() && f.cfg.principals <= 1,
        "the replica covers fixed-size single-principal fleets"
    );
    let t0 = Instant::now();
    laps.resume();
    let mut pool = build_fleet_pool(f)?;
    let mut router = Router::new(f.cfg.policy);
    k.containers += pool.slots.len() as u64;
    laps.lap(Layer::Setup);

    let requests = f.requests;
    let input_kb = pool.spec.input_kb;
    let t_start = pool
        .slots
        .iter()
        .map(|s| s.ready_at)
        .max()
        .unwrap_or(Nanos::ZERO);
    let restore_cost = Nanos::from_millis_f64(pool.spec.paper_restore_ms);
    let mut arrival_rng = DetRng::new(f.cfg.seed ^ 0x09E4_100D);
    let mut events: EventQueue<FleetEv> = EventQueue::new();
    let mut next_arrival = t_start;
    next_arrival += poisson_gap(f.cfg.offered_rps, &mut arrival_rng);
    laps.lap(Layer::Trace);
    k.trace_events += 1;
    events.schedule(next_arrival, FleetEv::Arrival);
    laps.lap(Layer::Event);
    k.event_ops += 1;
    let mut generated = 1usize;
    let mut next_id = 1u64;
    let mut depth = DepthTracker::new();
    let mut sojourns = QuantileSketch::new();
    let mut completed = 0usize;
    let mut log: Vec<Served> = Vec::new();
    laps.lap(Layer::Other);

    loop {
        let popped = events.pop();
        laps.lap(Layer::Event);
        let Some((now, ev)) = popped else { break };
        k.event_ops += 1;
        let idx = match ev {
            FleetEv::Arrival => {
                let id = next_id;
                next_id += 1;
                let principal = "client".to_string();
                laps.lap(Layer::Trace);
                let idx = router.route(now, &principal, restore_cost, &pool.slots);
                laps.lap(Layer::Router);
                pool.slots[idx].queue.push(Pending {
                    id,
                    principal,
                    input_kb,
                    arrival: now,
                    payload_hash: 0,
                    idempotent: false,
                    attempt: 1,
                });
                depth.record(pool.queued());
                laps.lap(Layer::Queue);
                k.backend_arrivals += 1;
                if generated < requests {
                    next_arrival += poisson_gap(f.cfg.offered_rps, &mut arrival_rng);
                    laps.lap(Layer::Trace);
                    k.trace_events += 1;
                    events.schedule(next_arrival, FleetEv::Arrival);
                    laps.lap(Layer::Event);
                    k.event_ops += 1;
                    generated += 1;
                }
                idx
            }
            FleetEv::Ready(idx) => idx,
        };
        let head = {
            let slot = &pool.slots[idx];
            if slot.idle_at(now) {
                slot.queue.peek().map(|p| (p.id, p.principal.clone()))
            } else {
                None
            }
        };
        let start = now.max(pool.slots[idx].container.now());
        laps.lap(Layer::Other);
        let d = pool.slots[idx].dispatch(now)?;
        laps.lap(Layer::Container);
        if let Some(d) = d {
            sojourns.record_nanos(d.sojourn);
            laps.lap(Layer::Sketch);
            completed += 1;
            account(k, &pool, idx, start, &d);
            let (id, principal) = head.expect("a dispatch pops the head");
            log.push(Served {
                pool: 0,
                slot: idx as u32,
                id,
                principal,
                input_kb,
            });
            laps.lap(Layer::Other);
            events.schedule(d.ready_at, FleetEv::Ready(idx));
            laps.lap(Layer::Event);
            k.event_ops += 1;
            k.event_max_len = k.event_max_len.max(events.len());
        }
        if matches!(ev, FleetEv::Ready(_)) {
            depth.record(pool.queued());
            laps.lap(Layer::Queue);
        }
        if completed == requests && pool.queued() == 0 {
            break;
        }
    }
    for s in &mut pool.slots {
        s.settle();
        k.restore_total += s.restore_total;
        k.restore_hidden += s.restore_hidden;
    }
    laps.lap(Layer::Other);
    drop(pool);
    laps.lap(Layer::Setup);
    let wall = t0.elapsed();

    let mut split = Split::default();
    let mut fresh = build_fleet_pool(f)?;
    replay(std::slice::from_mut(&mut fresh), &log, &mut split)?;
    Ok((
        wall,
        Replica {
            completed: completed as u64,
            sojourns,
            faults: FaultStats::default(),
        },
        split,
    ))
}
