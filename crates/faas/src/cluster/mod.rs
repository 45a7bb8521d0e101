//! Cluster-scale simulation: N worker nodes, each an independent fleet
//! on its own virtual timeline, behind a deterministic placement
//! front-end.
//!
//! `run_fleet` drives one pool on one host; the paper's setting is a
//! cloud. This module models the next level up:
//!
//! - every **node** hosts a pool per function deployed to it (its
//!   replica set, see [`place`]) and runs all of its pools through the
//!   fleet's own event loop, the dispatch kernel's, on one node-local
//!   [`gh_sim::event::EventQueue`] — admission queues, overlap
//!   accounting, the attempt semantics under faults (crash, park, retry
//!   within the node, abandon, restore failure) and the end of the run
//!   (the first event after which every arrival is served or abandoned)
//!   are the fleet's own, not a copy, so a one-node cluster fed a
//!   round-robin fleet's arrivals is that fleet bit for bit;
//! - the **front-end** ([`Placer`]) assigns each trace event to a node
//!   using only deterministic coordinator state (cursors, expected
//!   work), never node progress;
//! - the **workload** is a seeded [`TraceGen`] stream folded **once**,
//!   on the calling thread, before any pool is built: generator →
//!   gateway front (if any) → placer → autoscaler (if armed) →
//!   failover scan. The fold appends each backend-bound arrival, in
//!   trace order, to its node's list, and counts failovers,
//!   all-replicas-down drops and the scaler's counters once. Each list
//!   entry is a 40 B [`TraceEvent`] held until the nodes finish, so the
//!   lists cost 40 B per backend-bound request (~40 MB at 10⁶
//!   requests).
//!
//! # Host-parallel execution
//!
//! Because placement never reads node state, a node's entire timeline
//! is a pure function of `(trace config, catalog, cluster config, node
//! index)`. Node timelines are therefore *embarrassingly* parallel —
//! the plan/shard/merge discipline with the sharding moved up one
//! level: workers claim node indices from an atomic cursor and the
//! coordinator merges per-node results **in node-index order** — the
//! same ordered work-stealing map ([`gh_sim::par::ordered_map`]) that
//! shards sweep cells.
//! Per-node stats live in exact-merge [`QuantileSketch`]es, so the
//! merged result is independent of completion order and bit-identical
//! to the serial reference — enforced by `tests/cluster_oracle.rs`
//! across seeds × policies × node counts × pool sizes.
//!
//! Inside a node the same purity holds one level down: a node's pools
//! route round-robin, and a fault couples the slots of one pool (a
//! crash delays its slot, a rerouted retry takes the pool's cursor) but
//! never two pools, since retries stay in their pool. In a run with ≥ 2
//! threads every node, faulty or not, therefore executes ahead pool by
//! pool on its own worker (rule on [`ExecMode`]): each pool runs the
//! kernel's loop over the node's arrival list, admitting only its own
//! arrivals, while its slots log every step, then the node's loop runs
//! once while every slot replays its log (`fleet::par`). That buys
//! cache locality, not parallelism: the interleaved loop touches the
//! node's containers in trace order, evicting each one's extents,
//! frames and snapshot between its requests. Serial runs keep the
//! interleaved loop, the reference.
//!
//! The fold finishes before the first node starts rather than streaming
//! arrivals to concurrently live nodes over bounded channels: streaming
//! would keep every node's pools resident at once (~25 MiB per node),
//! while claiming whole nodes keeps at most `threads` nodes' pools live
//! — far more memory than the arrival lists cost.
//!
//! Stats memory is sketch-bounded: each node carries two fixed-size
//! sketches (~30 KiB each) regardless of request count
//! ([`ClusterResult::stats_bytes`]).
//!
//! # Failure-aware autoscaling
//!
//! [`scale`] adds a pure virtual-time controller over the node count:
//! armed via [`ClusterConfig::with_autoscale`], the coordinator fold
//! steps one [`NodeScaler`] over every backend-bound arrival, right
//! after the placer, growing the active set under queue pressure or
//! observed loss and cordoning + draining the top node in quiet
//! windows. Because the fold reads only the trace prefix and the
//! deterministic fault schedule, autoscaled placement remains
//! coordinator-pure and host-parallel runs stay bit-identical to
//! serial. Redeploy schedules fold into the gateway front the same way
//! ([`ClusterConfig::with_redeploys`]): generation bumps invalidate
//! cached results at pure points of the trace clock.

pub mod front;
pub mod place;
pub mod scale;

use gh_functions::FunctionSpec;
use gh_gateway::{GatewayConfig, GatewayStats};
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::par::ordered_map;
use gh_sim::stats::throughput_rps;
use gh_sim::{Nanos, QuantileSketch};
use groundhog_core::GroundhogConfig;

use crate::fault::{FaultConfig, FaultPlan, FaultStats};
use crate::fleet::backend::{Backend, Feed, Tally};
use crate::fleet::{par, ExecMode, Pending, Pool, RoutePolicy, Router};
use crate::trace::{TraceConfig, TraceEvent, TraceGen};

pub use front::{FrontDecision, GatewayFront};
pub use place::{PlacePolicy, Placer};
pub use scale::{NodeScaleConfig, NodeScaler, ScaleStats};

/// Cluster topology and per-node pool shape.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Simulated worker nodes.
    pub nodes: usize,
    /// Candidate nodes per function (`1..=nodes`).
    pub replicas: usize,
    /// Containers per (node, function) pool. A run with 0 returns
    /// [`StrategyError::EmptyPool`] before any pool is built.
    pub slots_per_pool: usize,
    /// Front-end placement policy.
    pub policy: PlacePolicy,
    /// Isolation strategy every container runs.
    pub kind: StrategyKind,
    /// Seed for deployment hashing and per-pool container seeds (the
    /// trace carries its own seed).
    pub seed: u64,
    /// Fault injection, if armed (see [`ClusterConfig::with_faults`]).
    /// `None` keeps the run byte-identical to the fault-free reference.
    pub faults: Option<FaultConfig>,
    /// Failure-aware node autoscaling, if armed. The coordinator fold
    /// steps one [`NodeScaler`] over every backend-bound arrival (right
    /// after the placer), so the active set is coordinator-pure; `None`
    /// keeps placement byte-identical to the unscaled reference.
    pub autoscale: Option<NodeScaleConfig>,
    /// Time-ordered `(instant, fn)` redeploy schedule folded into the
    /// gateway front's result cache (generation bumps drop cached
    /// results; see [`GatewayFront::with_redeploys`]). Ignored without
    /// a gateway; empty keeps the front byte-identical to
    /// [`GatewayFront::new`].
    pub redeploys: Vec<(Nanos, u32)>,
}

impl ClusterConfig {
    /// `nodes` nodes under `policy`, two replicas per function (one
    /// when the cluster has a single node), two containers per pool.
    pub fn new(nodes: usize, policy: PlacePolicy, kind: StrategyKind, seed: u64) -> ClusterConfig {
        assert!(nodes > 0, "need at least one node");
        ClusterConfig {
            nodes,
            replicas: 2.min(nodes),
            slots_per_pool: 2,
            policy,
            kind,
            seed,
            faults: None,
            autoscale: None,
            redeploys: Vec::new(),
        }
    }

    /// Arms fault injection on every node. Inert configs (all rates
    /// zero) are dropped so a disabled plan can never perturb the run.
    pub fn with_faults(mut self, cfg: FaultConfig) -> ClusterConfig {
        self.faults = cfg.is_active().then_some(cfg);
        self
    }

    /// Arms the failure-aware autoscaler on the placement fold.
    pub fn with_autoscale(mut self, cfg: NodeScaleConfig) -> ClusterConfig {
        self.autoscale = Some(cfg);
        self
    }

    /// Sets the redeploy schedule the gateway front folds into its
    /// result cache. It must be time-ordered: a gateway run panics on
    /// an unordered one ([`GatewayFront::with_redeploys`]).
    pub fn with_redeploys(mut self, schedule: Vec<(Nanos, u32)>) -> ClusterConfig {
        self.redeploys = schedule;
        self
    }
}

/// Per-node load figures in the merged result.
#[derive(Clone, Copy, Debug)]
pub struct NodeLoad {
    /// Requests this node served.
    pub completed: u64,
    /// Containers the node hosted (pools × slots).
    pub containers: u32,
    /// Total busy time across the node's containers, ms.
    pub busy_ms: f64,
}

/// Outcome of one cluster run (all nodes merged, node-index order).
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// Nodes simulated.
    pub nodes: usize,
    /// Placement policy label.
    pub policy: &'static str,
    /// Requests offered by the trace.
    pub requests: u64,
    /// Requests completed (equals `requests`: queues drain).
    pub completed: u64,
    /// Completions per second of trace span.
    pub goodput_rps: f64,
    /// Mean sojourn (arrival → response, queueing included), ms. Exact.
    pub mean_ms: f64,
    /// Median sojourn, ms (sketch, ≤1.6% quantization).
    pub p50_ms: f64,
    /// 95th-percentile sojourn, ms.
    pub p95_ms: f64,
    /// 99th-percentile sojourn, ms.
    pub p99_ms: f64,
    /// Mean aggregate queue depth over node scheduling events.
    pub queue_mean: f64,
    /// 99th-percentile aggregate queue depth.
    pub queue_p99: f64,
    /// Total restore time charged across the cluster, ms.
    pub restore_total_ms: f64,
    /// Fraction of restore time hidden in idle gaps.
    pub restore_overlap_ratio: f64,
    /// First-touch lazy-restore faults across the cluster.
    pub lazy_faults: u64,
    /// Mean container utilization over the trace span.
    pub utilization: f64,
    /// Max over mean per-node completions (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Containers across all nodes.
    pub containers: u32,
    /// Fault-injection accounting, summed across nodes (all zero on a
    /// fault-free run). `node_losses` counts arrivals failed over to
    /// another replica because their placed node was down; `abandoned`
    /// includes requests dropped because every replica was down.
    pub faults: FaultStats,
    /// Autoscaler counters, when [`ClusterConfig::autoscale`] is armed
    /// and at least one arrival reached placement. The coordinator
    /// computes them once, in the trace fold.
    pub scale: Option<ScaleStats>,
    /// Per-node breakdown, node-index order.
    pub per_node: Vec<NodeLoad>,
    /// Bytes of percentile-tracking state across all nodes — constant
    /// in the request count (two fixed-size sketches per node).
    pub stats_bytes: usize,
}

/// One node's raw outcome, before the cluster merge.
struct NodeResult {
    tally: Tally,
    restore_total: Nanos,
    restore_hidden: Nanos,
    lazy_faults: u64,
    busy: Nanos,
    containers: u32,
    span_end: Nanos,
}

/// The coordinator fold's output: every node's backend-bound arrivals
/// plus the counts only the fold can make.
struct Fold {
    /// Placement state after the whole trace. Nodes read only its static
    /// deployment ([`Placer::hosts`]) to build their pools.
    placer: Placer,
    /// Backend-bound arrivals per node, trace order.
    arrivals: Vec<Vec<TraceEvent>>,
    /// Per node, arrivals failed over onto it because the node they were
    /// placed on was down.
    failovers: Vec<u64>,
    /// Arrivals dropped at the front because every replica was down.
    all_down: u64,
    /// Autoscaler counters after the last backend-bound arrival (`None`
    /// when unarmed or when no arrival reached placement).
    scale: Option<ScaleStats>,
    /// The gateway front after the whole trace, when one ran.
    front: Option<GatewayFront>,
    /// Front-side sojourns of the front's cache hits.
    hit_sojourns: QuantileSketch,
}

/// Folds the whole trace once: generator → gateway front (if any) →
/// placer → autoscaler (if armed) → failover scan, appending each
/// backend-bound arrival to the list of the node that serves it.
///
/// Every config check a node would otherwise hit mid-run (catalog
/// coverage, node and replica counts, the pool size) fires here, on the
/// caller's thread, before any pool is built. An empty pool is returned
/// as [`StrategyError::EmptyPool`], the error [`Pool::build`] gives.
fn fold(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gcfg: Option<&GatewayConfig>,
) -> Result<Fold, StrategyError> {
    if ccfg.slots_per_pool == 0 {
        return Err(StrategyError::EmptyPool);
    }
    let nf = trace_cfg.functions as usize;
    assert!(
        catalog.len() >= nf,
        "catalog must cover every trace function"
    );
    let mut placer = Placer::new(
        ccfg.policy,
        ccfg.nodes,
        ccfg.replicas,
        &catalog[..nf],
        ccfg.seed,
    );
    // Node-loss draws are pure hashes of (seed, node, window), so the
    // failover decision needs only the trace.
    let plan = ccfg.faults.filter(|c| c.is_active()).map(FaultPlan::new);
    let mut front = gcfg.map(|g| GatewayFront::with_redeploys(g, &ccfg.redeploys));
    let mut hit_sojourns = QuantileSketch::new();
    let mut scaler = ccfg
        .autoscale
        .map(|sc| NodeScaler::new(sc, ccfg.nodes, trace_cfg.origin));
    let mut arrivals: Vec<Vec<TraceEvent>> = vec![Vec::new(); ccfg.nodes];
    let mut failovers = vec![0u64; ccfg.nodes];
    let mut all_down = 0u64;
    let mut placed = false;

    for ev in TraceGen::new(trace_cfg) {
        let f = ev.fn_id as usize;
        if let Some(front) = &mut front {
            match front.decide(&ev, catalog[f].output_kb) {
                FrontDecision::Backend => {}
                FrontDecision::Hit => {
                    hit_sojourns.record_nanos(front.hit_cost());
                    continue;
                }
                FrontDecision::Reject => continue,
            }
        }
        placed = true;
        let base = placer.place(f);
        // The scaler observes the placed node's load (and whether it was
        // lost) and may redirect away from a cordoned node.
        let target = match &mut scaler {
            None => base,
            Some(s) => {
                let lost = plan.as_ref().is_some_and(|pl| pl.node_down(base, ev.at));
                let cost = Nanos::from_millis_f64(catalog[f].base_e2e_ms);
                s.observe(ev.at, base, cost, lost);
                if s.placeable(base) {
                    base
                } else {
                    match placer.candidates(f).find(|&n| s.placeable(n)) {
                        Some(c) => {
                            s.note_redirect();
                            c
                        }
                        None => base,
                    }
                }
            }
        };
        let node = match &plan {
            Some(pl) if pl.node_down(target, ev.at) => {
                // Failover scan: first up replica, preferring nodes the
                // scaler still places on (a cordoned node is a last
                // resort, not a dead one).
                let up = || placer.candidates(f).filter(|&n| !pl.node_down(n, ev.at));
                let pick = scaler
                    .as_ref()
                    .and_then(|s| up().find(|&n| s.placeable(n)))
                    .or_else(|| up().next());
                let Some(n) = pick else {
                    all_down += 1;
                    continue;
                };
                failovers[n] += 1;
                n
            }
            _ => target,
        };
        arrivals[node].push(ev);
    }
    Ok(Fold {
        placer,
        arrivals,
        failovers,
        all_down,
        scale: scaler.filter(|_| placed).map(|s| s.stats()),
        front,
        hit_sojourns,
    })
}

/// Runs node `node`'s entire timeline: the pools deployed on it, fed by
/// `arrivals` (the node's list from the coordinator [`fold`]), through
/// the kernel's event loop ([`Backend::run`]), with no autoscaler. Like
/// a fleet run, it ends at the first event after which every arrival
/// is served or abandoned and nothing waits: trailing `Ready` edges of
/// idle slots are not drained. In a run that may use `threads` ≥ 2
/// workers the node executes ahead pool by pool on this worker, faults
/// included (see the module docs); with one thread it runs the
/// interleaved loop. Pure: no shared state, so serial and parallel
/// callers get identical results.
#[allow(clippy::too_many_arguments)]
fn run_node(
    node: usize,
    arrivals: &[TraceEvent],
    placer: &Placer,
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gh: &GroundhogConfig,
    threads: usize,
) -> Result<NodeResult, StrategyError> {
    let nf = trace_cfg.functions as usize;

    // Pools for the functions deployed here, ascending fn id. Each pool
    // seeds its containers from the (cluster seed, node, fn) hash so
    // node timelines are independent of which host thread runs them.
    let mut pools: Vec<Pool> = Vec::new();
    let mut routers: Vec<Router> = Vec::new();
    let mut pool_of: Vec<Option<u32>> = vec![None; nf];
    for (f, spec) in catalog.iter().enumerate().take(nf) {
        if !placer.hosts(node, f) {
            continue;
        }
        let seed = place::mix(ccfg.seed ^ ((node as u64) << 32) ^ f as u64);
        pool_of[f] = Some(pools.len() as u32);
        pools.push(Pool::build(
            spec,
            ccfg.kind,
            gh.clone(),
            ccfg.slots_per_pool,
            seed,
        )?);
        routers.push(Router::new(RoutePolicy::RoundRobin));
    }
    let containers: u32 = pools.iter().map(|p| p.slots.len() as u32).sum();
    let principals: Vec<String> = (0..trace_cfg.principals)
        .map(|p| format!("user-{p}"))
        .collect();

    // Fault draws are pure hashes of (seed, request, attempt), so a
    // node's own faults stay node-pure. Retries stay on this node —
    // rerouting moves them to another container in the same pool, never
    // across nodes, so node timelines remain pure.
    let plan = ccfg.faults.filter(|c| c.is_active()).map(FaultPlan::new);
    let pool =
        |a: &TraceEvent| pool_of[a.fn_id as usize].expect("placed on a non-replica") as usize;
    let pending = |a: &TraceEvent, principal| Pending {
        id: a.seq,
        principal,
        input_kb: catalog[a.fn_id as usize].input_kb,
        arrival: a.at,
        payload_hash: a.payload_hash,
        idempotent: a.idempotent,
        attempt: 1,
    };
    let request = |a: &TraceEvent| pending(a, principals[a.principal as usize].clone());
    // The node's input is a known list: every arrival must complete or
    // be abandoned after deaths.
    let tally = if par::eligible(threads, &routers, None) {
        // This node already has its worker, so its pools execute one
        // after another on it, and a request clones its principal once,
        // in its pool's loop. While every slot replays, only round-robin
        // routing and the log checks read a request, and neither reads
        // the principal: the replay's requests carry an empty one, which
        // allocates nothing.
        let replayed = |a: &TraceEvent| pending(a, String::new());
        par::run_node_ahead(
            plan,
            &mut pools,
            &mut routers,
            arrivals,
            pool,
            request,
            replayed,
        )
    } else {
        let feed = arrivals.iter().map(|a| Feed::Request(pool(a), request(a)));
        Backend::run(plan, &mut pools, &mut routers, feed, arrivals.len(), None)
    }?;

    let mut restore_total = Nanos::ZERO;
    let mut restore_hidden = Nanos::ZERO;
    let mut lazy_faults = 0u64;
    let mut busy = Nanos::ZERO;
    let mut span_end = trace_cfg.origin;
    for pool in &mut pools {
        for s in &mut pool.slots {
            s.settle();
            restore_total += s.restore_total;
            restore_hidden += s.restore_hidden;
            lazy_faults += s.lazy_faults;
            busy += s.busy;
            if s.served > 0 {
                span_end = span_end.max(s.container.now());
            }
        }
    }
    Ok(NodeResult {
        tally,
        restore_total,
        restore_hidden,
        lazy_faults,
        busy,
        containers,
        span_end,
    })
}

/// Merges per-node outcomes (already in node-index order) into the
/// cluster result, adding the fold's own counts and, when a gateway
/// front ran, its cache hits. Sketch merges are exact, so this is
/// independent of how the nodes were executed.
fn merge(
    nodes: Vec<NodeResult>,
    trace_cfg: &TraceConfig,
    ccfg: &ClusterConfig,
    fold: &Fold,
) -> ClusterResult {
    let mut t = Tally::default();
    let mut restore_total = Nanos::ZERO;
    let mut restore_hidden = Nanos::ZERO;
    let mut lazy_faults = 0u64;
    let mut busy = Nanos::ZERO;
    let mut containers = 0u32;
    let mut span_end = trace_cfg.origin;
    let mut per_node = Vec::with_capacity(nodes.len());
    for n in &nodes {
        t.merge(&n.tally);
        restore_total += n.restore_total;
        restore_hidden += n.restore_hidden;
        lazy_faults += n.lazy_faults;
        busy += n.busy;
        containers += n.containers;
        span_end = span_end.max(n.span_end);
        per_node.push(NodeLoad {
            completed: n.tally.completed as u64,
            containers: n.containers,
            busy_ms: n.busy.as_millis_f64(),
        });
    }
    t.faults.node_losses += fold.failovers.iter().sum::<u64>();
    t.faults.abandoned += fold.all_down;
    if let Some(f) = &fold.front {
        // Cache hits are served requests with front-side sojourns; the
        // span is untouched (hits never run on a node). With a disabled
        // gateway both counts are zero and the merge is the identity.
        t.completed += f.hits as usize;
        t.sojourns.merge(&fold.hit_sojourns);
    }
    let Tally {
        sojourns,
        depth,
        completed,
        faults,
    } = t;
    let completed = completed as u64;
    let span = span_end - trace_cfg.origin;
    let utilization = if span.is_zero() || containers == 0 {
        0.0
    } else {
        (busy.as_secs_f64() / (containers as f64 * span.as_secs_f64())).min(1.0)
    };
    let imbalance = if completed == 0 {
        1.0
    } else {
        let max = per_node.iter().map(|n| n.completed).max().unwrap_or(0);
        max as f64 * nodes.len() as f64 / completed as f64
    };
    ClusterResult {
        nodes: nodes.len(),
        policy: ccfg.policy.label(),
        requests: trace_cfg.requests,
        completed,
        goodput_rps: throughput_rps(completed as usize, span),
        mean_ms: sojourns.mean_ms(),
        p50_ms: sojourns.quantile_ms(50.0),
        p95_ms: sojourns.quantile_ms(95.0),
        p99_ms: sojourns.quantile_ms(99.0),
        queue_mean: depth.mean(),
        queue_p99: depth.percentile(99.0),
        restore_total_ms: restore_total.as_millis_f64(),
        restore_overlap_ratio: if restore_total.is_zero() {
            1.0
        } else {
            restore_hidden.as_secs_f64() / restore_total.as_secs_f64()
        },
        lazy_faults,
        utilization,
        imbalance,
        containers,
        faults,
        scale: fold.scale,
        per_node,
        stats_bytes: nodes.len() * 2 * QuantileSketch::memory_bytes(),
    }
}

/// Runs the trace through the cluster in [`ExecMode::Auto`] (node-
/// parallel when ≥ 2 nodes and ≥ 2 threads; honors `--serial`,
/// `GH_SERIAL=1` and `GH_THREADS` like the fleet).
pub fn run_cluster(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gh: GroundhogConfig,
) -> Result<ClusterResult, StrategyError> {
    run_cluster_with(trace_cfg, catalog, ccfg, gh, ExecMode::Auto)
}

/// [`run_cluster`] with an explicit [`ExecMode`] — the entry point of
/// the cluster differential oracle and the determinism CI job. The
/// parallel path is bit-identical to serial: node timelines are pure
/// functions of their inputs and the merge runs in node-index order.
///
/// ```
/// use gh_faas::cluster::{run_cluster_with, ClusterConfig, PlacePolicy};
/// use gh_faas::fleet::ExecMode;
/// use gh_faas::trace::{synthetic_catalog, TraceConfig};
/// use gh_isolation::StrategyKind;
/// use groundhog_core::GroundhogConfig;
///
/// let catalog = synthetic_catalog(8, 7);
/// let trace = TraceConfig::new(8, 200, 500.0, 7);
/// let ccfg = ClusterConfig::new(2, PlacePolicy::LeastLoaded, StrategyKind::Gh, 7);
/// let serial = run_cluster_with(&trace, &catalog, &ccfg, GroundhogConfig::gh(), ExecMode::Serial)?;
/// let par = run_cluster_with(
///     &trace, &catalog, &ccfg, GroundhogConfig::gh(), ExecMode::Parallel { threads: 2 },
/// )?;
/// assert_eq!(format!("{serial:?}"), format!("{par:?}"), "node-parallelism is invisible");
/// # Ok::<(), gh_isolation::StrategyError>(())
/// ```
pub fn run_cluster_with(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gh: GroundhogConfig,
    mode: ExecMode,
) -> Result<ClusterResult, StrategyError> {
    run_folded(trace_cfg, catalog, ccfg, &gh, mode, None).map(|(cluster, _)| cluster)
}

/// The shared body of [`run_cluster_with`] and [`run_cluster_gateway`]:
/// folds the trace once through `gcfg`'s front (if any) and placement,
/// runs every node on its arrival list, and merges. Returns the fold's
/// front for the gateway counters.
fn run_folded(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gh: &GroundhogConfig,
    mode: ExecMode,
    gcfg: Option<&GatewayConfig>,
) -> Result<(ClusterResult, Option<GatewayFront>), StrategyError> {
    let fold = fold(trace_cfg, catalog, ccfg, gcfg)?;
    let nodes = run_nodes(&fold, trace_cfg, catalog, ccfg, gh, mode)?;
    let cluster = merge(nodes, trace_cfg, ccfg, &fold);
    Ok((cluster, fold.front))
}

/// Runs every node timeline on its list from `fold`, serial or
/// work-stealing parallel on `mode`'s threads, and returns the results
/// in node-index order. With ≥ 2 threads every node also executes its
/// pools ahead on its worker ([`run_node`]).
fn run_nodes(
    fold: &Fold,
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gh: &GroundhogConfig,
    mode: ExecMode,
) -> Result<Vec<NodeResult>, StrategyError> {
    let threads = mode.threads();
    ordered_map(ccfg.nodes, threads, |i| {
        let placer = &fold.placer;
        run_node(
            i,
            &fold.arrivals[i],
            placer,
            trace_cfg,
            catalog,
            ccfg,
            gh,
            threads,
        )
    })
}

/// Outcome of a gateway-wrapped cluster run.
#[derive(Clone, Debug)]
pub struct ClusterGatewayResult {
    /// The cluster outcome. `completed` counts cache hits served at the
    /// front as well as node completions; rejected requests are
    /// excluded (so `completed + gateway.rejected == requests`).
    pub cluster: ClusterResult,
    /// Front-side counters: cache traffic and rate-limit drops.
    pub gateway: GatewayStats,
}

/// Runs the trace through the [`GatewayFront`] and the cluster.
///
/// The front is coordinator-pure (see [`front`]): the result cache uses
/// arrival-reservation semantics, admission is per-principal rate
/// limiting only (the in-flight ceiling is stripped), and the
/// pre-warmer is ignored — cluster pools are fixed-size. Node
/// parallelism and bit-identical serial/parallel results are preserved;
/// with [`GatewayConfig::disabled`] the embedded [`ClusterResult`] is
/// byte-identical to [`run_cluster_with`] on the same inputs.
pub fn run_cluster_gateway(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gcfg: &GatewayConfig,
    gh: GroundhogConfig,
    mode: ExecMode,
) -> Result<ClusterGatewayResult, StrategyError> {
    let (cluster, front) = run_folded(trace_cfg, catalog, ccfg, &gh, mode, Some(gcfg))?;
    let front = front.expect("a gateway run folds through its front");
    let mut gateway = GatewayStats {
        served: cluster.completed,
        rejected: front.rejected(),
        cache_peak_bytes: front.cache_peak_bytes,
        ..GatewayStats::default()
    };
    gateway.absorb_cache(&front.cache_stats());
    Ok(ClusterGatewayResult { cluster, gateway })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RetryPolicy;
    use crate::trace::{cluster_redeploy_schedule, synthetic_catalog};
    use gh_gateway::admission::AdmissionConfig;
    use gh_gateway::cache::CacheConfig;
    use std::cell::Cell;
    use std::rc::Rc;

    fn small_trace(requests: u64, seed: u64) -> TraceConfig {
        TraceConfig {
            principals: 8,
            ..TraceConfig::new(24, requests, 2_000.0, seed)
        }
    }

    fn run(
        policy: PlacePolicy,
        nodes: usize,
        requests: u64,
        seed: u64,
        mode: ExecMode,
    ) -> ClusterResult {
        let catalog = synthetic_catalog(24, seed);
        let trace = small_trace(requests, seed);
        let mut ccfg = ClusterConfig::new(nodes, policy, StrategyKind::Gh, seed);
        ccfg.slots_per_pool = 1;
        run_cluster_with(&trace, &catalog, &ccfg, GroundhogConfig::gh(), mode).unwrap()
    }

    #[test]
    fn all_requests_complete_and_stats_cohere() {
        let r = run(PlacePolicy::LeastLoaded, 3, 400, 21, ExecMode::Serial);
        assert_eq!(r.completed, 400);
        assert_eq!(r.requests, 400);
        assert_eq!(r.nodes, 3);
        assert_eq!(
            r.per_node.iter().map(|n| n.completed).sum::<u64>(),
            400,
            "node loads partition the trace"
        );
        assert!(r.goodput_rps > 0.0);
        assert!(r.p99_ms >= r.p50_ms);
        assert!(r.p99_ms >= r.mean_ms * 0.9);
        assert!(r.imbalance >= 1.0);
        assert!((0.0..=1.0).contains(&r.utilization));
        assert!((0.0..=1.0).contains(&r.restore_overlap_ratio));
        assert!(r.restore_total_ms > 0.0, "GH restores after every request");
        assert!(r.containers > 0);
    }

    #[test]
    fn parallel_matches_serial_fingerprint() {
        let serial = run(PlacePolicy::RoundRobin, 4, 300, 5, ExecMode::Serial);
        let par = run(
            PlacePolicy::RoundRobin,
            4,
            300,
            5,
            ExecMode::Parallel { threads: 4 },
        );
        assert_eq!(format!("{serial:?}"), format!("{par:?}"));
    }

    #[test]
    fn zero_requests_is_a_clean_empty_run() {
        for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 4 }] {
            let r = run(PlacePolicy::FunctionAffinity, 2, 0, 9, mode);
            assert_eq!(r.completed, 0);
            assert_eq!(r.goodput_rps, 0.0);
            assert_eq!(r.mean_ms, 0.0);
            assert_eq!(r.p99_ms, 0.0);
            assert_eq!(r.imbalance, 1.0);
            assert_eq!(r.utilization, 0.0);
        }
    }

    #[test]
    fn single_node_cluster_works() {
        let r = run(PlacePolicy::LeastLoaded, 1, 200, 3, ExecMode::Serial);
        assert_eq!(r.completed, 200);
        assert_eq!(r.per_node.len(), 1);
        assert_eq!(r.per_node[0].completed, 200);
        assert_eq!(r.imbalance, 1.0, "one node is trivially balanced");
    }

    #[test]
    fn least_loaded_balances_better_than_affinity_under_skew() {
        let ll = run(PlacePolicy::LeastLoaded, 4, 800, 31, ExecMode::Serial);
        let aff = run(PlacePolicy::FunctionAffinity, 4, 800, 31, ExecMode::Serial);
        assert!(
            ll.imbalance < aff.imbalance,
            "expected balance win under Zipf skew: {} vs {}",
            ll.imbalance,
            aff.imbalance
        );
    }

    #[test]
    fn faulty_cluster_accounts_and_matches_parallel() {
        let catalog = synthetic_catalog(24, 11);
        let trace = small_trace(500, 11);
        let mut ccfg = ClusterConfig::new(3, PlacePolicy::RoundRobin, StrategyKind::Gh, 11)
            .with_faults(FaultConfig::deaths(11, 0.05));
        ccfg.slots_per_pool = 2;
        let serial = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Serial,
        )
        .unwrap();
        let par = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Parallel { threads: 3 },
        )
        .unwrap();
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "faults keep node-parallelism invisible"
        );
        assert!(serial.faults.deaths > 0, "5% deaths over 500 requests");
        assert_eq!(
            serial.faults.retries,
            serial.faults.deaths - serial.faults.abandoned,
            "every death either retries or abandons"
        );
        assert_eq!(serial.completed + serial.faults.abandoned, 500);
    }

    #[test]
    fn node_loss_fails_over_to_up_replicas() {
        let catalog = synthetic_catalog(24, 7);
        let trace = small_trace(400, 7);
        let mut fc = FaultConfig::none(7);
        fc.node_loss_rate = 0.3;
        fc.node_loss_window = gh_sim::Nanos::from_millis(20);
        let ccfg =
            ClusterConfig::new(4, PlacePolicy::RoundRobin, StrategyKind::Gh, 7).with_faults(fc);
        let r = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Serial,
        )
        .unwrap();
        assert!(r.faults.node_losses > 0, "outages reroute some arrivals");
        assert_eq!(r.faults.deaths, 0, "only node loss was armed");
        assert_eq!(
            r.completed + r.faults.abandoned,
            400,
            "failover serves everything except all-replicas-down drops"
        );
    }

    #[test]
    fn inert_fault_config_is_not_armed_at_cluster_level() {
        let plain = run(PlacePolicy::LeastLoaded, 2, 300, 17, ExecMode::Serial);
        let catalog = synthetic_catalog(24, 17);
        let trace = small_trace(300, 17);
        let mut ccfg = ClusterConfig::new(2, PlacePolicy::LeastLoaded, StrategyKind::Gh, 17)
            .with_faults(FaultConfig::none(17));
        ccfg.slots_per_pool = 1;
        let armed = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Serial,
        )
        .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{armed:?}"));
        assert!(armed.faults.is_empty());
    }

    #[test]
    fn autoscaled_faulty_cluster_matches_parallel_and_reports_scale() {
        let catalog = synthetic_catalog(24, 19);
        let trace = small_trace(600, 19);
        let mut fc = FaultConfig::deaths(19, 0.03);
        fc.node_loss_rate = 0.2;
        fc.node_loss_window = gh_sim::Nanos::from_millis(20);
        let ccfg = ClusterConfig::new(4, PlacePolicy::RoundRobin, StrategyKind::Gh, 19)
            .with_faults(fc)
            .with_autoscale(NodeScaleConfig::balanced(2));
        let serial = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Serial,
        )
        .unwrap();
        let par = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Parallel { threads: 4 },
        )
        .unwrap();
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "autoscaling keeps node-parallelism invisible"
        );
        let s = serial.scale.expect("scaler armed");
        assert!(s.windows > 0, "the fold must observe windows");
        assert!(s.peak_active >= s.min_active);
        assert!(s.final_active >= 2 && s.final_active <= 4);
        assert_eq!(serial.completed + serial.faults.abandoned, 600);
    }

    #[test]
    fn unarmed_autoscaler_is_invisible() {
        let plain = run(PlacePolicy::RoundRobin, 3, 300, 23, ExecMode::Serial);
        assert!(plain.scale.is_none(), "no scaler, no stats");
        // `run` never arms autoscaling, so this doubles as the
        // byte-identity baseline used by tests/cluster_oracle.rs.
    }

    #[test]
    fn stats_memory_is_request_count_independent() {
        let small = run(PlacePolicy::RoundRobin, 2, 100, 13, ExecMode::Serial);
        let large = run(PlacePolicy::RoundRobin, 2, 2_000, 13, ExecMode::Serial);
        assert_eq!(small.stats_bytes, large.stats_bytes);
        assert!(large.stats_bytes < 2 * 2 * 64 * 1024, "sketch-bounded");
    }

    /// One node's view of the trace under the per-node replay that the
    /// coordinator fold replaced.
    struct Replay {
        arrivals: Vec<TraceEvent>,
        failovers: u64,
        all_down: u64,
        scale: Option<ScaleStats>,
    }

    /// The reference for [`fold`]: every node re-ran generator, front,
    /// placer, scaler and failover scan over the whole trace and kept the
    /// arrivals that landed on it. The filter below is that replay,
    /// verbatim.
    fn replay_node(
        node: usize,
        trace_cfg: &TraceConfig,
        catalog: &[FunctionSpec],
        ccfg: &ClusterConfig,
        gcfg: Option<&GatewayConfig>,
    ) -> Replay {
        let nf = trace_cfg.functions as usize;
        let mut placer = Placer::new(
            ccfg.policy,
            ccfg.nodes,
            ccfg.replicas,
            &catalog[..nf],
            ccfg.seed,
        );
        let plan = ccfg.faults.filter(|c| c.is_active()).map(FaultPlan::new);
        let mut front = gcfg.map(|g| GatewayFront::with_redeploys(g, &ccfg.redeploys));
        let mut gen = TraceGen::new(trace_cfg);
        let feed_plan = plan;
        let failovers = Rc::new(Cell::new(0u64));
        let all_down = Rc::new(Cell::new(0u64));
        let (nl, ad) = (failovers.clone(), all_down.clone());
        let mut scaler = ccfg
            .autoscale
            .map(|sc| NodeScaler::new(sc, ccfg.nodes, trace_cfg.origin));
        let scale_out = Rc::new(Cell::new(None::<ScaleStats>));
        let scale_cell = scale_out.clone();
        let mut next_local = move || {
            gen.by_ref().find(|ev| {
                let backend = match &mut front {
                    None => true,
                    Some(f) => {
                        f.decide(ev, catalog[ev.fn_id as usize].output_kb) == FrontDecision::Backend
                    }
                };
                if !backend {
                    return false;
                }
                let f = ev.fn_id as usize;
                let base = placer.place(f);
                let target = match &mut scaler {
                    None => base,
                    Some(s) => {
                        let lost = feed_plan
                            .as_ref()
                            .map(|pl| pl.node_down(base, ev.at))
                            .unwrap_or(false);
                        let cost = Nanos::from_millis_f64(catalog[f].base_e2e_ms);
                        s.observe(ev.at, base, cost, lost);
                        let t = if s.placeable(base) {
                            base
                        } else {
                            match placer.candidates(f).find(|&n| s.placeable(n)) {
                                Some(c) => {
                                    s.note_redirect();
                                    c
                                }
                                None => base,
                            }
                        };
                        scale_cell.set(Some(s.stats()));
                        t
                    }
                };
                let Some(pl) = &feed_plan else {
                    return target == node;
                };
                if !pl.node_down(target, ev.at) {
                    return target == node;
                }
                let up: Vec<usize> = placer
                    .candidates(f)
                    .filter(|&n| !pl.node_down(n, ev.at))
                    .collect();
                let pick = match &scaler {
                    Some(s) => up
                        .iter()
                        .copied()
                        .find(|&n| s.placeable(n))
                        .or_else(|| up.first().copied()),
                    None => up.first().copied(),
                };
                match pick {
                    Some(n) if n == node => {
                        nl.set(nl.get() + 1);
                        true
                    }
                    Some(_) => false,
                    None => {
                        if node == 0 {
                            ad.set(ad.get() + 1);
                        }
                        false
                    }
                }
            })
        };
        let arrivals: Vec<TraceEvent> = std::iter::from_fn(&mut next_local).collect();
        Replay {
            arrivals,
            failovers: failovers.get(),
            all_down: all_down.get(),
            scale: scale_out.get(),
        }
    }

    #[test]
    fn fold_matches_the_per_node_replay() {
        const NODES: usize = 4;
        let catalog = synthetic_catalog(24, 3);
        let gateway = GatewayConfig::builder()
            .cache(CacheConfig::default_for_ttl(Nanos::from_secs(20)))
            .admission(AdmissionConfig {
                rate_per_sec: 60.0,
                burst: 30,
                max_in_flight: None,
            })
            .build();
        // Totals over the matrix, so no branch of the fold goes untested.
        let (mut failovers, mut all_down, mut hits, mut rejected, mut redirects) = (0, 0, 0, 0, 0);
        // Three replicas let the failover scan's preference for placeable
        // nodes pick past a cordoned first-up replica.
        for (seed, requests, replicas) in [(3u64, 600u64, 2), (41, 600, 3), (7, 0, 2)] {
            let trace = small_trace(requests, seed);
            let loss = FaultConfig {
                node_loss_rate: 0.3,
                node_loss_window: Nanos::from_millis(20),
                ..FaultConfig::none(seed)
            };
            let fault_cases = [
                None,
                Some(FaultConfig::deaths(seed, 0.05)),
                Some(FaultConfig {
                    retry: RetryPolicy::bounded(),
                    ..loss
                }),
                Some(FaultConfig {
                    retry: RetryPolicy::rerouting(),
                    ..loss
                }),
            ];
            for policy in PlacePolicy::ALL {
                for faults in fault_cases {
                    for autoscale in [None, Some(NodeScaleConfig::balanced(2))] {
                        for gcfg in [None, Some(&gateway)] {
                            let mut ccfg =
                                ClusterConfig::new(NODES, policy, StrategyKind::Gh, seed);
                            ccfg.replicas = replicas;
                            ccfg.faults = faults;
                            ccfg.autoscale = autoscale;
                            if gcfg.is_some() {
                                ccfg.redeploys = cluster_redeploy_schedule(&trace, 6);
                            }
                            let label = format!(
                                "seed {seed} replicas {replicas} {} faults {faults:?} scale {} gateway {}",
                                policy.label(),
                                autoscale.is_some(),
                                gcfg.is_some()
                            );
                            let fold = fold(&trace, &catalog, &ccfg, gcfg).expect("fold");
                            for node in 0..NODES {
                                let r = replay_node(node, &trace, &catalog, &ccfg, gcfg);
                                assert_eq!(fold.arrivals[node], r.arrivals, "{label}: node {node}");
                                assert_eq!(
                                    fold.failovers[node], r.failovers,
                                    "{label}: node {node}"
                                );
                                // The replay counted all-down drops on node 0 only.
                                let all = if node == 0 { fold.all_down } else { 0 };
                                assert_eq!(all, r.all_down, "{label}: node {node}");
                                assert_eq!(fold.scale, r.scale, "{label}: node {node}");
                            }
                            let (h, rj) = fold
                                .front
                                .as_ref()
                                .map_or((0, 0), |f| (f.hits, f.rejected()));
                            let listed: u64 = fold.arrivals.iter().map(|a| a.len() as u64).sum();
                            assert_eq!(
                                listed + h + rj + fold.all_down,
                                trace.requests,
                                "{label}: every request is listed, hit, rejected or dropped"
                            );
                            assert_eq!(fold.hit_sojourns.len(), h, "{label}");
                            failovers += fold.failovers.iter().sum::<u64>();
                            all_down += fold.all_down;
                            hits += h;
                            rejected += rj;
                            redirects += fold.scale.map_or(0, |s| s.redirects);
                        }
                    }
                }
            }
        }
        assert!(
            failovers > 0 && all_down > 0,
            "node loss must fail over and drop"
        );
        assert!(hits > 0 && rejected > 0, "the front must hit and reject");
        assert!(redirects > 0, "the scaler must redirect");
    }

    #[test]
    fn a_one_node_cluster_is_the_round_robin_fleet() {
        // The cross-layer oracle: one kernel loop with one end rule
        // drives a fleet and a cluster node, so a 1-node, 1-replica
        // cluster fed a round-robin fleet's arrivals is that fleet, bit
        // for bit, with faults on or off, in either fleet mode, and with
        // the node interleaved (1 thread) or executing ahead pool by pool
        // (2 threads).
        use crate::fleet::{Arrivals, Fleet, FleetConfig, Shape};
        let spec = gh_functions::catalog::by_name("fannkuch (p)").unwrap();
        let catalog = [spec.clone()];
        let (requests, seed, slots) = (300, 29, 3);
        let fcfg = FleetConfig::fixed(RoutePolicy::RoundRobin, 300.0, seed).with_principals(3);
        let trace_cfg = TraceConfig {
            principals: 3,
            ..TraceConfig::new(1, requests, fcfg.offered_rps, seed)
        };
        let gh = GroundhogConfig::gh();
        let faulty = |retry| FaultConfig {
            restore_failure_rate: 0.04,
            retry,
            ..FaultConfig::deaths(seed, 0.08)
        };
        let cases = [
            FaultConfig::none(seed),
            faulty(RetryPolicy::bounded()),
            faulty(RetryPolicy::rerouting()),
        ];
        for faults in cases {
            let mut ccfg = ClusterConfig::new(1, PlacePolicy::RoundRobin, StrategyKind::Gh, seed)
                .with_faults(faults);
            ccfg.slots_per_pool = slots;
            let pool = || Pool::build(&spec, ccfg.kind, gh.clone(), slots, place::mix(ccfg.seed));
            let t_start = Fleet::span_start(&pool().unwrap());
            let events: Vec<TraceEvent> =
                Arrivals::new(&fcfg, Shape::default(), spec.input_kb, t_start)
                    .take(requests as usize)
                    .map(|(principal, p)| TraceEvent {
                        at: p.arrival,
                        seq: p.id,
                        fn_id: 0,
                        principal: principal as u32,
                        payload_hash: p.payload_hash,
                        idempotent: p.idempotent,
                    })
                    .collect();
            let placer = Placer::new(ccfg.policy, 1, 1, &catalog, ccfg.seed);
            let fleet = Fleet::new(fcfg.clone()).with_faults(faults);
            for node_threads in [1, 2] {
                let node = run_node(
                    0,
                    &events,
                    &placer,
                    &trace_cfg,
                    &catalog,
                    &ccfg,
                    &gh,
                    node_threads,
                )
                .unwrap();
                let t = &node.tally;
                assert!(t.depth.mean() > 0.0, "{faults:?}: requests queue");
                if faults.is_active() {
                    assert!(
                        t.faults.deaths > 0 && t.faults.restore_failures > 0,
                        "{faults:?}: {:?}",
                        t.faults
                    );
                }
                for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
                    let r = fleet
                        .run_with(&mut pool().unwrap(), requests as usize, mode)
                        .unwrap();
                    let label = format!("{faults:?} {mode:?} node threads {node_threads}");
                    let pairs = [
                        ("sojourn mean", r.mean_ms, t.sojourns.mean_ms()),
                        ("sojourn p99", r.p99_ms, t.sojourns.quantile_ms(99.0)),
                        ("depth mean", r.stats.queue_mean, t.depth.mean()),
                        ("depth p99", r.stats.queue_p99, t.depth.percentile(99.0)),
                        (
                            "restore total",
                            r.stats.restore_total_ms,
                            node.restore_total.as_millis_f64(),
                        ),
                    ];
                    for (what, fleet, node) in pairs {
                        assert_eq!(fleet.to_bits(), node.to_bits(), "{label}: {what}");
                    }
                    assert_eq!(r.completed, t.completed, "{label}: completed");
                    assert_eq!(
                        r.stats.lazy_faults, node.lazy_faults,
                        "{label}: lazy faults"
                    );
                    assert_eq!(r.stats.faults, t.faults, "{label}: fault stats");
                }
            }
        }
    }

    #[test]
    fn a_retry_tied_with_an_arrival_keeps_the_node_order() {
        // Pool 0's first request dies at t0 (every attempt dies), pool
        // 1's request arrives 1 ms later, and pool 0's next request
        // arrives on the exact nanosecond of the first one's retry. The
        // node's loop takes the retry first: the arrival took its
        // insertion number when pool 1's arrival was stepped, after the
        // crash scheduled the retry. Pool 0 running ahead on its own
        // orders the tie the same way only by stepping past pool 1's
        // arrival as a ghost. Under rerouting the order decides the
        // round-robin cursor; retrying after restore, it decides the
        // died slot's queue order, and the retry waits for the slot's
        // recovery, so the arrival lands on that instant.
        let seed = 37;
        let catalog = synthetic_catalog(2, seed);
        let trace_cfg = TraceConfig {
            principals: 2,
            ..TraceConfig::new(2, 3, 100.0, seed)
        };
        let gh = GroundhogConfig::gh();
        for (retry, slots) in [(RetryPolicy::rerouting(), 2), (RetryPolicy::bounded(), 1)] {
            let faults = FaultConfig {
                retry,
                ..FaultConfig::deaths(seed, 1.0)
            };
            let mut ccfg = ClusterConfig::new(1, PlacePolicy::RoundRobin, StrategyKind::Gh, seed)
                .with_faults(faults);
            ccfg.slots_per_pool = slots;
            // The node's pools, as `run_node` seeds them.
            let pool = |f: u64| {
                Pool::build(
                    &catalog[f as usize],
                    ccfg.kind,
                    gh.clone(),
                    slots,
                    place::mix(seed ^ f),
                )
                .unwrap()
            };
            let t0 = crate::fleet::Fleet::span_start(&pool(0))
                .max(crate::fleet::Fleet::span_start(&pool(1)));
            let plan = FaultPlan::new(faults);
            let backoff_at = t0 + plan.backoff(1);
            let retry_at = if retry.reroute {
                backoff_at
            } else {
                // Crash a copy of the slot as the node will.
                let mut probe = pool(0);
                let slot = &mut probe.slots[0];
                slot.queue.push(Pending {
                    id: 1,
                    principal: String::new(),
                    input_kb: catalog[0].input_kb,
                    arrival: t0,
                    payload_hash: 0,
                    idempotent: false,
                    attempt: 1,
                });
                let frac = plan.death(1, 1).expect("every attempt dies");
                let (_, recovered) = slot.crash(t0, frac).unwrap();
                assert!(recovered > backoff_at, "the retry waits for the recovery");
                recovered
            };
            let event = |seq, at, fn_id| TraceEvent {
                at,
                seq,
                fn_id,
                principal: fn_id,
                payload_hash: 0,
                idempotent: false,
            };
            let events = [
                event(1, t0, 0),
                event(2, t0 + Nanos::from_millis(1), 1),
                event(3, retry_at, 0),
            ];
            let placer = Placer::new(ccfg.policy, 1, 1, &catalog, seed);
            let node = |threads| {
                run_node(
                    0, &events, &placer, &trace_cfg, &catalog, &ccfg, &gh, threads,
                )
                .unwrap()
            };
            let (serial, ahead) = (node(1), node(2));
            let label = retry.label();
            let f = serial.tally.faults;
            assert!(f.retries > 0 && f.abandoned == 3, "{label}: {f:?}");
            assert_eq!(ahead.tally.faults, f, "{label}");
            assert_eq!(ahead.tally.completed, serial.tally.completed, "{label}");
            assert_eq!(ahead.tally.sojourns, serial.tally.sojourns, "{label}");
            let depth = |n: &NodeResult| (n.tally.depth.mean().to_bits(), n.tally.depth.len());
            assert_eq!(depth(&ahead), depth(&serial), "{label}");
            let timeline = |n: &NodeResult| (n.busy, n.restore_total, n.restore_hidden, n.span_end);
            assert_eq!(timeline(&ahead), timeline(&serial), "{label}");
        }
    }

    #[test]
    fn zero_slots_per_pool_is_an_error_in_both_modes() {
        let catalog = synthetic_catalog(24, 5);
        let trace = small_trace(100, 5);
        let mut ccfg = ClusterConfig::new(4, PlacePolicy::RoundRobin, StrategyKind::Gh, 5);
        ccfg.slots_per_pool = 0;
        for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
            let run = run_cluster_with(&trace, &catalog, &ccfg, GroundhogConfig::gh(), mode);
            assert!(matches!(run, Err(StrategyError::EmptyPool)), "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "catalog must cover every trace function")]
    fn config_errors_surface_on_the_caller_under_parallel_nodes() {
        let catalog = synthetic_catalog(8, 5);
        let trace = small_trace(100, 5);
        let ccfg = ClusterConfig::new(4, PlacePolicy::RoundRobin, StrategyKind::Gh, 5);
        let _ = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Parallel { threads: 2 },
        );
    }
}
