//! The three traffic mixes and their untraced runs.
//!
//! Every workload is open loop: arrivals follow a virtual-time schedule
//! drawn from the seed, whatever the simulator does with them. The seed
//! drives only the generated inputs (arrival trace, fault schedule);
//! the deployed system — function catalog, node placement hash and
//! container seeds — is fixed, so a seed changes the traffic and not
//! the platform under it.

use std::time::{Duration, Instant};

use gh_faas::cluster::{run_cluster_gateway, run_cluster_with, ClusterConfig, PlacePolicy};
use gh_faas::fault::{FaultConfig, FaultPlan, FaultStats, RetryPolicy};
use gh_faas::fleet::{ExecMode, Fleet, FleetConfig, Pool, RoutePolicy};
use gh_faas::trace::{stable_rps, synthetic_catalog, TraceConfig};
use gh_functions::FunctionSpec;
use gh_gateway::cache::CacheConfig;
use gh_gateway::GatewayConfig;
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

/// Seed of the synthetic function population (part of the system).
pub const CATALOG_SEED: u64 = 42;
/// Seed of the cluster's deployment hash and per-pool container seeds,
/// and of the fleet's containers (part of the system).
pub const DEPLOY_SEED: u64 = 42;
/// A seed no workload defaults to, kept back for confirming claims made
/// while tuning on the default seeds.
pub const HELD_OUT_SEED: u64 = 20_231_000;

/// Cluster nodes, synthetic functions and principals of the two
/// cluster mixes (the `cluster_scaling` rig's shape).
const NODES: usize = 8;
const FUNCTIONS: u32 = 256;
const PRINCIPALS: u32 = 128;
/// Hottest-pool utilization the cluster's offered load is sized to.
const CLUSTER_LOAD: f64 = 0.6;
/// Mean burst length of the cluster traces, requests.
const BURST_LEN: f64 = 4.0;
/// Containers in the fleet-dense pool, and its utilization target.
const FLEET_POOL: usize = 4;
const FLEET_LOAD: f64 = 0.5;
const FLEET_FUNCTION: &str = "heat-3d (c)";

/// Which traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 8 nodes, 256 Zipf functions, no gateway, no faults.
    ClusterZipf,
    /// The same cluster behind a result cache, with faults.
    ClusterCached,
    /// One pool of 4 dense-writing containers.
    FleetDense,
}

impl Kind {
    /// Every workload the command runs.
    pub const ALL: [Kind; 3] = [Kind::ClusterZipf, Kind::ClusterCached, Kind::FleetDense];

    /// The workloads `BENCHMARK.json` lists, in its order. `fleet-dense`
    /// stays runnable for its dense-restore ledger but is not gated: its
    /// host time is bound by the shared host's memory system, and over
    /// ten seeds it spread wider (IQR/median 0.31) than any bound a
    /// regression gate can use.
    pub const GATED: [Kind; 2] = [Kind::ClusterZipf, Kind::ClusterCached];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClusterZipf => "cluster-zipf",
            Kind::ClusterCached => "cluster-cached",
            Kind::FleetDense => "fleet-dense",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Seed used when the command line gives none.
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::ClusterZipf => 1,
            Kind::ClusterCached => 2,
            Kind::FleetDense => 3,
        }
    }

    /// Requests per repetition at full size.
    fn requests(self) -> u64 {
        match self {
            Kind::ClusterZipf => 40_000,
            Kind::ClusterCached => 600_000,
            Kind::FleetDense => 4_000,
        }
    }
}

/// Run size: `Full` for measurement, `Smoke` for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined with.
    Full,
    /// A few hundred requests: checks plumbing, measures nothing.
    Smoke,
}

/// Inputs of a cluster mix.
pub struct ClusterInputs {
    /// Function population (`fn_id` indexes it).
    pub catalog: Vec<FunctionSpec>,
    /// Arrival trace.
    pub trace: TraceConfig,
    /// Topology, placement and fault schedule.
    pub ccfg: ClusterConfig,
    /// Gateway front, if any.
    pub gateway: Option<GatewayConfig>,
}

/// Inputs of the fleet mix.
pub struct FleetInputs {
    /// The deployed function.
    pub spec: FunctionSpec,
    /// Containers in the pool.
    pub pool_size: usize,
    /// Router policy, arrival rate and arrival seed.
    pub cfg: FleetConfig,
    /// Requests per run.
    pub requests: usize,
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Through `run_cluster_with` / `run_cluster_gateway`.
    Cluster(ClusterInputs),
    /// Through `Pool::build` + `Fleet::run_with`.
    Fleet(FleetInputs),
}

/// One workload instance: a mix plus the inputs its seed generates.
pub struct Workload {
    /// The mix.
    pub kind: Kind,
    /// The seed the inputs came from.
    pub seed: u64,
    /// The generated inputs.
    pub inputs: Inputs,
}

/// Virtual-time outcome of one run. Deterministic per seed, so every
/// repetition must reproduce the first one exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Requests offered.
    pub attempted: u64,
    /// Requests served, front cache hits included.
    pub completed: u64,
    /// Requests given up after their last attempt or with every replica
    /// down.
    pub abandoned: u64,
    /// Requests refused by gateway admission.
    pub rejected: u64,
    /// Completions per second of trace span.
    pub goodput_rps: f64,
    /// Mean arrival-to-response time, ms.
    pub mean_ms: f64,
    /// 99th-percentile arrival-to-response time, ms.
    pub p99_ms: f64,
    /// Every `(percentile, ms)` the result exposes from its sojourn
    /// sketch.
    pub quantiles: Vec<(f64, f64)>,
    /// Fault accounting.
    pub faults: FaultStats,
    /// Cache hits at the front.
    pub hits: u64,
    /// `{:?}` of the whole result: the bit-for-bit repetition check.
    pub fingerprint: String,
}

impl Outcome {
    /// Conservation: every offered request is served, abandoned or
    /// refused, exactly once.
    pub fn conserved(&self) -> bool {
        self.completed + self.abandoned + self.rejected == self.attempted
    }
}

/// Wall-clock of one repetition.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    /// Building the pools (a 0-request run for the clusters), when this
    /// repetition timed it.
    pub setup: Option<Duration>,
    /// The timed run.
    pub run: Duration,
    /// True when `run` includes a pool build of its own, which the
    /// measured region must subtract.
    pub run_includes_setup: bool,
}

/// Host worker threads for node-parallel cluster runs: the host's
/// parallelism, capped at 2 so figures compare across hosts.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Workload {
    /// Generates the inputs of `kind` from `seed`.
    pub fn new(kind: Kind, seed: u64, size: Size) -> Workload {
        let requests = match size {
            Size::Full => kind.requests(),
            Size::Smoke => match kind {
                Kind::FleetDense => 20,
                _ => 400,
            },
        };
        let inputs = match kind {
            Kind::ClusterZipf | Kind::ClusterCached => {
                Inputs::Cluster(cluster_inputs(kind, seed, requests))
            }
            Kind::FleetDense => Inputs::Fleet(fleet_inputs(seed, requests as usize)),
        };
        Workload { kind, seed, inputs }
    }

    /// One repetition: the timed run, plus a timed setup when
    /// `time_setup` is set (the fleet builds a pool for every run anyway,
    /// so it always reports one).
    pub fn rep(&self, time_setup: bool) -> Result<(Rep, Outcome), StrategyError> {
        match &self.inputs {
            Inputs::Cluster(c) => {
                let mode = ExecMode::Parallel { threads: threads() };
                let mut setup = None;
                if time_setup {
                    let empty = TraceConfig {
                        requests: 0,
                        ..c.trace.clone()
                    };
                    let t0 = Instant::now();
                    std::hint::black_box(run_cluster(c, &empty, mode)?);
                    setup = Some(t0.elapsed());
                }
                let t1 = Instant::now();
                let out = run_cluster(c, &c.trace, mode)?;
                let run = t1.elapsed();
                let rep = Rep {
                    setup,
                    run,
                    run_includes_setup: true,
                };
                Ok((rep, out))
            }
            Inputs::Fleet(f) => {
                let t0 = Instant::now();
                let mut pool = build_fleet_pool(f)?;
                let setup = Some(t0.elapsed());
                let t1 = Instant::now();
                let out = run_fleet(f, &mut pool, ExecMode::Serial)?;
                let run = t1.elapsed();
                let rep = Rep {
                    setup,
                    run,
                    run_includes_setup: false,
                };
                Ok((rep, out))
            }
        }
    }

    /// The untraced run on one host thread — the reference the traced
    /// replica must reproduce, and the wall-clock its overhead is taken
    /// against.
    pub fn serial_reference(&self) -> Result<(Duration, Outcome), StrategyError> {
        match &self.inputs {
            Inputs::Cluster(c) => {
                let t0 = Instant::now();
                let out = run_cluster(c, &c.trace, ExecMode::Serial)?;
                Ok((t0.elapsed(), out))
            }
            Inputs::Fleet(f) => {
                let t0 = Instant::now();
                let mut pool = build_fleet_pool(f)?;
                let out = run_fleet(f, &mut pool, ExecMode::Serial)?;
                Ok((t0.elapsed(), out))
            }
        }
    }
}

fn cluster_inputs(kind: Kind, seed: u64, requests: u64) -> ClusterInputs {
    let catalog = synthetic_catalog(FUNCTIONS, CATALOG_SEED);
    let mut ccfg = ClusterConfig::new(
        NODES,
        PlacePolicy::RoundRobin,
        StrategyKind::Gh,
        DEPLOY_SEED,
    );
    let rps = stable_rps(
        &catalog,
        ccfg.replicas * ccfg.slots_per_pool,
        1.0,
        CLUSTER_LOAD,
    );
    let mut trace = TraceConfig {
        principals: PRINCIPALS,
        ..TraceConfig::new(FUNCTIONS, requests, rps, seed)
    };
    // Short bursts: the burst path stays exercised, but no single burst
    // onto a slow function sets the sojourn tail, so p99 measures the
    // platform rather than which functions a seed happened to burst.
    trace.mean_burst_len = BURST_LEN;
    let mut gateway = None;
    if kind == Kind::ClusterCached {
        // Nearly every request is idempotent over a handful of payloads,
        // so the front's cache serves about 95% of arrivals.
        trace.idempotent_frac = 0.98;
        trace.payload_universe = 8;
        gateway = Some(
            GatewayConfig::builder()
                .cache(CacheConfig {
                    byte_budget: 64 << 20,
                    ..CacheConfig::default_for_ttl(Nanos::from_secs(30))
                })
                .build(),
        );
        let faults = FaultConfig {
            seed,
            death_rate: 0.01,
            restore_failure_rate: 0.005,
            node_loss_rate: 0.02,
            node_loss_window: Nanos::from_millis(500),
            // A fourth attempt makes abandoning a request after repeated
            // deaths a 1e-8 event.
            retry: RetryPolicy {
                max_attempts: 4,
                ..RetryPolicy::rerouting()
            },
        };
        // A quarter past the trace's expected span: the diurnal envelope
        // averages out and short bursts only shorten the span.
        let horizon = trace.origin + Nanos::from_millis_f64(1.25e3 * requests as f64 / rps);
        let seed = survivable_fault_seed(faults, &ccfg, horizon);
        ccfg = ccfg.with_faults(FaultConfig { seed, ..faults });
    }
    ClusterInputs {
        catalog,
        trace,
        ccfg,
        gateway,
    }
}

/// The first fault seed from `base.seed` upward whose outage windows
/// never take down every replica of a function at once before
/// `horizon`. Node loss then always fails over to a live replica and no
/// request is dropped at the front: the workload fails no request.
fn survivable_fault_seed(base: FaultConfig, ccfg: &ClusterConfig, horizon: Nanos) -> u64 {
    let window = base.node_loss_window.as_nanos().max(1);
    let windows = horizon.as_nanos() / window + 1;
    let (nodes, replicas) = (ccfg.nodes, ccfg.replicas);
    (base.seed..)
        .find(|&seed| {
            let plan = FaultPlan::new(FaultConfig { seed, ..base });
            (0..windows).all(|w| {
                let at = Nanos::from_nanos(w * window);
                // Replica sets are `replicas` consecutive nodes (mod nodes).
                (0..nodes).all(|n| (0..replicas).any(|k| !plan.node_down((n + k) % nodes, at)))
            })
        })
        .expect("some fault seed keeps a replica of every function up")
}

fn fleet_inputs(seed: u64, requests: usize) -> FleetInputs {
    let spec = gh_functions::catalog::by_name(FLEET_FUNCTION).expect("function in the catalog");
    // Per-container capacity from the catalog's GH invoker time plus its
    // restore: the offered rate keeps the pool at FLEET_LOAD utilization.
    let per_container_rps = 1000.0 / (spec.paper_gh_invoker_ms + spec.paper_restore_ms);
    let rps = FLEET_LOAD * FLEET_POOL as f64 * per_container_rps;
    FleetInputs {
        spec,
        pool_size: FLEET_POOL,
        cfg: FleetConfig::fixed(RoutePolicy::RestoreAware, rps, seed),
        requests,
    }
}

/// The cluster entry point the inputs call for.
fn run_cluster(
    c: &ClusterInputs,
    trace: &TraceConfig,
    mode: ExecMode,
) -> Result<Outcome, StrategyError> {
    let gh = GroundhogConfig::gh();
    Ok(match &c.gateway {
        None => {
            let r = run_cluster_with(trace, &c.catalog, &c.ccfg, gh, mode)?;
            Outcome {
                attempted: trace.requests,
                completed: r.completed,
                abandoned: r.faults.abandoned,
                rejected: 0,
                goodput_rps: r.goodput_rps,
                mean_ms: r.mean_ms,
                p99_ms: r.p99_ms,
                quantiles: vec![(50.0, r.p50_ms), (95.0, r.p95_ms), (99.0, r.p99_ms)],
                faults: r.faults,
                hits: 0,
                fingerprint: format!("{r:?}"),
            }
        }
        Some(g) => {
            let r = run_cluster_gateway(trace, &c.catalog, &c.ccfg, g, gh, mode)?;
            Outcome {
                attempted: trace.requests,
                completed: r.cluster.completed,
                abandoned: r.cluster.faults.abandoned,
                rejected: r.gateway.rejected,
                goodput_rps: r.cluster.goodput_rps,
                mean_ms: r.cluster.mean_ms,
                p99_ms: r.cluster.p99_ms,
                quantiles: vec![
                    (50.0, r.cluster.p50_ms),
                    (95.0, r.cluster.p95_ms),
                    (99.0, r.cluster.p99_ms),
                ],
                faults: r.cluster.faults,
                hits: r.gateway.cache_hits,
                fingerprint: format!("{r:?}"),
            }
        }
    })
}

/// Builds the fleet mix's pool (container seeds are part of the system).
pub fn build_fleet_pool(f: &FleetInputs) -> Result<Pool, StrategyError> {
    Pool::build(
        &f.spec,
        StrategyKind::Gh,
        GroundhogConfig::gh(),
        f.pool_size,
        DEPLOY_SEED,
    )
}

fn run_fleet(f: &FleetInputs, pool: &mut Pool, mode: ExecMode) -> Result<Outcome, StrategyError> {
    let r = Fleet::new(f.cfg.clone()).run_with(pool, f.requests, mode)?;
    Ok(Outcome {
        attempted: f.requests as u64,
        completed: r.completed as u64,
        abandoned: r.stats.faults.abandoned,
        rejected: 0,
        goodput_rps: r.goodput_rps,
        mean_ms: r.mean_ms,
        p99_ms: r.p99_ms,
        quantiles: vec![(99.0, r.p99_ms)],
        faults: r.stats.faults,
        hits: 0,
        fingerprint: format!("{r:?}"),
    })
}
