//! Host-side scaling of node-parallel cluster execution
//! (`run_cluster_with` fanning node timelines across worker threads)
//! vs the serial reference.
//!
//! The rig drives the same trace — [`NODES`] nodes, [`FUNCTIONS`]
//! Zipf-distributed synthetic functions, ≥10⁶ requests — twice,
//! [`ExecMode::Serial`] and [`ExecMode::Parallel`] at [`THREADS`]
//! workers, and times each whole run (pool construction is node-local
//! and parallelizes with the node, so it is part of the measured
//! region on both sides). Both sides run every node down the same path,
//! one pool at a time, so the ratio is the node fan-out alone. Result
//! equality is asserted after the measurement through the `{:?}`
//! fingerprint, which makes the rig a release-mode check that node
//! fan-out is invisible at 10⁶ requests, on top of `gh-faas`'s
//! differential tests. An untimed faulty run ([`faulty_check`], a tenth
//! of the requests under `perfbench`'s `cluster-cached` fault plan)
//! checks the same at scale with crashes, rerouted retries, failed
//! restores and node loss.
//! A third, much smaller run pins the sketch-bounded stats-memory
//! guarantee: `stats_bytes` must not depend on the request count.
//!
//! Gate design: the **speedup ratio** is a same-machine quotient
//! (machine-independent, gated, capped at 8); raw ns per run is
//! machine-dependent and published as gate-exempt `info_` metrics plus
//! `results/scaling_cluster.csv`.

use std::time::Instant;

use gh_faas::cluster::{
    run_cluster_gateway, run_cluster_with, ClusterConfig, ClusterGatewayResult, ClusterResult,
    PlacePolicy,
};
use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::fleet::ExecMode;
use gh_faas::trace::{stable_rps, synthetic_catalog, TraceConfig};
use gh_functions::FunctionSpec;
use gh_gateway::cache::CacheConfig;
use gh_gateway::GatewayConfig;
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

/// Simulated worker nodes.
pub const NODES: usize = 8;
/// Synthetic functions in the trace.
pub const FUNCTIONS: u32 = 256;
/// Worker-thread target on the parallel side. The rig runs
/// `min(THREADS, cores)`: oversubscribing a smaller host measures
/// scheduler thrash, not node parallelism, and on a single-core host
/// the parallel side deliberately degenerates to the serial path so
/// the gated ratio is an honest ~1.0 (see bench_smoke's `--check`).
pub const THREADS: usize = 8;

/// Effective worker threads on this host.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(THREADS))
}
/// Seed of the whole rig (trace, deployment, containers).
const SEED: u64 = 42;

/// Requests per measured run (`GH_CLUSTER_REQUESTS` overrides;
/// default 10⁶ — the acceptance floor for the cluster rig).
pub fn requests() -> u64 {
    std::env::var("GH_CLUSTER_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// Timing samples per mode (`GH_CLUSTER_ITERS` overrides; default 3).
/// The gated speedup is min(serial)/min(parallel): a single-shot
/// measurement of a ~50 s run on a noisy single-core host occasionally
/// swings past the perf gate's 10% band (the touch rig hit the same
/// problem and uses the same min-over-iters answer), while the
/// minimum converges to the undisturbed cost.
pub fn iters() -> u32 {
    std::env::var("GH_CLUSTER_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Wall-clock of the two execution modes over the same run.
pub struct ClusterScalingReport {
    /// Requests per measured run.
    pub requests: u64,
    /// Nodes simulated.
    pub nodes: usize,
    /// Worker threads on the parallel side.
    pub threads: usize,
    /// ns for the serial run.
    pub serial_ns: f64,
    /// ns for the parallel run.
    pub par_ns: f64,
    /// Percentile-tracking bytes of the run — constant in `requests`.
    pub stats_bytes: usize,
}

impl ClusterScalingReport {
    /// Serial / parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.serial_ns / self.par_ns.max(1.0)
    }
}

fn config(catalog: &[FunctionSpec], requests: u64) -> (TraceConfig, ClusterConfig) {
    let ccfg = ClusterConfig::new(NODES, PlacePolicy::RoundRobin, StrategyKind::Gh, SEED);
    // Offered load sized so the hottest rank sits at ~60% of its pool
    // capacity — queues stay bounded over the whole 10⁶-request trace.
    let rps = stable_rps(catalog, ccfg.replicas * ccfg.slots_per_pool, 1.0, 0.6);
    let trace = TraceConfig {
        principals: 128,
        ..TraceConfig::new(FUNCTIONS, requests, rps, SEED)
    };
    (trace, ccfg)
}

fn timed_run(requests: u64, mode: ExecMode) -> (f64, String, usize) {
    let catalog = synthetic_catalog(FUNCTIONS, SEED);
    let (trace, ccfg) = config(&catalog, requests);
    let t0 = Instant::now();
    let result =
        run_cluster_with(&trace, &catalog, &ccfg, GroundhogConfig::gh(), mode).expect("run");
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(result.completed, requests, "cluster must drain the trace");
    (ns, format!("{result:?}"), result.stats_bytes)
}

/// One run of the rig's shape over `requests` requests in `mode`, untimed
/// — what `bench_smoke`'s heap-allocation counters measure.
pub fn run_in(requests: u64, mode: ExecMode) -> ClusterResult {
    let catalog = synthetic_catalog(FUNCTIONS, SEED);
    let (trace, ccfg) = config(&catalog, requests);
    run_cluster_with(&trace, &catalog, &ccfg, GroundhogConfig::gh(), mode).expect("run")
}

/// [`run_in`] in [`ExecMode::Serial`].
pub fn serial_run(requests: u64) -> ClusterResult {
    run_in(requests, ExecMode::Serial)
}

/// [`serial_run`]'s shape behind a caching gateway front: nearly every
/// request idempotent over 8 payloads per function, a 30 s TTL and a
/// 64 MiB budget, so the front answers most arrivals and the fold's
/// cache path is what the heap-allocation counter sees.
pub fn serial_cached_run(requests: u64) -> ClusterGatewayResult {
    let catalog = synthetic_catalog(FUNCTIONS, SEED);
    let (mut trace, ccfg) = config(&catalog, requests);
    trace.idempotent_frac = 0.98;
    trace.payload_universe = 8;
    let gateway = GatewayConfig::builder()
        .cache(CacheConfig {
            byte_budget: 64 << 20,
            ..CacheConfig::default_for_ttl(Nanos::from_secs(30))
        })
        .build();
    run_cluster_gateway(
        &trace,
        &catalog,
        &ccfg,
        &gateway,
        GroundhogConfig::gh(),
        ExecMode::Serial,
    )
    .expect("run")
}

/// Runs the rig's shape over `requests` requests under `perfbench`'s
/// `cluster-cached` fault plan (deaths 1%, restore failures 0.5%, node
/// loss 2% per 500 ms window, rerouted retries, 4 attempts), serial
/// and node-parallel at `threads` workers, untimed, and asserts
/// the two results equal through `{:?}` and every fault family fired:
/// a release-mode check that node fan-out stays invisible under faults.
/// Returns the serial result.
pub fn faulty_check(requests: u64, threads: usize) -> ClusterResult {
    let catalog = synthetic_catalog(FUNCTIONS, SEED);
    let (trace, ccfg) = config(&catalog, requests);
    let ccfg = ccfg.with_faults(FaultConfig {
        seed: SEED,
        death_rate: 0.01,
        restore_failure_rate: 0.005,
        node_loss_rate: 0.02,
        node_loss_window: Nanos::from_millis(500),
        retry: RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::rerouting()
        },
    });
    let go =
        |mode| run_cluster_with(&trace, &catalog, &ccfg, GroundhogConfig::gh(), mode).expect("run");
    let serial = go(ExecMode::Serial);
    let par = go(ExecMode::Parallel { threads });
    assert_eq!(
        format!("{serial:?}"),
        format!("{par:?}"),
        "the node-parallel faulty cluster run diverged from the serial run"
    );
    let f = serial.faults;
    assert!(
        f.deaths > 0 && f.retries > 0 && f.restore_failures > 0 && f.node_losses > 0,
        "every fault family must fire: {f:?}"
    );
    assert_eq!(serial.completed + f.abandoned, requests);
    serial
}

/// Best-of-`iters` wrapper around [`timed_run`]: minimum wall-clock
/// over the samples, with repeat runs asserted bit-identical along the
/// way (every sample is also a determinism check for free).
fn timed_run_best(requests: u64, mode: ExecMode, iters: u32) -> (f64, String, usize) {
    let mut best = f64::INFINITY;
    let mut reference: Option<(String, usize)> = None;
    for _ in 0..iters {
        let (ns, fp, bytes) = timed_run(requests, mode);
        best = best.min(ns);
        match &reference {
            Some((ref_fp, _)) => assert_eq!(
                ref_fp, &fp,
                "repeat cluster run diverged from its own first sample"
            ),
            None => reference = Some((fp, bytes)),
        }
    }
    let (fp, bytes) = reference.expect("iters >= 1");
    (best, fp, bytes)
}

/// Measures both modes, asserts result equality and request-count-
/// independent stats memory.
pub fn run() -> ClusterScalingReport {
    let requests = requests();
    let threads = threads();
    let iters = iters();
    let (serial_ns, serial_fp, stats_bytes) = timed_run_best(requests, ExecMode::Serial, iters);
    let (par_ns, par_fp, _) = timed_run_best(requests, ExecMode::Parallel { threads }, iters);
    assert_eq!(
        serial_fp, par_fp,
        "the node-parallel cluster run diverged from the serial run"
    );
    faulty_check(requests.div_ceil(10), threads);
    // The bounded-memory acceptance: 50x fewer requests, same stats
    // footprint (two fixed-size sketches per node).
    let (_, _, small_bytes) = timed_run(requests.div_ceil(50), ExecMode::Serial);
    assert_eq!(
        stats_bytes, small_bytes,
        "stats memory must be independent of the request count"
    );
    ClusterScalingReport {
        requests,
        nodes: NODES,
        threads,
        serial_ns,
        par_ns,
        stats_bytes,
    }
}

/// Renders the report for the console and `results/scaling_cluster.csv`.
pub fn render(r: &ClusterScalingReport) -> TextTable {
    let mut t = TextTable::new(&[
        "nodes",
        "requests",
        "threads",
        "serial ms",
        "parallel ms",
        "speedup",
        "stats KiB",
    ]);
    t.row_owned(vec![
        r.nodes.to_string(),
        r.requests.to_string(),
        r.threads.to_string(),
        format!("{:.1}", r.serial_ns / 1e6),
        format!("{:.1}", r.par_ns / 1e6),
        format!("{:.2}x", r.speedup()),
        format!("{}", r.stats_bytes / 1024),
    ]);
    t
}
