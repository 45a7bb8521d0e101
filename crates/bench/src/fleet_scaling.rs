//! Host-side scaling of parallel fleet execution (`Fleet::run_with`
//! sharded across worker threads) vs the serial reference.
//!
//! The rig drives the same 16-container, 10⁵-request round-robin run
//! twice — [`ExecMode::Serial`] and [`ExecMode::Parallel`] at
//! [`THREADS`] workers — over identically-seeded pools, timing only the
//! run (pool construction is paid outside the clock on both sides).
//! Result equality is asserted after the measurement through the
//! `{:?}` fingerprint (shortest-round-trip floats, so any differing bit
//! pattern shows), making the rig double as a release-mode oracle on
//! top of `gh-faas`'s differential tests.
//!
//! Gate design matches `scaling.rs`: the **speedup ratio** is a
//! same-machine quotient (machine-independent, gated, capped at 8 so
//! the 10% gate tracks the ≥2x acceptance floor rather than jitter in
//! the typical ratio); raw ns per run is machine-dependent and
//! published as gate-exempt `info_` metrics plus
//! `results/scaling_fleet.csv`.

use std::time::Instant;

use gh_faas::fleet::{ExecMode, Fleet, FleetConfig, Pool, RoutePolicy};
use gh_functions::catalog::by_name;
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use groundhog_core::GroundhogConfig;

/// Containers in the measured pool.
pub const POOL: usize = 16;
/// Requests per measured run.
pub const REQUESTS: usize = 100_000;
/// Worker threads on the parallel side.
pub const THREADS: usize = 8;
/// Arrival process seed.
const SEED: u64 = 42;
/// Offered load, requests/second — high enough to keep all containers
/// busy without unbounded queueing.
const OFFERED_RPS: f64 = 4000.0;

/// Timing samples per mode (`GH_FLEET_ITERS` overrides; default 3).
/// The gated speedup is min(serial)/min(parallel): a single-shot
/// measurement on a noisy single-core host occasionally swings past
/// the perf gate's 10% band, while the minimum converges to the
/// undisturbed cost (same treatment as `cluster_scaling::iters`).
/// Every extra sample doubles as a free repeat-determinism assert.
pub fn iters() -> u32 {
    std::env::var("GH_FLEET_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Wall-clock of the two execution modes over the same run.
pub struct FleetScalingReport {
    /// Requests per measured run.
    pub requests: usize,
    /// Containers in the pool.
    pub pool: usize,
    /// Worker threads on the parallel side.
    pub threads: usize,
    /// ns for the serial run.
    pub serial_ns: f64,
    /// ns for the parallel run.
    pub par_ns: f64,
}

impl FleetScalingReport {
    /// Serial / parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.serial_ns / self.par_ns.max(1.0)
    }
}

fn timed_run(mode: ExecMode) -> (f64, String) {
    let spec = by_name("fannkuch (p)").expect("catalog");
    let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, OFFERED_RPS, SEED);
    let mut pool =
        Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), POOL, SEED).expect("pool");
    let mut fleet = Fleet::new(cfg);
    let t0 = Instant::now();
    let result = fleet.run_with(&mut pool, REQUESTS, mode).expect("run");
    let ns = t0.elapsed().as_nanos() as f64;
    (ns, format!("{result:?}"))
}

/// One serial run of the rig's shape (pool build included) over
/// `requests` requests, untimed — what `bench_smoke`'s heap-allocation
/// counter measures. Returns the completed count.
pub fn serial_run(requests: usize) -> u64 {
    let spec = by_name("fannkuch (p)").expect("catalog");
    let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, OFFERED_RPS, SEED);
    let mut pool =
        Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), POOL, SEED).expect("pool");
    let result = Fleet::new(cfg)
        .run_with(&mut pool, requests, ExecMode::Serial)
        .expect("run");
    result.completed as u64
}

/// Best-of-`iters` wrapper around [`timed_run`]: minimum wall-clock
/// over the samples, with repeat runs asserted bit-identical along the
/// way (every sample is also a determinism check for free).
fn timed_run_best(mode: ExecMode, iters: u32) -> (f64, String) {
    let mut best = f64::INFINITY;
    let mut reference: Option<String> = None;
    for _ in 0..iters {
        let (ns, fp) = timed_run(mode);
        best = best.min(ns);
        match &reference {
            Some(ref_fp) => assert_eq!(
                ref_fp, &fp,
                "repeat fleet run diverged from its own first sample"
            ),
            None => reference = Some(fp),
        }
    }
    (best, reference.expect("iters >= 1"))
}

/// Measures both modes and asserts result equality.
pub fn run() -> FleetScalingReport {
    let iters = iters();
    let (serial_ns, serial_fp) = timed_run_best(ExecMode::Serial, iters);
    let (par_ns, par_fp) = timed_run_best(ExecMode::Parallel { threads: THREADS }, iters);
    assert_eq!(
        serial_fp, par_fp,
        "parallel fleet run diverged from the serial reference"
    );
    FleetScalingReport {
        requests: REQUESTS,
        pool: POOL,
        threads: THREADS,
        serial_ns,
        par_ns,
    }
}

/// Renders the report for the console and `results/scaling_fleet.csv`.
pub fn render(r: &FleetScalingReport) -> TextTable {
    let mut t = TextTable::new(&[
        "pool",
        "requests",
        "threads",
        "serial ms",
        "parallel ms",
        "speedup",
    ]);
    t.row_owned(vec![
        r.pool.to_string(),
        r.requests.to_string(),
        r.threads.to_string(),
        format!("{:.1}", r.serial_ns / 1e6),
        format!("{:.1}", r.par_ns / 1e6),
        format!("{:.2}x", r.speedup()),
    ]);
    t
}
