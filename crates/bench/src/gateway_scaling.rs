//! Gateway effectiveness: result-cache speedup and predictive
//! pre-warming vs the reactive autoscaler.
//!
//! Unlike the host-parallel `*_scaling` rigs, every number here is
//! **virtual-time** — deterministic and machine-independent — so the
//! headline ratio is gate-safe without the single-core escape hatch.
//!
//! Two scenarios over the same function (`fannkuch (p)`):
//!
//! - **Cache**: a pool driven far past its capacity with ~50% of
//!   requests idempotent over a small payload universe. The gated
//!   [`GatewayScalingReport::cache_speedup`] is the served-request
//!   goodput quotient of the cache-enabled run over the *same workload*
//!   with the gateway disabled. Overloaded, the span is service-bound,
//!   so shedding ~half the backend work from the critical path must
//!   roughly double goodput (acceptance floor 2x). The disabled run
//!   doubles as an in-rig oracle: its fleet result must be byte-
//!   identical to the ungated [`gh_faas::fleet::Fleet::run`] reference (payload draws
//!   ride a separate RNG stream), and its stats memory must not depend
//!   on the request count.
//! - **Pre-warm**: a diurnal workload whose peaks need a deeper pool.
//!   Both sides get the same container-memory budget ([`MAX_POOL`]);
//!   the reactive side grows only after queues back up, the predictive
//!   side projects the EWMA arrival rate through the trace's diurnal
//!   phase one horizon ahead. p99 sojourns are published as `info_`
//!   metrics and the rig asserts the predictive side does not lose —
//!   deterministic virtual time makes that assert noise-free.

use gh_faas::fleet::{run_fleet, AutoscaleConfig, FleetConfig, RoutePolicy};
use gh_faas::gateway::{run_gateway_fleet, GatewayFleetConfig, GatewayResult};
use gh_functions::catalog::by_name;
use gh_gateway::cache::CacheConfig;
use gh_gateway::prewarm::PrewarmConfig;
use gh_gateway::GatewayConfig;
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

/// Seed of every run in the rig.
const SEED: u64 = 61;
/// Container-memory budget of the pre-warm comparison (max pool size
/// on both sides).
pub const MAX_POOL: usize = 4;
/// Fraction of requests flagged idempotent in the cache scenario. Set
/// slightly above the ~50% hit-ratio target: fills become visible only
/// when the filling response leaves the overloaded backend, so a slice
/// of early idempotent arrivals miss against in-flight fills.
const IDEMPOTENT_FRAC: f64 = 0.6;

/// Requests per measured run (`GH_GATEWAY_REQUESTS` overrides).
pub fn requests() -> usize {
    std::env::var("GH_GATEWAY_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

/// Samples per cell (`GH_GATEWAY_ITERS` overrides; default 3). The
/// numbers are virtual-time, so unlike the wall-clock rigs there is no
/// noise to minimize away — every repeat must be *bit-identical* to
/// the first, and the extra samples exist purely as free determinism
/// asserts (the same `GH_*_ITERS` treatment as the wall-clock rigs,
/// with the min degenerating to the common value).
pub fn iters() -> u32 {
    std::env::var("GH_GATEWAY_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Runs `cell` `iters` times, asserting every repeat bit-identical to
/// the first, and returns the first result.
fn repeat_identical(label: &str, iters: u32, cell: impl Fn() -> GatewayResult) -> GatewayResult {
    let first = cell();
    let fp = format!("{:?},{:?}", first.fleet, first.gateway);
    for i in 1..iters {
        let again = cell();
        assert_eq!(
            fp,
            format!("{:?},{:?}", again.fleet, again.gateway),
            "{label}: repeat {i} diverged from the first sample"
        );
    }
    first
}

/// Virtual-time outcomes of both scenarios.
pub struct GatewayScalingReport {
    /// Requests per measured run.
    pub requests: usize,
    /// Goodput of the cache-enabled overloaded run, r/s.
    pub cached_goodput_rps: f64,
    /// Goodput of the same workload with the gateway disabled, r/s.
    pub ungated_goodput_rps: f64,
    /// Cache hit ratio of the enabled run (hits / served).
    pub hit_ratio: f64,
    /// p99 sojourn under the predictive pre-warmer, ms.
    pub prewarm_p99_ms: f64,
    /// p99 sojourn under the reactive autoscaler, ms.
    pub reactive_p99_ms: f64,
    /// Pre-warm cold starts issued (≤ the shared budget).
    pub prewarm_spawns: u64,
    /// Reactive cold starts issued.
    pub reactive_spawns: usize,
    /// Percentile-tracking bytes per run — constant in `requests`.
    pub stats_bytes: u64,
}

impl GatewayScalingReport {
    /// Served-request goodput quotient, cache-enabled over ungated.
    pub fn cache_speedup(&self) -> f64 {
        self.cached_goodput_rps / self.ungated_goodput_rps.max(f64::MIN_POSITIVE)
    }
}

/// The overload workload of the cache scenario: ~4x pool capacity so
/// the span is service-bound, idempotent traffic over a tiny payload
/// universe so the achievable hit ratio approaches [`IDEMPOTENT_FRAC`].
fn cache_workload(gateway: GatewayConfig) -> GatewayFleetConfig {
    GatewayFleetConfig {
        idempotent_frac: IDEMPOTENT_FRAC,
        payload_universe: 8,
        ..GatewayFleetConfig::passthrough(FleetConfig::fixed(
            RoutePolicy::LeastLoaded,
            1_000.0,
            SEED,
        ))
    }
    .with_gateway(gateway)
}

/// The cache scenario's enabled cell: `requests` arrivals behind a 60 s
/// result cache, serial like every gateway run. `bench_smoke` counts
/// its heap allocations per request.
pub fn cached_run(requests: usize) -> GatewayResult {
    run_cache_cell(
        GatewayConfig::builder()
            .cache(CacheConfig::default_for_ttl(Nanos::from_secs(60)))
            .build(),
        requests,
    )
}

fn run_cache_cell(gateway: GatewayConfig, requests: usize) -> GatewayResult {
    let spec = by_name("fannkuch (p)").expect("catalog");
    run_gateway_fleet(
        &spec,
        StrategyKind::Gh,
        GroundhogConfig::gh(),
        2,
        cache_workload(gateway),
        requests,
    )
    .expect("gateway run")
}

/// The diurnal workload of the pre-warm scenario: mean load near one
/// slot's capacity with peaks that need the full budget.
fn diurnal_workload(gateway: GatewayConfig, autoscale: bool) -> GatewayFleetConfig {
    let mut fleet = FleetConfig::fixed(RoutePolicy::LeastLoaded, 180.0, SEED).with_principals(4);
    if autoscale {
        fleet.autoscale = Some(AutoscaleConfig {
            min_size: 1,
            max_size: MAX_POOL,
            ..AutoscaleConfig::default()
        });
    }
    GatewayFleetConfig {
        diurnal_amplitude: 0.8,
        diurnal_period: Nanos::from_secs(20),
        ..GatewayFleetConfig::passthrough(fleet)
    }
    .with_gateway(gateway)
}

fn run_prewarm_cell(predictive: bool, requests: usize) -> GatewayResult {
    let spec = by_name("fannkuch (p)").expect("catalog");
    let gateway = if predictive {
        GatewayConfig::builder()
            .prewarm(PrewarmConfig {
                diurnal_amplitude: 0.8,
                diurnal_period: Nanos::from_secs(20),
                ..PrewarmConfig::flat(Nanos::from_secs(2), MAX_POOL)
            })
            .build()
    } else {
        GatewayConfig::disabled()
    };
    run_gateway_fleet(
        &spec,
        StrategyKind::Gh,
        GroundhogConfig::gh(),
        1,
        diurnal_workload(gateway, !predictive),
        requests,
    )
    .expect("gateway run")
}

/// Runs both scenarios; asserts the in-rig oracle, the bounded stats
/// memory, and that the predictive side does not lose the p99 race.
pub fn run() -> GatewayScalingReport {
    let requests = requests();
    let iters = iters();
    let spec = by_name("fannkuch (p)").expect("catalog");

    // Cache scenario + in-rig oracle: the disabled cell must replay the
    // ungated fleet bit for bit. Both cells run `iters` times with
    // repeats asserted bit-identical, so the gated speedup quotient is
    // backed by a determinism check on each operand.
    let cached = repeat_identical("cached", iters, || cached_run(requests));
    let ungated = repeat_identical("ungated", iters, || {
        run_cache_cell(GatewayConfig::disabled(), requests)
    });
    let reference = run_fleet(
        &spec,
        StrategyKind::Gh,
        GroundhogConfig::gh(),
        2,
        FleetConfig::fixed(RoutePolicy::LeastLoaded, 1_000.0, SEED),
        requests,
    )
    .expect("ungated reference");
    assert_eq!(
        format!("{:?}", ungated.fleet),
        format!("{reference:?}"),
        "cache-off gateway diverged from the ungated fleet"
    );
    // Bounded stats memory: 20x fewer requests, same sketch footprint.
    let small = run_cache_cell(GatewayConfig::disabled(), requests.div_ceil(20));
    assert_eq!(
        cached.fleet.stats.stats_bytes, small.fleet.stats.stats_bytes,
        "gateway stats memory must be independent of the request count"
    );

    // Pre-warm scenario at one shared container-memory budget.
    let predictive = run_prewarm_cell(true, requests);
    let reactive = run_prewarm_cell(false, requests);
    assert!(
        predictive.fleet.p99_ms <= reactive.fleet.p99_ms,
        "predictive pre-warm must not lose to the reactive autoscaler: {:.2}ms vs {:.2}ms",
        predictive.fleet.p99_ms,
        reactive.fleet.p99_ms,
    );

    GatewayScalingReport {
        requests,
        cached_goodput_rps: cached.fleet.goodput_rps,
        ungated_goodput_rps: ungated.fleet.goodput_rps,
        hit_ratio: cached.gateway.cache_hits as f64 / (cached.gateway.served as f64).max(1.0),
        prewarm_p99_ms: predictive.fleet.p99_ms,
        reactive_p99_ms: reactive.fleet.p99_ms,
        prewarm_spawns: predictive.gateway.prewarm_spawns,
        reactive_spawns: reactive.fleet.stats.spawned,
        stats_bytes: cached.fleet.stats.stats_bytes,
    }
}

/// Renders the report for the console and `results/scaling_gateway.csv`.
pub fn render(r: &GatewayScalingReport) -> TextTable {
    let mut t = TextTable::new(&[
        "requests",
        "cached r/s",
        "ungated r/s",
        "speedup",
        "hit ratio",
        "prewarm p99 ms",
        "reactive p99 ms",
        "prewarm spawns",
        "reactive spawns",
    ]);
    t.row_owned(vec![
        r.requests.to_string(),
        format!("{:.1}", r.cached_goodput_rps),
        format!("{:.1}", r.ungated_goodput_rps),
        format!("{:.2}x", r.cache_speedup()),
        format!("{:.2}", r.hit_ratio),
        format!("{:.2}", r.prewarm_p99_ms),
        format!("{:.2}", r.reactive_p99_ms),
        r.prewarm_spawns.to_string(),
        r.reactive_spawns.to_string(),
    ]);
    t
}
