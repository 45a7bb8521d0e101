//! Extension experiment (E19): gateway policy sweep — result-cache hit
//! ratio × principal skew × predictive pre-warming over one overloaded
//! fleet.
//!
//! Quantifies the knobs PR 8 adds in front of the fleet: how much
//! idempotent traffic the cache must see before it pays, what a hot
//! principal does to token-bucket sheds, and whether the pre-warmer's
//! diurnal projection still helps once admission is throttling arrivals.
//!
//! ```text
//! cargo run --release -p gh-bench --bin gatewaysweep            # parallel cells
//! cargo run --release -p gh-bench --bin gatewaysweep -- --serial
//! ```
//!
//! Every cell is a pure function of its config (own kernel, own seed,
//! virtual time only), so the grid parallelizes over OS threads via
//! [`run_cells`] and the CSV is byte-identical to `--serial` — the CI
//! determinism matrix diffs exactly that.

use gh_bench::harness::{run_cells, serial_requested};
use gh_bench::{smoke, write_sweep};
use gh_faas::fleet::{AutoscaleConfig, FleetConfig, RoutePolicy};
use gh_faas::gateway::{run_gateway_fleet, GatewayFleetConfig, GatewayResult};
use gh_gateway::admission::AdmissionConfig;
use gh_gateway::cache::CacheConfig;
use gh_gateway::prewarm::PrewarmConfig;
use gh_gateway::GatewayConfig;
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

const SEED: u64 = 83;
/// Shared container-memory budget: reactive and predictive cells may
/// both grow the pool to this size, never past it.
const MAX_POOL: usize = 4;

#[derive(Clone, Copy)]
struct Cell {
    idempotent_frac: f64,
    hot_principal_frac: f64,
    prewarm: bool,
}

fn run_cell(cell: &Cell, requests: usize) -> GatewayResult {
    let spec = gh_functions::catalog::by_name("fannkuch (p)").expect("catalog");
    let mut fleet = FleetConfig::fixed(RoutePolicy::LeastLoaded, 450.0, SEED).with_principals(8);
    let mut gateway = GatewayConfig::builder()
        .cache(CacheConfig::default_for_ttl(Nanos::from_secs(30)))
        .admission(AdmissionConfig {
            rate_per_sec: 90.0,
            burst: 45,
            max_in_flight: Some(64),
        });
    if cell.prewarm {
        gateway = gateway.prewarm(PrewarmConfig {
            diurnal_amplitude: 0.6,
            diurnal_period: Nanos::from_secs(20),
            ..PrewarmConfig::flat(Nanos::from_secs(2), MAX_POOL)
        });
    } else {
        fleet.autoscale = Some(AutoscaleConfig {
            min_size: 1,
            max_size: MAX_POOL,
            ..AutoscaleConfig::default()
        });
    }
    let cfg = GatewayFleetConfig {
        idempotent_frac: cell.idempotent_frac,
        payload_universe: 12,
        hot_principal_frac: cell.hot_principal_frac,
        diurnal_amplitude: 0.6,
        diurnal_period: Nanos::from_secs(20),
        ..GatewayFleetConfig::passthrough(fleet)
    }
    .with_gateway(gateway.build());
    run_gateway_fleet(
        &spec,
        StrategyKind::Gh,
        GroundhogConfig::gh(),
        1,
        cfg,
        requests,
    )
    .expect("gateway run")
}

fn main() {
    let requests: usize = if smoke() { 2_000 } else { 8_000 };
    let mut cells = Vec::new();
    for &idempotent_frac in &[0.0, 0.25, 0.5] {
        for &hot_principal_frac in &[0.0, 0.5] {
            for &prewarm in &[false, true] {
                cells.push(Cell {
                    idempotent_frac,
                    hot_principal_frac,
                    prewarm,
                });
            }
        }
    }
    println!(
        "== E19 — gateway sweep: {requests} requests, diurnal A=0.6/20s, \
         cache TTL 30s, bucket 90 r/s burst 45, pool budget {MAX_POOL} ==\n"
    );
    let results = run_cells(&cells, serial_requested(), |c| run_cell(c, requests));
    let mut table = TextTable::new(&[
        "idem frac",
        "hot frac",
        "prewarm",
        "served",
        "hit ratio",
        "rejected",
        "deferred",
        "goodput r/s",
        "p99 ms",
        "spawns",
    ]);
    for (cell, r) in cells.iter().zip(&results) {
        let spawns = if cell.prewarm {
            r.gateway.prewarm_spawns
        } else {
            r.fleet.stats.spawned as u64
        };
        table.row_owned(vec![
            format!("{:.2}", cell.idempotent_frac),
            format!("{:.2}", cell.hot_principal_frac),
            if cell.prewarm { "yes" } else { "no" }.to_string(),
            format!("{}", r.gateway.served),
            format!(
                "{:.2}",
                r.gateway.cache_hits as f64 / (r.gateway.served as f64).max(1.0)
            ),
            format!("{}", r.gateway.rejected),
            format!("{}", r.gateway.deferred),
            format!("{:.1}", r.fleet.goodput_rps),
            format!("{:.2}", r.fleet.p99_ms),
            format!("{spawns}"),
        ]);
    }
    println!("{}", table.render());
    write_sweep("gatewaysweep", &table);
    println!(
        "Expected shape: hit ratio climbs with the idempotent fraction and lifts \
         goodput roughly in proportion (hits leave the backend untouched); a hot \
         principal concentrates arrivals on one token bucket, so sheds rise while \
         the cold principals sail through; pre-warm cells spend the same pool \
         budget earlier in each diurnal upswing and shave the p99 queueing the \
         reactive cells only react to."
    );
}
