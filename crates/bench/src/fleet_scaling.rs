//! The fleet rig: a 16-container round-robin pool of `fannkuch (p)`
//! under load high enough to keep every container busy without
//! unbounded queueing.
//!
//! `bench_smoke` counts heap allocations per simulated request on it
//! (`work_allocs_per_req_fleet`, gated at 0%). A fleet run is the
//! dispatch kernel's one loop on the caller's thread, so the rig has no
//! parallel side to time.

use gh_faas::fleet::{Fleet, FleetConfig, Pool, RoutePolicy};
use gh_functions::catalog::by_name;
use gh_isolation::StrategyKind;
use groundhog_core::GroundhogConfig;

/// Containers in the pool.
pub const POOL: usize = 16;
/// Arrival process seed.
const SEED: u64 = 42;
/// Offered load, requests/second — high enough to keep all containers
/// busy without unbounded queueing.
const OFFERED_RPS: f64 = 4000.0;

/// One run of the rig (pool build included) over `requests` requests,
/// untimed — what `bench_smoke`'s heap-allocation counter measures.
/// Returns the completed count.
pub fn serial_run(requests: usize) -> u64 {
    let spec = by_name("fannkuch (p)").expect("catalog");
    let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, OFFERED_RPS, SEED);
    let mut pool =
        Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), POOL, SEED).expect("pool");
    let result = Fleet::new(cfg).run(&mut pool, requests).expect("run");
    result.completed as u64
}
