//! Differential oracle: host-parallel fleet execution must be
//! bit-identical to the serial reference.
//!
//! Serial mode is the ground truth; every parallel run — across seeds,
//! routing policies, pool sizes and thread counts — must reproduce the
//! exact same [`FleetResult`]: every counter, every per-container stat,
//! every percentile, and the CSV-style rendering byte for byte. Float
//! fields are compared through `{:?}` (shortest round-trip form), which
//! distinguishes any two different bit patterns.

use gh_faas::fleet::{
    run_fleet_with, ExecMode, Fleet, FleetConfig, FleetResult, Pool, RoutePolicy,
};
use gh_functions::catalog::by_name;
use gh_isolation::StrategyKind;
use groundhog_core::GroundhogConfig;

/// An isolation strategy and the Groundhog configuration it runs with.
type Strategy = (StrategyKind, GroundhogConfig);

fn gh() -> Strategy {
    (StrategyKind::Gh, GroundhogConfig::gh())
}

fn run_as(
    (kind, gh): Strategy,
    pool_size: usize,
    cfg: &FleetConfig,
    requests: usize,
    mode: ExecMode,
) -> FleetResult {
    let spec = by_name("fannkuch (p)").unwrap();
    run_fleet_with(&spec, kind, gh, pool_size, cfg.clone(), requests, mode).unwrap()
}

fn run(pool_size: usize, cfg: &FleetConfig, requests: usize, mode: ExecMode) -> FleetResult {
    run_as(gh(), pool_size, cfg, requests, mode)
}

/// A CSV-style line covering every scalar field of the result, the way
/// the bench binaries render them. Byte equality here is the
/// user-visible half of the oracle.
fn csv_line(r: &FleetResult) -> String {
    let s = &r.stats;
    format!(
        "{:?},{},{:?},{:?},{:?},{:?},{},{},{},{},{:?},{:?},{:?},{:?},{:?},{},{},{:?},{:?},{},{}",
        r.offered_rps,
        r.completed,
        r.goodput_rps,
        r.mean_ms,
        r.p99_ms,
        r.utilization,
        s.pool_size,
        s.active,
        s.spawned,
        s.retired,
        s.queue_mean,
        s.queue_p50,
        s.queue_p95,
        s.queue_p99,
        s.restore_total_ms,
        s.lazy_faults,
        s.lazy_drained_pages,
        s.restore_overlap_ratio,
        s.snapshot_dedup_ratio,
        s.snapshot_resident_bytes,
        s.snapshot_bytes_per_container,
    )
}

/// Full structural fingerprint: `{:?}` covers every field including the
/// per-container loads, and round-trips f64 exactly.
fn fingerprint(r: &FleetResult) -> String {
    format!("{r:?}")
}

fn assert_identical(label: &str, serial: &FleetResult, parallel: &FleetResult) {
    assert_eq!(
        fingerprint(serial),
        fingerprint(parallel),
        "{label}: parallel result diverged from the serial reference"
    );
    assert_eq!(
        csv_line(serial),
        csv_line(parallel),
        "{label}: CSV rendering diverged"
    );
}

#[test]
fn parallel_matches_serial_across_seeds_and_pools() {
    for &seed in &[7u64, 99] {
        for &pool in &[2usize, 5] {
            let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, 250.0, seed);
            let requests = 300;
            let serial = run(pool, &cfg, requests, ExecMode::Serial);
            assert_eq!(serial.completed, requests, "oracle baseline must serve all");
            for &threads in &[2usize, 8] {
                let par = run(pool, &cfg, requests, ExecMode::Parallel { threads });
                assert_identical(
                    &format!("seed={seed} pool={pool} threads={threads}"),
                    &serial,
                    &par,
                );
            }
        }
    }
}

#[test]
fn parallel_matches_serial_with_principals() {
    // GH over 4 principals, then every other strategy and the lazy
    // restore modes, whose slots carry more state between requests
    // (lazy obligations, drains in idle gaps) than eager GH.
    let others = [
        (StrategyKind::Base, GroundhogConfig::gh()),
        (StrategyKind::Fork, GroundhogConfig::gh()),
        (StrategyKind::GhNop, GroundhogConfig::gh()),
        (StrategyKind::Gh, GroundhogConfig::lazy()),
        (StrategyKind::Gh, GroundhogConfig::lazy_drain()),
    ];
    let cases = std::iter::once((gh(), 4, 400, 1234)).chain(others.map(|s| (s, 3, 301, 11)));
    let parallel = ExecMode::Parallel { threads: 4 };
    for (strategy, principals, requests, seed) in cases {
        let cfg =
            FleetConfig::fixed(RoutePolicy::RoundRobin, 300.0, seed).with_principals(principals);
        let label = format!("{strategy:?} principals={principals}");
        // One slot per principal.
        let run_in = |mode| run_as(strategy.clone(), principals, &cfg, requests, mode);
        let serial = run_in(ExecMode::Serial);
        assert_eq!(serial.completed, requests, "{label}");
        assert_identical(&label, &serial, &run_in(parallel));
    }
}

/// `Platform::run_fleet` keeps its pools, so a second run starts from
/// the first run's end state. The sharded path executes every slot ahead
/// and rewinds its readiness for the replay; it must leave the pool
/// exactly where the serial loop does, eager or lazy, whichever mode
/// runs next.
#[test]
fn reused_pools_match_across_modes() {
    let spec = by_name("fannkuch (p)").unwrap();
    let (p2, p8) = (
        ExecMode::Parallel { threads: 2 },
        ExecMode::Parallel { threads: 8 },
    );
    for gh in [GroundhogConfig::gh(), GroundhogConfig::lazy_drain()] {
        let fleet = Fleet::new(FleetConfig::fixed(RoutePolicy::RoundRobin, 300.0, 11));
        let twice = |modes: [ExecMode; 2]| {
            let mut pool = Pool::build(&spec, StrategyKind::Gh, gh.clone(), 3, 11).unwrap();
            modes.map(|mode| fleet.run_with(&mut pool, 301, mode).unwrap())
        };
        let serial = twice([ExecMode::Serial; 2]);
        for modes in [[p2, p2], [p8, p8], [p2, ExecMode::Serial]] {
            let label = format!("{:?} {modes:?}", gh.restore_mode);
            let par = twice(modes);
            assert_identical(&format!("{label}: first run"), &serial[0], &par[0]);
            assert_identical(&format!("{label}: second run"), &serial[1], &par[1]);
        }
    }
}

#[test]
fn ineligible_policies_fall_back_to_serial() {
    // Non-round-robin routing depends on live container state, so the
    // parallel request must quietly take the serial path — and match.
    for policy in [RoutePolicy::LeastLoaded, RoutePolicy::RestoreAware] {
        let cfg = FleetConfig::fixed(policy, 250.0, 42);
        let serial = run(3, &cfg, 200, ExecMode::Serial);
        let par = run(3, &cfg, 200, ExecMode::Parallel { threads: 8 });
        assert_identical(policy.label(), &serial, &par);
    }
}

#[test]
fn single_container_pool_matches() {
    let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, 200.0, 5);
    let serial = run(1, &cfg, 150, ExecMode::Serial);
    let par = run(1, &cfg, 150, ExecMode::Parallel { threads: 8 });
    assert_identical("pool=1", &serial, &par);
}

#[test]
fn empty_run_is_mode_independent() {
    let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, 200.0, 5);
    let serial = run(3, &cfg, 0, ExecMode::Serial);
    let par = run(3, &cfg, 0, ExecMode::Parallel { threads: 4 });
    assert_eq!(serial.completed, 0);
    assert!(serial.mean_ms == 0.0 || serial.mean_ms.is_nan() == par.mean_ms.is_nan());
    assert_identical("requests=0", &serial, &par);
}
