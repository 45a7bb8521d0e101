//! Fault-injection oracle: three contracts pin the fault layer down.
//!
//! 1. **Disabled means invisible.** A run with fault injection
//!    *disabled* (inert [`FaultConfig`], or none at all) must be
//!    bit-identical — `{:?}` fingerprint and CSV rendering — to the
//!    plain [`Fleet::run`] / [`run_cluster_with`] paths across seeds
//!    and policies. The fault layer may not advance any RNG stream or
//!    add any event when it is off.
//! 2. **Crash-equivalence.** A workflow run under seeded crash/retry
//!    schedules (with no abandonment) must end in the same final KV
//!    state, the same per-workflow outputs, and the same applied
//!    version count as the crash-free run — retried hops never
//!    double-apply (`kv_versions` equality is the zero-duplicates
//!    assert).
//! 3. **Faults don't break determinism.** With faults *enabled*,
//!    node-parallel cluster execution stays byte-identical to serial,
//!    and repeat fleet runs reproduce the same result, for both retry
//!    policies.

use gh_faas::cluster::{run_cluster_with, ClusterConfig, ClusterResult, PlacePolicy};
use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::fleet::{ExecMode, Fleet, FleetConfig, FleetResult, Pool, RoutePolicy};
use gh_faas::gateway::{run_gateway_fleet, GatewayFleetConfig};
use gh_faas::trace::{redeploy_schedule, synthetic_catalog, TraceConfig};
use gh_faas::workflow::dag::{run_dag_workflows, DagSpec};
use gh_faas::workflow::WorkflowConfig;
use gh_functions::catalog::by_name;
use gh_functions::FunctionSpec;
use gh_isolation::StrategyKind;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

fn fleet_run(seed: u64, policy: RoutePolicy, faults: Option<FaultConfig>) -> FleetResult {
    let spec = by_name("fannkuch (p)").unwrap();
    let mut pool = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 3, seed).unwrap();
    let cfg = FleetConfig::fixed(policy, 120.0, seed);
    let mut fleet = Fleet::new(cfg);
    if let Some(fc) = faults {
        fleet = fleet.with_faults(fc);
    }
    fleet.run(&mut pool, 250).unwrap()
}

/// CSV-style scalar rendering, the user-visible half of the oracle
/// (mirrors the bench binaries' columns plus the fault counters).
fn fleet_csv(r: &FleetResult) -> String {
    let f = &r.stats.faults;
    format!(
        "{:?},{},{:?},{:?},{:?},{:?},{},{},{},{},{},{}",
        r.offered_rps,
        r.completed,
        r.goodput_rps,
        r.mean_ms,
        r.p99_ms,
        r.utilization,
        f.deaths,
        f.restore_failures,
        f.retries,
        f.duplicates,
        f.abandoned,
        f.node_losses,
    )
}

#[test]
fn disabled_faults_are_invisible_to_the_fleet() {
    for &seed in &[3u64, 77] {
        for &policy in &[RoutePolicy::RoundRobin, RoutePolicy::RestoreAware] {
            let plain = fleet_run(seed, policy, None);
            let inert = fleet_run(seed, policy, Some(FaultConfig::none(seed)));
            assert_eq!(
                format!("{plain:?}"),
                format!("{inert:?}"),
                "seed={seed} policy={policy:?}: inert fault config changed the run"
            );
            assert_eq!(fleet_csv(&plain), fleet_csv(&inert));
            assert!(plain.stats.faults.is_empty());
        }
    }
}

fn cluster_run(
    catalog: &[FunctionSpec],
    tc: &TraceConfig,
    faults: Option<FaultConfig>,
    mode: ExecMode,
) -> ClusterResult {
    let mut ccfg = ClusterConfig::new(3, PlacePolicy::RoundRobin, StrategyKind::Gh, tc.seed);
    ccfg.slots_per_pool = 2;
    if let Some(fc) = faults {
        ccfg = ccfg.with_faults(fc);
    }
    run_cluster_with(tc, catalog, &ccfg, GroundhogConfig::gh(), mode).unwrap()
}

#[test]
fn disabled_faults_are_invisible_to_the_cluster() {
    for &seed in &[11u64, 29] {
        let catalog = synthetic_catalog(12, seed);
        let tc = TraceConfig {
            principals: 6,
            ..TraceConfig::new(12, 300, 2_000.0, seed)
        };
        let plain = cluster_run(&catalog, &tc, None, ExecMode::Serial);
        let inert = cluster_run(
            &catalog,
            &tc,
            Some(FaultConfig::none(seed)),
            ExecMode::Serial,
        );
        assert_eq!(
            format!("{plain:?}"),
            format!("{inert:?}"),
            "seed={seed}: inert fault config changed the cluster run"
        );
        assert!(plain.faults.is_empty());
    }
}

#[test]
fn workflow_crash_equivalence_across_seeds_and_rates() {
    let funcs: Vec<FunctionSpec> = ["get-time (n)", "float (p)"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect();
    // A 3-hop chain: at the 5% rate a 2-hop chain's 50 hops draw no
    // death for one of the seeds.
    let chain = DagSpec::chain(&[0, 1, 0]);
    let run = |cfg: &WorkflowConfig| {
        run_dag_workflows(&chain, &funcs, GroundhogConfig::gh(), cfg).unwrap()
    };
    for &seed in &[0xA5u64, 0x51CE] {
        let clean_cfg = WorkflowConfig::new(25, StrategyKind::Gh, seed);
        let clean = run(&clean_cfg);
        assert_eq!(clean.completed, 25);
        for &rate in &[0.05f64, 0.15] {
            let mut fc = FaultConfig::deaths(seed ^ 0xFA, rate);
            // Enough attempts that abandonment never fires at these
            // rates; equivalence is only claimed for zero abandonment.
            fc.retry = RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::bounded()
            };
            let faulty_cfg = clean_cfg.clone().with_faults(fc);
            let faulty = run(&faulty_cfg);
            let label = format!("seed={seed} rate={rate}");
            assert!(faulty.faults.deaths > 0, "{label}: no faults fired");
            assert_eq!(faulty.faults.abandoned, 0, "{label}");
            assert_eq!(faulty.completed, 25, "{label}");
            assert_eq!(faulty.outputs, clean.outputs, "{label}: outputs diverged");
            assert_eq!(
                faulty.kv_fingerprint, clean.kv_fingerprint,
                "{label}: final KV state diverged"
            );
            // Zero double-applies: exactly one version per (workflow,
            // hop) landed, with every duplicate execution absorbed.
            assert_eq!(faulty.kv_versions, clean.kv_versions, "{label}");
            assert_eq!(
                faulty.duplicates_suppressed, faulty.faults.duplicates,
                "{label}: a post-commit death's retry was not absorbed"
            );
        }
    }
}

#[test]
fn faulty_cluster_parallel_matches_serial_for_both_retry_policies() {
    let seed = 17u64;
    let catalog = synthetic_catalog(12, seed);
    let tc = TraceConfig {
        principals: 6,
        ..TraceConfig::new(12, 400, 2_500.0, seed)
    };
    for retry in [RetryPolicy::bounded(), RetryPolicy::rerouting()] {
        let mut fc = FaultConfig::deaths(seed, 0.06);
        fc.restore_failure_rate = 0.05;
        fc.node_loss_rate = 0.25;
        fc.node_loss_window = Nanos::from_millis(15);
        fc.retry = retry;
        let serial = cluster_run(&catalog, &tc, Some(fc), ExecMode::Serial);
        assert!(serial.faults.deaths > 0, "{}", retry.label());
        assert!(serial.faults.node_losses > 0, "{}", retry.label());
        assert_eq!(
            serial.completed + serial.faults.abandoned,
            400,
            "{}: every request completes or is abandoned",
            retry.label()
        );
        for &threads in &[2usize, 4] {
            let par = cluster_run(&catalog, &tc, Some(fc), ExecMode::Parallel { threads });
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "{} threads={threads}: faulty parallel diverged from serial",
                retry.label()
            );
        }
    }
}

#[test]
fn faulty_gateway_accounts_and_redeploys_invalidate_the_cache() {
    use gh_gateway::cache::CacheConfig;
    use gh_gateway::GatewayConfig;

    let seed = 23u64;
    let spec = by_name("fannkuch (p)").unwrap();
    let run = || {
        let mut fc = FaultConfig::deaths(seed, 0.08);
        fc.restore_failure_rate = 0.05;
        let cfg = GatewayFleetConfig {
            idempotent_frac: 0.5,
            payload_universe: 8,
            faults: Some(fc),
            // The schedule helper keys off a trace config describing
            // the same span the Poisson arrivals cover (which start at
            // virtual zero, not the cluster trace's warm origin).
            redeploys: redeploy_schedule(
                &TraceConfig {
                    origin: Nanos::ZERO,
                    ..TraceConfig::new(1, 220, 150.0, seed)
                },
                2,
            ),
            ..GatewayFleetConfig::passthrough(FleetConfig::fixed(
                RoutePolicy::RoundRobin,
                150.0,
                seed,
            ))
        }
        .with_gateway(
            GatewayConfig::builder()
                .cache(CacheConfig::default_for_ttl(Nanos::from_secs(30)))
                .build(),
        );
        run_gateway_fleet(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 3, cfg, 220).unwrap()
    };
    let first = run();
    let f = &first.fleet.stats.faults;
    assert!(f.deaths > 0, "deaths must fire at 8%");
    assert_eq!(
        first.gateway.served + first.gateway.rejected + f.abandoned,
        220,
        "every arrival is served, shed, or abandoned"
    );
    assert!(
        first.gateway.cache_invalidated > 0,
        "redeploys must sweep live cache entries"
    );
    let second = run();
    assert_eq!(
        format!("{:?}", first.fleet),
        format!("{:?}", second.fleet),
        "faulty gateway repeats diverged"
    );
    assert_eq!(first.gateway, second.gateway);
}

#[test]
fn faulty_fleet_repeats_are_bit_identical() {
    for retry in [RetryPolicy::bounded(), RetryPolicy::rerouting()] {
        let mut fc = FaultConfig::deaths(42, 0.08);
        fc.restore_failure_rate = 0.05;
        fc.retry = retry;
        let first = fleet_run(42, RoutePolicy::RestoreAware, Some(fc));
        let second = fleet_run(42, RoutePolicy::RestoreAware, Some(fc));
        assert!(first.stats.faults.deaths > 0, "{}", retry.label());
        assert_eq!(
            format!("{first:?}"),
            format!("{second:?}"),
            "{}: repeat faulty runs diverged",
            retry.label()
        );
        assert_eq!(fleet_csv(&first), fleet_csv(&second));
    }
}
