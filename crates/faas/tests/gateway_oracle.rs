//! Differential oracle for the gateway: a disabled gateway is the
//! ungated platform, bit for bit.
//!
//! Two layers, two references:
//!
//! - **Fleet**: [`run_gateway_fleet`] with [`GatewayFleetConfig::passthrough`]
//!   (all policies off, flat workload) must reproduce the ungated
//!   [`Fleet::run`] reference exactly — every counter and every
//!   sketch-derived float, compared through `{:?}` (shortest round-trip
//!   rendering, distinguishes any two f64 bit patterns) and through a
//!   CSV-style line, across seeds × route policies × autoscaler on/off
//!   × fault cases (none; deaths plus restore failures retried on the
//!   same container; the same retried elsewhere). Both runs are one
//!   driver body over the dispatch kernel's one loop, the gateway's
//!   with its policies off, so a divergence here means a policy step
//!   acts when its policy is off.
//! - **Cluster**: [`run_cluster_gateway`] with [`GatewayConfig::disabled`]
//!   must embed a [`ClusterResult`] byte-identical to [`run_cluster_with`],
//!   and with policies *enabled* the node-parallel run must stay
//!   byte-identical to the serial one (the front is a pure fold over the
//!   trace, so parallelism must not be able to observe it).
//!
//! Enabled-policy runs are additionally pinned by repeat-run equality:
//! cache, admission and pre-warm state all live on the virtual timeline,
//! so running the same config twice must reproduce every byte.

use gh_faas::cluster::{run_cluster_gateway, run_cluster_with, ClusterConfig, PlacePolicy};
use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::fleet::{
    run_fleet, AutoscaleConfig, ExecMode, Fleet, FleetConfig, FleetResult, Pool, RoutePolicy,
};
use gh_faas::gateway::{run_gateway_fleet, GatewayFleet, GatewayFleetConfig};
use gh_faas::trace::cluster_redeploy_schedule;
use gh_faas::trace::{synthetic_catalog, TraceConfig};
use gh_gateway::admission::AdmissionConfig;
use gh_gateway::cache::CacheConfig;
use gh_gateway::prewarm::PrewarmConfig;
use gh_gateway::GatewayConfig;
use gh_isolation::StrategyKind;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

/// CSV-style line over the fleet scalars — the rendering the bench
/// binaries emit. Byte equality here is the user-visible half.
fn csv_line(r: &FleetResult) -> String {
    format!(
        "{:?},{},{:?},{:?},{:?},{:?},{},{},{},{},{:?},{:?},{:?},{},{}",
        r.offered_rps,
        r.completed,
        r.goodput_rps,
        r.mean_ms,
        r.p99_ms,
        r.utilization,
        r.stats.pool_size,
        r.stats.active,
        r.stats.spawned,
        r.stats.retired,
        r.stats.queue_mean,
        r.stats.queue_p99,
        r.stats.restore_total_ms,
        r.stats.lazy_faults,
        r.stats.stats_bytes,
    )
}

fn fleet_cfg(policy: RoutePolicy, seed: u64, autoscale: bool) -> FleetConfig {
    let mut cfg = FleetConfig::fixed(policy, 220.0, seed).with_principals(4);
    if autoscale {
        cfg.autoscale = Some(AutoscaleConfig {
            max_size: 6,
            ..AutoscaleConfig::default()
        });
    }
    cfg
}

/// The oracle's fault cases: none, then 8% deaths plus 4% restore
/// failures under each retry policy.
fn fault_cases(seed: u64) -> [Option<FaultConfig>; 3] {
    let faulty = |retry| FaultConfig {
        restore_failure_rate: 0.04,
        retry,
        ..FaultConfig::deaths(seed, 0.08)
    };
    [
        None,
        Some(faulty(RetryPolicy::bounded())),
        Some(faulty(RetryPolicy::rerouting())),
    ]
}

#[test]
fn passthrough_gateway_is_the_ungated_fleet_bit_for_bit() {
    let spec = gh_functions::catalog::by_name("fannkuch (p)").unwrap();
    let mut deaths = 0;
    for seed in [3u64, 17, 4242] {
        for policy in [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastLoaded,
            RoutePolicy::RestoreAware,
        ] {
            for autoscale in [false, true] {
                for faults in fault_cases(seed) {
                    let fc = fleet_cfg(policy, seed, autoscale);
                    let gated = run_gateway_fleet(
                        &spec,
                        StrategyKind::Gh,
                        GroundhogConfig::gh(),
                        3,
                        GatewayFleetConfig {
                            faults,
                            ..GatewayFleetConfig::passthrough(fc.clone())
                        },
                        160,
                    )
                    .unwrap();
                    let ungated = match faults {
                        None => {
                            run_fleet(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 3, fc, 160)
                                .unwrap()
                        }
                        Some(f) => {
                            let mut pool = Pool::build(
                                &spec,
                                StrategyKind::Gh,
                                GroundhogConfig::gh(),
                                3,
                                seed,
                            )
                            .unwrap();
                            Fleet::new(fc).with_faults(f).run(&mut pool, 160).unwrap()
                        }
                    };
                    let label = format!(
                        "seed={seed} policy={policy:?} autoscale={autoscale} faults={faults:?}"
                    );
                    assert_eq!(
                        format!("{:?}", gated.fleet),
                        format!("{ungated:?}"),
                        "{label}: structural fingerprint diverged"
                    );
                    assert_eq!(
                        csv_line(&gated.fleet),
                        csv_line(&ungated),
                        "{label}: CSV rendering diverged"
                    );
                    let f = ungated.stats.faults;
                    assert_eq!(
                        gated.gateway,
                        gh_gateway::GatewayStats {
                            served: 160 - f.abandoned,
                            ..Default::default()
                        },
                        "{label}: a pass-through gateway serves everything not abandoned, \
                         observes nothing"
                    );
                    assert_eq!(faults.is_none(), f.is_empty(), "{label}");
                    deaths += f.deaths;
                }
            }
        }
    }
    assert!(deaths > 0, "the fault cases must crash attempts");
}

/// Fault accounting is per run: a driver run twice on identically built
/// pools reports the same result twice, faults included.
#[test]
fn a_reused_faulty_driver_repeats_exactly() {
    let spec = gh_functions::catalog::by_name("fannkuch (p)").unwrap();
    let pool = || Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 5).unwrap();
    let fc = FleetConfig::fixed(RoutePolicy::LeastLoaded, 100.0, 5);
    let faults = FaultConfig {
        restore_failure_rate: 0.05,
        ..FaultConfig::deaths(5, 0.2)
    };
    let gateway = GatewayFleet::new(GatewayFleetConfig {
        faults: Some(faults),
        ..GatewayFleetConfig::passthrough(fc.clone())
    });
    let first = gateway.run(&mut pool(), 200).unwrap();
    let second = gateway.run(&mut pool(), 200).unwrap();
    assert!(
        first.fleet.stats.faults.abandoned > 0,
        "some request must exhaust its attempts"
    );
    assert_eq!(format!("{first:?}"), format!("{second:?}"), "gateway");
    let fleet = Fleet::new(fc).with_faults(faults);
    let first = fleet.run(&mut pool(), 200).unwrap();
    let second = fleet.run(&mut pool(), 200).unwrap();
    assert_eq!(format!("{first:?}"), format!("{second:?}"), "fleet");
}

#[test]
fn a_reused_autoscaled_gateway_repeats_exactly() {
    // The gateway's autoscaler is per run: a second run on a fresh
    // 1-slot pool grows the same way, with no spawn count or cooldown
    // carried over from the first.
    let spec = gh_functions::catalog::by_name("fannkuch (p)").unwrap();
    let fc = FleetConfig {
        autoscale: Some(AutoscaleConfig {
            min_size: 1,
            max_size: 6,
            scale_up_depth: 2.0,
            idle_retire: Nanos::from_secs(5),
            cooldown: Nanos::from_millis(200),
        }),
        ..FleetConfig::fixed(RoutePolicy::RestoreAware, 400.0, 13)
    };
    let gateway = GatewayFleet::new(GatewayFleetConfig::passthrough(fc));
    let run = || {
        let mut pool = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 1, 13).unwrap();
        gateway.run(&mut pool, 300).unwrap()
    };
    let first = run();
    let second = run();
    assert!(
        first.fleet.stats.spawned > 0,
        "overload must trigger growth"
    );
    assert_eq!(first.fleet.stats.pool_size, 1 + first.fleet.stats.spawned);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
}

fn enabled_gateway() -> GatewayConfig {
    GatewayConfig::builder()
        .cache(CacheConfig::default_for_ttl(Nanos::from_secs(20)))
        .admission(AdmissionConfig {
            rate_per_sec: 60.0,
            burst: 30,
            max_in_flight: Some(24),
        })
        .build()
}

fn workload(seed: u64, gateway: GatewayConfig) -> GatewayFleetConfig {
    GatewayFleetConfig {
        idempotent_frac: 0.5,
        payload_universe: 16,
        hot_principal_frac: 0.3,
        diurnal_amplitude: 0.4,
        diurnal_period: Nanos::from_secs(30),
        ..GatewayFleetConfig::passthrough(fleet_cfg(RoutePolicy::LeastLoaded, seed, true))
    }
    .with_gateway(gateway)
}

#[test]
fn enabled_gateway_runs_reproduce_exactly() {
    let spec = gh_functions::catalog::by_name("fannkuch (p)").unwrap();
    for seed in [7u64, 99] {
        let mut gw = enabled_gateway();
        gw.prewarm = Some(PrewarmConfig::flat(Nanos::from_secs(2), 6));
        let run = |seed| {
            run_gateway_fleet(
                &spec,
                StrategyKind::Gh,
                GroundhogConfig::gh(),
                2,
                workload(seed, gw),
                300,
            )
            .unwrap()
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "seed={seed}: repeat run diverged"
        );
        assert_eq!(
            a.gateway.served + a.gateway.rejected,
            300,
            "seed={seed}: every arrival served or shed"
        );
        assert!(
            a.gateway.cache_hits > 0,
            "seed={seed}: 50% idempotent traffic over 16 payloads must hit"
        );
    }
}

/// A gateway run with no requests settles at once, with every policy
/// on, half the payloads idempotent and a redeploy schedule armed: its
/// fleet result is the idle fleet's and it observes nothing.
#[test]
fn an_empty_gateway_run_is_the_idle_fleet() {
    let spec = gh_functions::catalog::by_name("fannkuch (p)").unwrap();
    let mut gw = enabled_gateway();
    gw.prewarm = Some(PrewarmConfig::flat(Nanos::from_secs(2), 6));
    let cfg = GatewayFleetConfig {
        redeploys: vec![Nanos::from_millis(1), Nanos::from_secs(2)],
        ..workload(7, gw)
    };
    let (kind, gh) = (StrategyKind::Gh, GroundhogConfig::gh());
    let gated = run_gateway_fleet(&spec, kind, gh.clone(), 2, cfg.clone(), 0).unwrap();
    let idle = run_fleet(&spec, kind, gh, 2, cfg.fleet, 0).unwrap();
    assert_eq!(format!("{:?}", gated.fleet), format!("{idle:?}"));
    assert_eq!(gated.gateway, gh_gateway::GatewayStats::default());
}

fn cluster_trace(requests: u64, seed: u64) -> TraceConfig {
    TraceConfig {
        principals: 8,
        idempotent_frac: 0.5,
        payload_universe: 24,
        ..TraceConfig::new(20, requests, 2_500.0, seed)
    }
}

#[test]
fn disabled_cluster_gateway_embeds_the_plain_cluster_result() {
    let catalog = synthetic_catalog(20, 11);
    for seed in [5u64, 31] {
        for policy in [PlacePolicy::RoundRobin, PlacePolicy::LeastLoaded] {
            let trace = cluster_trace(400, seed);
            let mut ccfg = ClusterConfig::new(3, policy, StrategyKind::Gh, seed);
            ccfg.slots_per_pool = 1;
            let plain = run_cluster_with(
                &trace,
                &catalog,
                &ccfg,
                GroundhogConfig::gh(),
                ExecMode::Serial,
            )
            .unwrap();
            let gated = run_cluster_gateway(
                &trace,
                &catalog,
                &ccfg,
                &GatewayConfig::disabled(),
                GroundhogConfig::gh(),
                ExecMode::Serial,
            )
            .unwrap();
            let label = format!("seed={seed} policy={policy:?}");
            assert_eq!(
                format!("{plain:?}"),
                format!("{:?}", gated.cluster),
                "{label}: disabled front must be the identity"
            );
            assert_eq!(
                gated.gateway,
                gh_gateway::GatewayStats {
                    served: plain.completed,
                    ..Default::default()
                },
                "{label}"
            );
        }
    }
}

#[test]
fn cluster_redeploys_invalidate_the_front_cache_deterministically() {
    let catalog = synthetic_catalog(20, 47);
    let trace = cluster_trace(600, 47);
    let schedule = cluster_redeploy_schedule(&trace, 6);
    assert!(!schedule.is_empty());
    let gw = enabled_gateway();
    let base = {
        let mut ccfg = ClusterConfig::new(3, PlacePolicy::RoundRobin, StrategyKind::Gh, 47);
        ccfg.slots_per_pool = 1;
        ccfg
    };
    let plain = run_cluster_gateway(
        &trace,
        &catalog,
        &base,
        &gw,
        GroundhogConfig::gh(),
        ExecMode::Serial,
    )
    .unwrap();
    let redeploying = base.clone().with_redeploys(schedule.clone());
    let serial = run_cluster_gateway(
        &trace,
        &catalog,
        &redeploying,
        &gw,
        GroundhogConfig::gh(),
        ExecMode::Serial,
    )
    .unwrap();
    assert!(
        serial.gateway.cache_invalidated > 0,
        "the schedule must actually drop cached results"
    );
    assert!(
        serial.gateway.cache_hits < plain.gateway.cache_hits,
        "invalidation must cost hits relative to the fixed deployment"
    );
    assert_eq!(
        serial.cluster.completed + serial.gateway.rejected,
        trace.requests,
        "arrivals still partition into served and shed"
    );
    // The redeploy fold is coordinator-pure: node-parallel execution
    // and repeats stay byte-identical.
    let par = run_cluster_gateway(
        &trace,
        &catalog,
        &redeploying,
        &gw,
        GroundhogConfig::gh(),
        ExecMode::Parallel { threads: 3 },
    )
    .unwrap();
    assert_eq!(
        format!("{serial:?}"),
        format!("{par:?}"),
        "redeploy fold must not break node purity"
    );
    let repeat = run_cluster_gateway(
        &trace,
        &catalog,
        &redeploying,
        &gw,
        GroundhogConfig::gh(),
        ExecMode::Serial,
    )
    .unwrap();
    assert_eq!(
        format!("{serial:?}"),
        format!("{repeat:?}"),
        "repeat diverged"
    );
    // An empty schedule is the identity.
    let empty = run_cluster_gateway(
        &trace,
        &catalog,
        &base.clone().with_redeploys(Vec::new()),
        &gw,
        GroundhogConfig::gh(),
        ExecMode::Serial,
    )
    .unwrap();
    assert_eq!(format!("{plain:?}"), format!("{empty:?}"));
}

#[test]
fn cluster_gateway_parallel_matches_serial() {
    let catalog = synthetic_catalog(20, 11);
    for seed in [13u64, 77] {
        let trace = cluster_trace(500, seed);
        let mut ccfg = ClusterConfig::new(4, PlacePolicy::LeastLoaded, StrategyKind::Gh, seed);
        ccfg.slots_per_pool = 1;
        let gw = enabled_gateway();
        let serial = run_cluster_gateway(
            &trace,
            &catalog,
            &ccfg,
            &gw,
            GroundhogConfig::gh(),
            ExecMode::Serial,
        )
        .unwrap();
        let par = run_cluster_gateway(
            &trace,
            &catalog,
            &ccfg,
            &gw,
            GroundhogConfig::gh(),
            ExecMode::Parallel { threads: 4 },
        )
        .unwrap();
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "seed={seed}: gateway front must not break node purity"
        );
        assert!(
            serial.gateway.cache_hits > 0,
            "seed={seed}: the front must actually engage"
        );
        assert_eq!(
            serial.cluster.completed + serial.gateway.rejected,
            trace.requests,
            "seed={seed}: arrivals partition into served and shed"
        );
    }
}
