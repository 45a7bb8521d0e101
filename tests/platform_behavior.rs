//! Platform-level behaviour: determinism, E2E composition, payload
//! sensitivity, and the workload harnesses.

use groundhog::core::GroundhogConfig;
use groundhog::faas::client::{closed_loop_latency, peak_throughput};
use groundhog::faas::platform::{Platform, PlatformConfig};
use groundhog::functions::catalog::by_name;
use groundhog::isolation::StrategyKind;

/// Identical seeds reproduce identical measurements exactly.
#[test]
fn runs_are_deterministic() {
    let spec = by_name("hexiom (p)").unwrap();
    let a = closed_loop_latency(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 6, 42).unwrap();
    let b = closed_loop_latency(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 6, 42).unwrap();
    assert_eq!(a, b, "full runs (e2e, invoker, restores) reproduce");
    let xa = peak_throughput(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 10, 7).unwrap();
    let xb = peak_throughput(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 10, 7).unwrap();
    assert_eq!(xa, xb);
}

/// Different seeds perturb measurements (noise model is live).
#[test]
fn seeds_vary_noise() {
    let spec = by_name("hexiom (p)").unwrap();
    let a = closed_loop_latency(&spec, StrategyKind::Base, GroundhogConfig::gh(), 6, 1).unwrap();
    let b = closed_loop_latency(&spec, StrategyKind::Base, GroundhogConfig::gh(), 6, 2).unwrap();
    assert_ne!(a.e2e, b.e2e);
}

/// E2E = controller path + invoker latency; the controller share matches
/// the paper's BASE calibration (E2E − invoker ≈ 30ms for FaaSProfiler).
#[test]
fn e2e_composition() {
    let cfg = PlatformConfig {
        platform_cov: 0.0,
        ..PlatformConfig::default()
    };
    let mut p = Platform::new(cfg);
    let spec = by_name("get-time (p)").unwrap();
    let id = p.deploy(&spec, StrategyKind::Base).unwrap();
    let out = p.invoke_simple(id, "a").unwrap();
    let controller_ms = (out.e2e - out.invoker).as_millis_f64();
    assert!(
        (20.0..35.0).contains(&controller_ms),
        "controller path {controller_ms:.1}ms vs paper ≈26.7ms"
    );
}

/// GH's invoker overhead grows with payload size (§5.3.1: the 200 KiB
/// json inputs are proxied through the manager).
#[test]
fn payload_proxying_costs_scale() {
    let spec = by_name("json (p)").unwrap();
    let mut platform = Platform::new(PlatformConfig::default());
    let id = platform.deploy(&spec, StrategyKind::Gh).unwrap();
    let small = platform.invoke(id, "a", 1).unwrap();
    let large = platform.invoke(id, "a", 200).unwrap();
    let delta = (large.invoker - small.invoker).as_millis_f64();
    assert!(
        delta > 1.5,
        "200KiB payload must cost visibly more than 1KiB through the manager: {delta:.2}ms"
    );
}

/// One platform can host containers under different strategies side by
/// side, with independent state.
#[test]
fn mixed_strategy_deployments() {
    let mut platform = Platform::new(PlatformConfig::default());
    let spec = by_name("telco (p)").unwrap();
    let base = platform.deploy(&spec, StrategyKind::Base).unwrap();
    let gh = platform.deploy(&spec, StrategyKind::Gh).unwrap();
    for i in 0..3 {
        let principal = if i % 2 == 0 { "a" } else { "b" };
        platform.invoke_simple(base, principal).unwrap();
        platform.invoke_simple(gh, principal).unwrap();
    }
    assert_eq!(platform.container(base).stats.requests, 3);
    assert_eq!(platform.container(gh).stats.requests, 3);
    assert!(platform
        .container(base)
        .stats
        .last_post
        .as_ref()
        .unwrap()
        .restore
        .is_none());
    assert!(platform
        .container(gh)
        .stats
        .last_post
        .as_ref()
        .unwrap()
        .restore
        .is_some());
}

/// The saturating client reproduces Table 3's baseline throughput within
/// a band, across runtimes.
#[test]
fn baseline_throughput_calibration() {
    for (name, lo, hi) in [
        ("fannkuch (p)", 380.0, 800.0),  // paper 572
        ("trisolv (c)", 100.0, 190.0),   // paper 138
        ("get-time (n)", 600.0, 1300.0), // paper 942
    ] {
        let spec = by_name(name).unwrap();
        let x = peak_throughput(&spec, StrategyKind::Base, GroundhogConfig::gh(), 30, 9).unwrap();
        assert!(
            (lo..hi).contains(&x),
            "{name}: {x:.0} r/s outside [{lo}, {hi})"
        );
    }
}

/// Throughput harness honours the warm-up exclusion.
#[test]
fn warmup_exclusion_changes_nothing_fundamental() {
    let spec = by_name("mvt (c)").unwrap();
    let x = peak_throughput(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 24, 5).unwrap();
    assert!(x > 0.0);
}
