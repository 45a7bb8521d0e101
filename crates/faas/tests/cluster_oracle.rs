//! Differential oracle: node-parallel cluster execution must be
//! bit-identical to the serial reference.
//!
//! Serial mode (nodes run one after another on the caller's thread, each
//! running its pools one at a time) is the ground truth; every
//! node-parallel run — across seeds, placement policies, node counts,
//! pool sizes, thread counts and, for faulty nodes, retry policies — must
//! reproduce
//! the exact same [`ClusterResult`]: every counter, every per-node load,
//! every sketch-derived percentile, and the CSV-style rendering byte for
//! byte. Repeat runs must also match, pinning seeded determinism of the
//! whole trace → placement → node-timeline pipeline. Float fields are
//! compared through `{:?}` (shortest round-trip form), which
//! distinguishes any two different bit patterns.

use gh_faas::cluster::{run_cluster_with, ClusterConfig, ClusterResult, PlacePolicy};
use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::fleet::ExecMode;
use gh_faas::trace::{synthetic_catalog, TraceConfig};
use gh_faas::NodeScaleConfig;
use gh_functions::FunctionSpec;
use gh_isolation::StrategyKind;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

fn trace(requests: u64, seed: u64) -> TraceConfig {
    TraceConfig {
        principals: 8,
        ..TraceConfig::new(20, requests, 2_500.0, seed)
    }
}

fn run(
    catalog: &[FunctionSpec],
    trace_cfg: &TraceConfig,
    policy: PlacePolicy,
    nodes: usize,
    seed: u64,
    mode: ExecMode,
) -> ClusterResult {
    let mut ccfg = ClusterConfig::new(nodes, policy, StrategyKind::Gh, seed);
    ccfg.slots_per_pool = 1;
    run_cluster_with(trace_cfg, catalog, &ccfg, GroundhogConfig::gh(), mode).unwrap()
}

/// A CSV-style line covering every scalar field of the result, the way
/// the clustersweep binary renders them (autoscaler counters included).
/// Byte equality here is the user-visible half of the oracle.
fn csv_line(r: &ClusterResult) -> String {
    let scale = r
        .scale
        .map(|s| {
            format!(
                "{},{},{},{},{},{}",
                s.grows,
                s.drains_started,
                s.drains_completed,
                s.redirects,
                s.windows,
                s.final_active
            )
        })
        .unwrap_or_else(|| "-".into());
    format!(
        "{},{},{},{},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{},{:?},{:?},{},{},{}",
        r.nodes,
        r.policy,
        r.requests,
        r.completed,
        r.goodput_rps,
        r.mean_ms,
        r.p50_ms,
        r.p95_ms,
        r.p99_ms,
        r.queue_mean,
        r.queue_p99,
        r.restore_total_ms,
        r.restore_overlap_ratio,
        r.lazy_faults,
        r.utilization,
        r.imbalance,
        r.containers,
        r.stats_bytes,
        scale,
    )
}

/// Full structural fingerprint: `{:?}` covers every field including the
/// per-node loads, and round-trips f64 exactly.
fn fingerprint(r: &ClusterResult) -> String {
    format!("{r:?}")
}

fn assert_identical(label: &str, reference: &ClusterResult, other: &ClusterResult) {
    assert_eq!(
        fingerprint(reference),
        fingerprint(other),
        "{label}: result diverged from the serial reference"
    );
    assert_eq!(
        csv_line(reference),
        csv_line(other),
        "{label}: CSV rendering diverged"
    );
}

/// Every node-parallel run across seeds × policies × node counts ×
/// threads against the serial reference, with `slots` containers per
/// pool running `gh`. Each pool routes its own arrivals round-robin, so
/// pools of two and three slots pin that routing too.
fn assert_matrix(slots: usize, gh: &GroundhogConfig) {
    for &seed in &[7u64, 1234] {
        let catalog = synthetic_catalog(20, seed);
        let tc = trace(500, seed);
        for policy in PlacePolicy::ALL {
            for &nodes in &[2usize, 5] {
                let mut ccfg = ClusterConfig::new(nodes, policy, StrategyKind::Gh, seed);
                ccfg.slots_per_pool = slots;
                let go = |mode| run_cluster_with(&tc, &catalog, &ccfg, gh.clone(), mode).unwrap();
                let serial = go(ExecMode::Serial);
                assert_eq!(serial.completed, 500, "oracle baseline must serve all");
                for &threads in &[2usize, 8] {
                    let par = go(ExecMode::Parallel { threads });
                    assert_identical(
                        &format!(
                            "seed={seed} policy={} nodes={nodes} slots={slots} threads={threads}",
                            policy.label()
                        ),
                        &serial,
                        &par,
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_matches_serial_across_seeds_policies_and_node_counts() {
    assert_matrix(1, &GroundhogConfig::gh());
}

#[test]
fn parallel_matches_serial_with_two_and_three_slots_per_pool() {
    for slots in [2, 3] {
        assert_matrix(slots, &GroundhogConfig::gh());
    }
}

/// Deaths, restore failures and node loss under `retry`.
fn faults(seed: u64, retry: RetryPolicy) -> FaultConfig {
    FaultConfig {
        restore_failure_rate: 0.04,
        node_loss_rate: 0.2,
        node_loss_window: Nanos::from_millis(20),
        retry,
        ..FaultConfig::deaths(seed, 0.06)
    }
}

/// One faulty cell against the serial reference at 2 and 8 threads. The
/// cell must draw deaths, retries, restore failures and node loss, so a
/// crash's recovery, a retry's route and a failed restore's cold start
/// all run on a node's worker.
fn assert_faulty_cell(
    label: &str,
    nodes: usize,
    slots: usize,
    fc: FaultConfig,
    gh: &GroundhogConfig,
) {
    let seed = fc.seed;
    let catalog = synthetic_catalog(20, seed);
    let tc = trace(500, seed);
    let mut ccfg =
        ClusterConfig::new(nodes, PlacePolicy::RoundRobin, StrategyKind::Gh, seed).with_faults(fc);
    ccfg.slots_per_pool = slots;
    let go = |mode| run_cluster_with(&tc, &catalog, &ccfg, gh.clone(), mode).unwrap();
    let serial = go(ExecMode::Serial);
    let f = serial.faults;
    assert!(
        f.deaths > 0 && f.retries > 0 && f.restore_failures > 0 && f.node_losses > 0,
        "{label}: every fault family must fire: {f:?}"
    );
    assert_eq!(serial.completed + f.abandoned, 500, "{label}");
    for &threads in &[2usize, 8] {
        let par = go(ExecMode::Parallel { threads });
        assert_identical(&format!("{label} threads={threads}"), &serial, &par);
    }
}

#[test]
fn faulty_nodes_match_serial_across_retry_policies_pool_sizes_and_node_counts() {
    for retry in [RetryPolicy::bounded(), RetryPolicy::rerouting()] {
        for slots in [1, 2, 3] {
            for nodes in [2, 5] {
                let label = format!("{} nodes={nodes} slots={slots}", retry.label());
                let fc = faults(11, retry);
                assert_faulty_cell(&label, nodes, slots, fc, &GroundhogConfig::gh());
            }
        }
    }
}

#[test]
fn faulty_lazy_drain_nodes_match_serial() {
    let fc = faults(7, RetryPolicy::rerouting());
    assert_faulty_cell("lazy drain", 2, 2, fc, &GroundhogConfig::lazy_drain());
}

#[test]
fn lazy_drain_nodes_match_serial() {
    // Idle-gap drains depend on each slot's own gaps, which executing a
    // slot's arrivals back to back must reproduce exactly.
    let catalog = synthetic_catalog(20, 7);
    let tc = trace(500, 7);
    let mut ccfg = ClusterConfig::new(2, PlacePolicy::LeastLoaded, StrategyKind::Gh, 7);
    ccfg.slots_per_pool = 2;
    let go = |gh, mode| run_cluster_with(&tc, &catalog, &ccfg, gh, mode).unwrap();
    let serial = go(GroundhogConfig::lazy_drain(), ExecMode::Serial);
    let undrained = go(GroundhogConfig::lazy(), ExecMode::Serial);
    assert!(
        serial.lazy_faults < undrained.lazy_faults,
        "drains must write deferred pages back in idle gaps: {} vs {} faults",
        serial.lazy_faults,
        undrained.lazy_faults
    );
    let par = go(
        GroundhogConfig::lazy_drain(),
        ExecMode::Parallel { threads: 2 },
    );
    assert_identical("lazy drain", &serial, &par);
}

#[test]
fn repeat_runs_are_bit_identical() {
    let catalog = synthetic_catalog(20, 42);
    let tc = trace(400, 42);
    let first = run(
        &catalog,
        &tc,
        PlacePolicy::LeastLoaded,
        3,
        42,
        ExecMode::Parallel { threads: 4 },
    );
    let second = run(
        &catalog,
        &tc,
        PlacePolicy::LeastLoaded,
        3,
        42,
        ExecMode::Parallel { threads: 4 },
    );
    assert_identical("repeat", &first, &second);
}

#[test]
fn single_node_cluster_matches() {
    let catalog = synthetic_catalog(20, 5);
    let tc = trace(250, 5);
    let serial = run(
        &catalog,
        &tc,
        PlacePolicy::RoundRobin,
        1,
        5,
        ExecMode::Serial,
    );
    let par = run(
        &catalog,
        &tc,
        PlacePolicy::RoundRobin,
        1,
        5,
        ExecMode::Parallel { threads: 8 },
    );
    assert_eq!(serial.completed, 250);
    assert_identical("nodes=1", &serial, &par);
}

#[test]
fn autoscaled_faulty_cluster_is_mode_independent_and_repeatable() {
    // The full stack at once: faults (deaths + node loss) and the
    // failure-aware autoscaler, node-parallel vs serial vs repeat.
    let catalog = synthetic_catalog(20, 31);
    let tc = trace(500, 31);
    let mut fc = FaultConfig::deaths(31, 0.04);
    fc.node_loss_rate = 0.25;
    fc.node_loss_window = Nanos::from_millis(20);
    fc.retry = RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::bounded()
    };
    let mut ccfg = ClusterConfig::new(4, PlacePolicy::RoundRobin, StrategyKind::Gh, 31)
        .with_faults(fc)
        .with_autoscale(NodeScaleConfig::balanced(2));
    ccfg.slots_per_pool = 1;
    let go = |mode| run_cluster_with(&tc, &catalog, &ccfg, GroundhogConfig::gh(), mode).unwrap();
    let serial = go(ExecMode::Serial);
    assert!(serial.scale.is_some(), "scaler must report");
    assert!(serial.faults.node_losses > 0 || serial.faults.deaths > 0);
    for &threads in &[2usize, 4] {
        let par = go(ExecMode::Parallel { threads });
        assert_identical(&format!("autoscaled threads={threads}"), &serial, &par);
    }
    let repeat = go(ExecMode::Serial);
    assert_identical("autoscaled repeat", &serial, &repeat);
}

#[test]
fn unarmed_autoscaler_keeps_the_run_byte_identical() {
    let catalog = synthetic_catalog(20, 13);
    let tc = trace(300, 13);
    let plain = run(
        &catalog,
        &tc,
        PlacePolicy::LeastLoaded,
        3,
        13,
        ExecMode::Serial,
    );
    // Explicitly constructing the config with `autoscale: None` and an
    // empty redeploy schedule must be the plain run, byte for byte.
    let mut ccfg = ClusterConfig::new(3, PlacePolicy::LeastLoaded, StrategyKind::Gh, 13)
        .with_redeploys(Vec::new());
    ccfg.slots_per_pool = 1;
    let unarmed = run_cluster_with(
        &tc,
        &catalog,
        &ccfg,
        GroundhogConfig::gh(),
        ExecMode::Serial,
    )
    .unwrap();
    assert_identical("unarmed autoscaler", &plain, &unarmed);
    assert!(plain.scale.is_none());
}

#[test]
fn empty_run_is_mode_independent() {
    let catalog = synthetic_catalog(20, 9);
    let tc = trace(0, 9);
    let serial = run(
        &catalog,
        &tc,
        PlacePolicy::FunctionAffinity,
        3,
        9,
        ExecMode::Serial,
    );
    let par = run(
        &catalog,
        &tc,
        PlacePolicy::FunctionAffinity,
        3,
        9,
        ExecMode::Parallel { threads: 4 },
    );
    assert_eq!(serial.completed, 0);
    assert_identical("requests=0", &serial, &par);
}
