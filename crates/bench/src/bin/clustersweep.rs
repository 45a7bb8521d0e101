//! Extension experiment (E18): cluster placement — sojourn time,
//! goodput and balance across node count × placement policy under a
//! skewed trace-driven workload.
//!
//! Quantifies the cluster-level question PR 7 opens: with thousands of
//! requests to Zipf-popular functions, how much does the front-end's
//! placement policy matter? Function-affinity maximizes per-node
//! locality but rides the skew straight into imbalance; round-robin
//! and least-loaded trade locality for balance.
//!
//! ```text
//! cargo run --release -p gh-bench --bin clustersweep            # node-parallel
//! cargo run --release -p gh-bench --bin clustersweep -- --serial
//! ```
//!
//! Cells run one after another; the *nodes inside each run* are what
//! parallelizes (`run_cluster` honors `--serial` / `GH_SERIAL=1` /
//! `GH_THREADS` through `gh_faas::fleet::ExecMode::Auto`). Results are
//! bit-identical
//! across modes (the cluster differential oracle), so the CSV is
//! byte-stable under the CI determinism matrix.

use gh_bench::{smoke, write_sweep};
use gh_faas::cluster::{run_cluster, ClusterConfig, PlacePolicy};
use gh_faas::trace::{stable_rps, synthetic_catalog, TraceConfig};
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use groundhog_core::GroundhogConfig;

fn main() {
    let seed = 29u64;
    let functions: u32 = if smoke() { 64 } else { 128 };
    let requests: u64 = if smoke() { 10_000 } else { 60_000 };
    let node_counts: &[usize] = if smoke() { &[2, 4] } else { &[2, 4, 8] };
    let catalog = synthetic_catalog(functions, seed);
    // One shared trace for every cell, rated so the hottest Zipf rank
    // sits near 70% of its pool capacity: hot enough that placement
    // policy moves the tail, bounded enough that queues stay finite.
    let rps = stable_rps(&catalog, 4, 1.0, 0.7);
    let trace = TraceConfig {
        principals: 64,
        ..TraceConfig::new(functions, requests, rps, seed)
    };
    println!(
        "== E18 — cluster sweep: {functions} functions, {requests} requests, \
         Zipf s={:.1}, diurnal A={:.1}, bursts p={:.3} ==\n",
        trace.zipf_s, trace.diurnal_amplitude, trace.burst_start_prob
    );
    let mut table = TextTable::new(&[
        "nodes",
        "policy",
        "completed",
        "goodput r/s",
        "mean ms",
        "p99 ms",
        "queue p99",
        "imbalance",
        "util",
        "restore overlap",
    ]);
    for &nodes in node_counts {
        for policy in PlacePolicy::ALL {
            let ccfg = ClusterConfig::new(nodes, policy, StrategyKind::Gh, seed);
            let r =
                run_cluster(&trace, &catalog, &ccfg, GroundhogConfig::gh()).expect("cluster run");
            table.row_owned(vec![
                format!("{nodes}"),
                policy.label().to_string(),
                format!("{}", r.completed),
                format!("{:.1}", r.goodput_rps),
                format!("{:.2}", r.mean_ms),
                format!("{:.2}", r.p99_ms),
                format!("{:.0}", r.queue_p99),
                format!("{:.2}", r.imbalance),
                format!("{:.2}", r.utilization),
                format!("{:.2}", r.restore_overlap_ratio),
            ]);
        }
    }
    println!("{}", table.render());
    write_sweep("clustersweep", &table);
    println!(
        "Expected shape: function-affinity shows the largest imbalance (the Zipf \
         head lands whole on single nodes) and by far the worst sojourns; \
         least-loaded tracks round-robin on balance at 2 nodes while placing hot \
         functions across both replicas. Every function keeps its 2 replicas at \
         any node count, so adding nodes at fixed offered load adds no capacity \
         to any one function: round-robin and function-affinity sojourns stay \
         flat, and least-loaded's, which balances each node's total expected \
         work rather than a function's pools, rise with its imbalance. `queue \
         p99` is the depth of one function's pool on one node, as a fleet \
         reports it, so it moves with the sojourn columns."
    );
}
