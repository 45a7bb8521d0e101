//! Extension experiment (E20): fault injection — goodput, tail latency
//! and retry accounting across container-death rate × retry policy ×
//! node loss over the trace-driven cluster.
//!
//! Quantifies the robustness layer PR 9 adds: how much goodput a
//! Groundhog cluster keeps when containers die mid-request and whole
//! nodes drop out for outage windows, and what the retry policy
//! (retry-after-restore on the same container vs rerouting to another
//! slot) does to the tail while bounded-attempt backoff keeps
//! duplicate executions accounted.
//!
//! ```text
//! cargo run --release -p gh-bench --bin faultsweep            # parallel cells
//! cargo run --release -p gh-bench --bin faultsweep -- --serial
//! ```
//!
//! Every cell is a pure function of its config — fault draws are
//! stateless hashes of `(seed, request, attempt)`, so a cell carries no
//! cross-cell state. Cells fan out over OS threads via [`run_cells`]
//! with the cluster inside each cell pinned to `ExecMode::Serial`
//! (cells are the parallelism; nesting node workers under cell workers
//! would just thrash a small host). The CSV is byte-identical to
//! `--serial` and across repeats — the CI determinism matrix diffs
//! exactly that, which pins the whole fault path (injection, backoff,
//! failover, accounting) as deterministic.

use gh_bench::harness::{run_cells, serial_requested};
use gh_bench::{smoke, write_sweep};
use gh_faas::cluster::{run_cluster_with, ClusterConfig, ClusterResult, PlacePolicy};
use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::fleet::ExecMode;
use gh_faas::trace::{stable_rps, synthetic_catalog, TraceConfig};
use gh_functions::FunctionSpec;
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

const SEED: u64 = 31;
const NODES: usize = 4;

#[derive(Clone, Copy)]
struct Cell {
    death_rate: f64,
    node_loss_rate: f64,
    retry: RetryPolicy,
}

fn run_cell(cell: &Cell, catalog: &[FunctionSpec], trace: &TraceConfig) -> ClusterResult {
    let mut fc = FaultConfig::deaths(SEED, cell.death_rate);
    fc.restore_failure_rate = cell.death_rate / 2.0;
    fc.node_loss_rate = cell.node_loss_rate;
    fc.node_loss_window = Nanos::from_millis(250);
    fc.retry = cell.retry;
    let mut ccfg = ClusterConfig::new(NODES, PlacePolicy::RoundRobin, StrategyKind::Gh, SEED);
    ccfg.slots_per_pool = 2;
    if fc.is_active() {
        ccfg = ccfg.with_faults(fc);
    }
    run_cluster_with(
        trace,
        catalog,
        &ccfg,
        GroundhogConfig::gh(),
        ExecMode::Serial,
    )
    .expect("cluster run")
}

fn main() {
    let functions: u32 = if smoke() { 32 } else { 64 };
    let requests: u64 = if smoke() { 6_000 } else { 30_000 };
    let catalog = synthetic_catalog(functions, SEED);
    // Rated like the cluster sweep: hottest rank near 70% of its pool
    // capacity, so retry storms show up as queueing rather than
    // unbounded overload.
    let rps = stable_rps(&catalog, 4, 1.0, 0.7);
    let trace = TraceConfig {
        principals: 64,
        ..TraceConfig::new(functions, requests, rps, SEED)
    };
    let mut cells = Vec::new();
    for &death_rate in &[0.0, 0.01, 0.05] {
        for &node_loss_rate in &[0.0, 0.1] {
            for retry in [RetryPolicy::bounded(), RetryPolicy::rerouting()] {
                cells.push(Cell {
                    death_rate,
                    node_loss_rate,
                    retry,
                });
            }
        }
    }
    println!(
        "== E20 — fault sweep: {NODES} nodes, {functions} functions, {requests} requests, \
         death x node-loss x retry grid, outage window 250ms ==\n"
    );
    let results = run_cells(&cells, serial_requested(), |c| {
        run_cell(c, &catalog, &trace)
    });
    let mut table = TextTable::new(&[
        "death",
        "node loss",
        "retry",
        "completed",
        "abandoned",
        "deaths",
        "retries",
        "dup exec",
        "failovers",
        "goodput r/s",
        "mean ms",
        "p99 ms",
    ]);
    for (cell, r) in cells.iter().zip(&results) {
        table.row_owned(vec![
            format!("{:.2}", cell.death_rate),
            format!("{:.2}", cell.node_loss_rate),
            cell.retry.label(),
            format!("{}", r.completed),
            format!("{}", r.faults.abandoned),
            format!("{}", r.faults.deaths),
            format!("{}", r.faults.retries),
            format!("{}", r.faults.duplicates),
            format!("{}", r.faults.node_losses),
            format!("{:.1}", r.goodput_rps),
            format!("{:.2}", r.mean_ms),
            format!("{:.2}", r.p99_ms),
        ]);
    }
    println!("{}", table.render());
    write_sweep("faultsweep", &table);
    println!(
        "Expected shape: the zero-rate rows reproduce the fault-free cluster \
         exactly (the disabled plan adds no events and draws no RNG). Each \
         death costs a backoff plus a container recovery cold-start, so at a \
         ~70%-utilized pool the goodput hit is a bounded 10-20% at 1% deaths \
         and grows roughly linearly with the rate — the tail amplifies more, \
         because recoveries arrive in queue-visible bursts. Rerouting trades \
         places with retry-after-restore on p99 depending on whether the \
         victim slot's recovery or the sibling's queue is the bottleneck; node \
         loss shifts work to the surviving replica, so failovers grow with the \
         outage rate while abandoned stays near zero until every replica of a \
         function is down at once."
    );
}
