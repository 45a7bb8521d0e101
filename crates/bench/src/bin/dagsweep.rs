//! Extension experiment (E21): dynamic workflow DAGs under crash/retry
//! schedules — goodput, hop overhead and migration accounting across
//! fan-out width × death rate × migration on/off over the migrating
//! cluster.
//!
//! Quantifies the robustness layer PR 10 adds: how much a Groundhog
//! cluster pays to keep dynamic fan-out/fan-in workflows *crash-exact*
//! (idempotent `(workflow, hop path)` commits converging to the
//! crash-free KV state) when containers die mid-hop and whole nodes
//! drop out, and what cross-node migration of orphaned hops buys over
//! waiting out the outage in place.
//!
//! ```text
//! cargo run --release -p gh-bench --bin dagsweep            # parallel cells
//! cargo run --release -p gh-bench --bin dagsweep -- --serial
//! ```
//!
//! Every cell is a pure function of its config — DAG shapes, arrivals
//! and fault draws are all stateless hashes — so cells fan out over OS
//! threads via [`run_cells`] with no cross-cell state. The CSV is
//! byte-identical to `--serial` and across repeats; the CI determinism
//! matrix diffs exactly that, pinning the whole DAG path (shape
//! generation, hop scheduling, fault injection, migration, the
//! idempotence ledger) as deterministic.

use gh_bench::harness::{run_cells, serial_requested};
use gh_bench::{smoke, write_sweep};
use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::trace::synthetic_catalog;
use gh_faas::workflow::migrate::{run_migrating_dags, MigrateConfig, MigrateResult};
use gh_functions::FunctionSpec;
use gh_sim::report::TextTable;
use gh_sim::Nanos;

const SEED: u64 = 46;
const NODES: usize = 5;

#[derive(Clone, Copy)]
struct Cell {
    max_width: u32,
    death_rate: f64,
    node_loss_rate: f64,
    migrate: bool,
}

fn run_cell(cell: &Cell, catalog: &[FunctionSpec], workflows: u64) -> MigrateResult {
    let mut cfg = MigrateConfig::new(NODES, workflows, SEED);
    cfg.max_width = cell.max_width;
    cfg.migrate = cell.migrate;
    let mut fc = FaultConfig::deaths(SEED, cell.death_rate);
    fc.node_loss_rate = cell.node_loss_rate;
    fc.node_loss_window = Nanos::from_millis(40);
    fc.retry = RetryPolicy {
        max_attempts: 10,
        ..RetryPolicy::bounded()
    };
    if fc.is_active() {
        cfg = cfg.with_faults(fc);
    }
    run_migrating_dags(catalog, &cfg)
}

fn main() {
    let workflows: u64 = if smoke() { 150 } else { 1_200 };
    let catalog = synthetic_catalog(12, SEED);
    let mut cells = Vec::new();
    for &max_width in &[2u32, 4, 8] {
        for &death_rate in &[0.0, 0.01, 0.05] {
            for &migrate in &[false, true] {
                // Node loss rides along with deaths so migration has
                // something to do; the zero-fault rows stay pure.
                let node_loss_rate = if death_rate > 0.0 { 0.15 } else { 0.0 };
                cells.push(Cell {
                    max_width,
                    death_rate,
                    node_loss_rate,
                    migrate,
                });
            }
        }
    }
    println!(
        "== E21 — DAG sweep: {NODES} nodes, {workflows} workflows, \
         fan-out width x death rate x migration grid, outage window 40ms ==\n"
    );
    let results = run_cells(&cells, serial_requested(), |c| {
        run_cell(c, &catalog, workflows)
    });
    let mut table = TextTable::new(&[
        "width",
        "death",
        "node loss",
        "migrate",
        "completed",
        "abandoned",
        "hops",
        "dup absorbed",
        "orphaned",
        "migrations",
        "kv fp",
        "span ms",
    ]);
    for (cell, r) in cells.iter().zip(&results) {
        table.row_owned(vec![
            format!("{}", cell.max_width),
            format!("{:.2}", cell.death_rate),
            format!("{:.2}", cell.node_loss_rate),
            if cell.migrate { "on" } else { "off" }.into(),
            format!("{}", r.completed),
            format!("{}", r.faults.abandoned),
            format!("{}", r.hops_executed),
            format!("{}", r.duplicates_suppressed),
            format!("{}", r.faults.orphaned_hops),
            format!("{}", r.faults.migrations),
            format!("{:016x}", r.kv_fingerprint),
            format!("{:.1}", r.span_ms),
        ]);
    }
    println!("{}", table.render());
    write_sweep("dagsweep", &table);

    // In-sweep oracle: within a (width, rates) pair, the migrate-on and
    // migrate-off rows must land on the same final KV fingerprint when
    // neither abandoned a workflow — migration moves *where* hops run,
    // never what they commit.
    for pair in cells.chunks(2).zip(results.chunks(2)) {
        let ((a, b), (ra, rb)) = ((&pair.0[0], &pair.0[1]), (&pair.1[0], &pair.1[1]));
        assert_eq!((a.max_width, a.death_rate), (b.max_width, b.death_rate));
        if ra.faults.abandoned == 0 && rb.faults.abandoned == 0 {
            assert_eq!(
                ra.kv_fingerprint, rb.kv_fingerprint,
                "width={} death={}: migration changed the final state",
                a.max_width, a.death_rate
            );
        }
    }
    println!(
        "Expected shape: the zero-rate rows are byte-identical with migration \
         on or off (no orphans to move) and every fingerprint within a (width, \
         death) pair matches — migration changes placement, not state. Hops \
         grow with the death rate (each crash re-executes a hop) and with \
         width (more branch hops per workflow); duplicates absorbed track \
         post-commit deaths plus commits that raced a node loss. With \
         migration off, orphaned hops wait out the 40ms outage on the lost \
         node, stretching the span; with it on, they re-dispatch to the next \
         up replica immediately, so migrations rise and the span tightens \
         while abandonment stays at zero under the 10-attempt budget."
    );
}
