//! Extension experiment (E17): fleet scheduling — sojourn time and
//! goodput across pool size × offered load × routing policy.
//!
//! Quantifies the fleet-level version of §4's claim: once a pool has
//! more than one container, a router that knows when restores complete
//! (`restore-aware`) can keep Groundhog's restoration off every
//! request's critical path at loads where a restore-blind router
//! (`round-robin`, `least-loaded`) queues requests behind in-progress
//! restores.
//!
//! ```text
//! cargo run --release -p gh-bench --bin fleetsweep            # parallel cells
//! cargo run --release -p gh-bench --bin fleetsweep -- --serial
//! ```
//!
//! Cells (pool × load × policy; pool × strategy) are independent — each
//! builds its own kernels and seeds — so they are sharded across worker
//! threads by `gh_bench::harness::run_cells` with a deterministic
//! ordered merge: the CSVs are byte-identical to `--serial` (the CI
//! determinism job diffs exactly that).

use gh_bench::harness::{run_cells, serial_requested};
use gh_bench::{smoke, write_sweep};
use gh_faas::fleet::{run_fleet, FleetConfig, RoutePolicy};
use gh_functions::catalog::by_name;
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use groundhog_core::GroundhogConfig;

fn main() {
    let spec = by_name("fannkuch (p)").expect("in catalog");
    // Per-container capacity under GH is ~125 r/s for fannkuch; sweep
    // pool sizes across fractions of the pooled capacity. The smoke
    // mode (GH_BENCH_SMOKE=1) trims the sweep for CI.
    let requests_per_slot = if smoke() { 60 } else { 150 };
    let pools: &[usize] = if smoke() { &[1, 2] } else { &[1, 2, 4, 8] };
    let fracs: &[f64] = if smoke() {
        &[0.6, 0.9]
    } else {
        &[0.3, 0.6, 0.8, 0.9]
    };
    let strat_pools: &[usize] = if smoke() { &[1, 2] } else { &[1, 2, 4] };
    println!(
        "== E17 — fleet sweep: {} (exec ≈ {:.1}ms, restore ≈ {:.1}ms) ==\n",
        spec.name, spec.base_invoker_ms, spec.paper_restore_ms
    );
    let mut table = TextTable::new(&[
        "pool",
        "offered r/s",
        "policy",
        "util",
        "mean ms",
        "p99 ms",
        "goodput r/s",
        "queue p99",
        "restore overlap",
    ]);
    let serial = serial_requested();
    let mut cells: Vec<(usize, f64, RoutePolicy)> = Vec::new();
    for &pool in pools {
        for &frac in fracs {
            for policy in RoutePolicy::ALL {
                cells.push((pool, 125.0 * pool as f64 * frac, policy));
            }
        }
    }
    let rows = run_cells(&cells, serial, |&(pool, offered, policy)| {
        let r = run_fleet(
            &spec,
            StrategyKind::Gh,
            GroundhogConfig::gh(),
            pool,
            FleetConfig::fixed(policy, offered, 29),
            requests_per_slot * pool,
        )
        .expect("fleet run");
        vec![
            format!("{pool}"),
            format!("{offered:.0}"),
            policy.label().to_string(),
            format!("{:.2}", r.utilization),
            format!("{:.2}", r.mean_ms),
            format!("{:.2}", r.p99_ms),
            format!("{:.1}", r.goodput_rps),
            format!("{:.0}", r.stats.queue_p99),
            format!("{:.2}", r.stats.restore_overlap_ratio),
        ]
    });
    for row in rows {
        table.row_owned(row);
    }
    println!("{}", table.render());
    write_sweep("fleetsweep", &table);

    // Second axis: isolation strategy. BASE pays no restore, so its
    // sojourn floor is the reference GH must track at every pool size.
    let mut strat = TextTable::new(&[
        "pool",
        "offered r/s",
        "strategy",
        "mean ms",
        "p99 ms",
        "goodput r/s",
    ]);
    let mut strat_cells: Vec<(usize, StrategyKind)> = Vec::new();
    for &pool in strat_pools {
        for kind in [StrategyKind::Base, StrategyKind::GhNop, StrategyKind::Gh] {
            strat_cells.push((pool, kind));
        }
    }
    let strat_rows = run_cells(&strat_cells, serial, |&(pool, kind)| {
        let offered = 125.0 * pool as f64 * 0.6;
        let r = run_fleet(
            &spec,
            kind,
            GroundhogConfig::gh(),
            pool,
            FleetConfig::fixed(RoutePolicy::RestoreAware, offered, 29),
            requests_per_slot * pool,
        )
        .expect("fleet run");
        vec![
            format!("{pool}"),
            format!("{offered:.0}"),
            kind.label().to_string(),
            format!("{:.2}", r.mean_ms),
            format!("{:.2}", r.p99_ms),
            format!("{:.1}", r.goodput_rps),
        ]
    });
    for row in strat_rows {
        strat.row_owned(row);
    }
    println!("{}", strat.render());
    write_sweep("fleetsweep_strategies", &strat);
    println!(
        "Expected shape: at low load all policies coincide (restores hide in idle \
         gaps on every container). As offered load approaches the pooled capacity, \
         the restore-aware router keeps sojourn times flat the longest, because it \
         never parks a request behind an in-progress restore while a provably-clean \
         container exists. Across strategies, GH tracks BASE at mid load for every \
         pool size — the fleet-level form of the paper's central claim."
    );
}
