//! Extension experiment (E16): latency vs offered load under open-loop
//! (Poisson) arrivals — quantifying §4's claim that restoration stays off
//! the critical path "under low to medium server load".
//!
//! ```text
//! cargo run --release -p gh-bench --bin loadsweep             # parallel cells
//! cargo run --release -p gh-bench --bin loadsweep -- --serial
//! ```
//!
//! An open loop is a fleet of one round-robin slot: requests arrive
//! whether or not the container is ready and queue behind both
//! execution and restoration. Each (function, rate) cell runs its BASE
//! and GH open loops on its own kernels — independent, so the cells are
//! sharded across worker threads with a deterministic ordered merge
//! (byte-identical to `--serial`). The CSVs are checked in: a change to
//! single-container virtual time shows as a diff.

use gh_bench::harness::{run_cells, serial_requested};
use gh_bench::write_csv;
use gh_faas::fleet::{run_fleet, FleetConfig, RoutePolicy};
use gh_functions::catalog::by_name;
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use groundhog_core::GroundhogConfig;

fn main() {
    // Functions with very different restore/exec ratios.
    for (name, rates) in [
        ("fannkuch (p)", vec![10.0, 30.0, 60.0, 90.0, 120.0, 140.0]),
        ("md2html (p)", vec![5.0, 10.0, 15.0, 20.0, 24.0, 27.0]),
        ("telco (p)", vec![1.0, 2.0, 4.0, 5.0, 5.8, 6.2]),
    ] {
        let spec = by_name(name).unwrap();
        println!(
            "== E16 — open-loop sojourn time vs offered load: {} \
             (exec ≈ {:.1}ms, restore ≈ {:.1}ms) ==\n",
            name, spec.base_invoker_ms, spec.paper_restore_ms
        );
        let mut table = TextTable::new(&[
            "offered r/s",
            "base util",
            "base mean ms",
            "base p99 ms",
            "GH util",
            "GH mean ms",
            "GH p99 ms",
            "GH/base mean",
        ]);
        let rows = run_cells(&rates, serial_requested(), |&rps| {
            let open_loop = |kind| {
                let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, rps, 21);
                run_fleet(&spec, kind, GroundhogConfig::gh(), 1, cfg, 200).unwrap()
            };
            let base = open_loop(StrategyKind::Base);
            let gh = open_loop(StrategyKind::Gh);
            vec![
                format!("{rps:.1}"),
                format!("{:.2}", base.utilization),
                format!("{:.2}", base.mean_ms),
                format!("{:.2}", base.p99_ms),
                format!("{:.2}", gh.utilization),
                format!("{:.2}", gh.mean_ms),
                format!("{:.2}", gh.p99_ms),
                format!("{:.2}", gh.mean_ms / base.mean_ms),
            ]
        });
        for row in rows {
            table.row_owned(row);
        }
        println!("{}", table.render());
        write_csv(
            &format!("loadsweep_{}", name.replace([' ', '(', ')'], "")),
            &table,
        );
    }
    println!(
        "Expected shape (§4): at low/medium utilization GH's sojourn times track BASE \
         (restores hide in idle gaps); near saturation GH's queue grows first because \
         restoration consumes capacity."
    );
}
