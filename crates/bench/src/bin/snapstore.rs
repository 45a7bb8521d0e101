//! Pool-shared snapshot store — dedup ratio and resident bytes vs pool
//! size (§5.5 taken fleet-wide).
//!
//! ```text
//! cargo run --release -p gh-bench --bin snapstore
//! ```
//!
//! The full-size sweep is checked in as `results/snapstore.csv`: its
//! dedup and hash-hit counters read page contents only through
//! `FrameData::logical_eq` and `logical_hash`, so CI regenerating it
//! byte for byte pins the content semantics of every page
//! representation. Smoke runs write `snapstore_smoke.csv` instead.
//!
//! For each pool size, builds a GH pool (every container interning its
//! clean-state snapshot into the shared store) and reports what the pool
//! actually holds versus what `pool_size ×` private eager snapshots
//! would cost. Each (benchmark, pool size) cell builds an independent
//! pool, so the grid fans out across threads via
//! `gh_bench::harness::run_cells` with a deterministic ordered merge
//! (`--serial` / `GH_SERIAL=1` forces one worker).

use gh_bench::harness::{run_cells, serial_requested};
use gh_bench::{smoke, write_sweep};
use gh_faas::fleet::Pool;
use gh_functions::catalog::by_name;
use gh_isolation::StrategyKind;
use gh_mem::PAGE_SIZE;
use gh_sim::report::TextTable;
use groundhog_core::GroundhogConfig;

const SIZES: [usize; 5] = [1, 2, 4, 8, 16];
const FUNCTIONS: [&str; 3] = ["fannkuch (p)", "base64 (n)", "atax (c)"];

fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

fn main() {
    let sizes: &[usize] = if smoke() { &[1, 4] } else { &SIZES };
    let functions: &[&str] = if smoke() { &FUNCTIONS[..2] } else { &FUNCTIONS };
    println!("== snapstore — pool snapshot memory vs pool size ==\n");
    let headers = [
        "benchmark",
        "pool",
        "snapshot MiB",
        "naive MiB",
        "shared MiB",
        "per-ctr MiB",
        "dedup ratio",
        "hash hits",
        "saved %",
    ];
    let mut table = TextTable::new(&headers);
    let mut csv = TextTable::new(&headers);

    let cells: Vec<(&str, usize)> = functions
        .iter()
        .flat_map(|&name| sizes.iter().map(move |&size| (name, size)))
        .collect();
    let rows = run_cells(&cells, serial_requested(), |&(name, size)| {
        let spec = by_name(name).expect("catalog entry");
        let pool =
            Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), size, 42).expect("gh pool");
        let one = pool.slots[0]
            .container
            .stats
            .prepare
            .as_ref()
            .unwrap()
            .snapshot_pages
            .unwrap()
            * PAGE_SIZE;
        let naive = one * size as u64;
        let mem = pool.memory();
        let saved = 100.0 * (1.0 - mem.resident_bytes as f64 / naive.max(1) as f64);
        vec![
            spec.name.to_string(),
            size.to_string(),
            mib(one),
            mib(naive),
            mib(mem.resident_bytes),
            format!(
                "{:.2}",
                mem.resident_bytes_per_container / (1024.0 * 1024.0)
            ),
            format!("{:.2}", mem.dedup_ratio),
            mem.hash_hits.to_string(),
            format!("{saved:.1}%"),
        ]
    });
    for row in rows {
        table.row_owned(row.clone());
        csv.row_owned(row);
    }
    println!("{}", table.render());
    write_sweep("snapstore", &csv);
    println!(
        "Pool snapshot memory is one base image plus per-container deltas (the \
         timeline-dependent runtime-state page), so resident bytes stay near one \
         snapshot while the naive cost grows linearly with the pool."
    );
}
