//! Fig. 8 — restoration overhead deconstructed into its thirteen phases,
//! plus restore/snapshot absolutes, for the 14 representative benchmarks.
//!
//! ```text
//! cargo run --release -p gh-bench --bin fig8
//! ```

use gh_bench::micro_harness::{MicroMode, MicroRig};
use gh_bench::{fmt_ms, smoke, write_sweep};
use gh_faas::{Container, Request};
use gh_functions::catalog::representative_14;
use gh_functions::FunctionSpec;
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use groundhog_core::breakdown::{ALL_PHASES, NUM_PHASES};
use groundhog_core::GroundhogConfig;

/// The benchmark set, trimmed under `GH_BENCH_SMOKE`.
fn benches() -> Vec<FunctionSpec> {
    let mut all = representative_14();
    if smoke() {
        all.truncate(4);
    }
    all
}

fn main() {
    println!("== Fig. 8 — restoration breakdown (% of restore) + snapshot cost ==\n");
    let mut headers: Vec<&str> = vec![
        "benchmark",
        "restore ms",
        "pages K",
        "restored K",
        "snapshot ms",
    ];
    let labels: Vec<String> = ALL_PHASES.iter().map(|p| p.label().to_string()).collect();
    headers.extend(labels.iter().map(String::as_str));
    let mut table = TextTable::new(&headers);
    let mut csv = TextTable::new(&headers);

    for spec in benches() {
        let mut c = Container::cold_start(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 8)
            .expect("gh container");
        // Warm-up + measured requests; average the phase fractions.
        let mut sum = groundhog_core::Breakdown::new();
        let mut restored = 0u64;
        let reqs = 4;
        for i in 0..reqs + 1 {
            let out = c
                .invoke(&Request::new(i + 1, "client", spec.input_kb))
                .unwrap();
            if i == 0 {
                continue; // warm-up
            }
            let post = c.stats.last_post.as_ref().unwrap();
            let report = post.restore.as_ref().expect("GH restores");
            sum.absorb(&report.breakdown);
            restored += report.pages_restored;
            let _ = out;
        }
        let total_ms = sum.total().as_millis_f64() / reqs as f64;
        let fracs: [f64; NUM_PHASES] = sum.fractions();
        let mapped = c.kernel.process(c.fproc.pid).unwrap().mem.mapped_pages();
        let snapshot_ms = c
            .stats
            .prepare
            .as_ref()
            .map(|p| p.duration.as_millis_f64())
            .unwrap_or(0.0);
        let mut row = vec![
            spec.name.to_string(),
            fmt_ms(total_ms),
            format!("{:.2}", mapped as f64 / 1000.0),
            format!("{:.2}", restored as f64 / reqs as f64 / 1000.0),
            fmt_ms(snapshot_ms),
        ];
        row.extend(fracs.iter().map(|f| format!("{:.1}%", f * 100.0)));
        table.row_owned(row.clone());
        csv.row_owned(row);
        println!(
            "  {:18} restore {:>8}ms  (paper: {:>7}ms)   snapshot {:>8}ms",
            spec.name,
            fmt_ms(total_ms),
            fmt_ms(spec.paper_restore_ms),
            fmt_ms(snapshot_ms),
        );
    }
    println!("\n{}", table.render());
    write_sweep("fig8", &csv);
    println!(
        "Expected shapes (paper §5.4/§5.5): memory restoration dominates write-heavy \
         functions (base64(n), img-resize(n)); scanning page metadata dominates \
         large-address-space Node.js functions; interrupting/registers/detach dominate \
         tiny C restores; snapshot cost scales with resident pages."
    );

    lanes_sweep();
    lazy_sweep();
}

/// Restore-lanes sweep: the same restore work executed with the page
/// writeback split over 1/2/4/8 parallel copy lanes. Only the writeback
/// pass parallelizes; ptrace-serialized phases bound the speedup
/// (Amdahl), so scan-dominated Node.js functions gain least.
fn lanes_sweep() {
    const LANES: [usize; 4] = [1, 2, 4, 8];
    println!("\n== restore_lanes sweep — mean restore ms over 4 requests ==\n");
    let headers: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(LANES.iter().map(|l| format!("lanes={l}")))
        .chain(std::iter::once("speedup@8".to_string()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    let mut csv = TextTable::new(&header_refs);

    for spec in benches() {
        let mut row = vec![spec.name.to_string()];
        let mut totals = Vec::new();
        for &lanes in &LANES {
            let cfg = GroundhogConfig::with_lanes(lanes);
            let mut c =
                Container::cold_start(&spec, StrategyKind::Gh, cfg, 8).expect("gh container");
            let reqs = 4;
            let mut sum_ms = 0.0;
            for i in 0..reqs + 1 {
                c.invoke(&Request::new(i + 1, "client", spec.input_kb))
                    .unwrap();
                if i == 0 {
                    continue; // warm-up
                }
                let post = c.stats.last_post.as_ref().unwrap();
                sum_ms += post.restore.as_ref().unwrap().total.as_millis_f64();
            }
            let mean = sum_ms / reqs as f64;
            totals.push(mean);
            row.push(fmt_ms(mean));
        }
        row.push(format!("{:.2}x", totals[0] / totals[3].max(1e-9)));
        table.row_owned(row.clone());
        csv.row_owned(row);
    }
    println!("{}", table.render());
    write_sweep("fig8_lanes", &csv);
    println!(
        "Writeback-heavy restores (base64(n), img-resize(n)) approach the lane count; \
         scan-dominated restores (get-time(n)) stay flat — the pagemap scan is serial."
    );
}

/// Eager-vs-lazy sweep across write-set densities on the §5.2
/// microbenchmark (ISSUE 3): the same dirty set restored eagerly (page
/// writeback on the inter-request critical path) versus lazily
/// (`DeferArm` + first-touch fault-in during the next request). The
/// microbenchmark reads *every* mapped page each invocation, so every
/// deferred page faults back — the worst case for lazy's total work —
/// yet the critical-path restore must shrink at every density.
fn lazy_sweep() {
    const PAGES: u64 = 4_000;
    let densities: &[f64] = if smoke() {
        &[0.05, 0.25, 0.75]
    } else {
        &[0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9]
    };
    let reqs = if smoke() { 3 } else { 6 };
    println!("\n== eager vs lazy restore — critical-path restore ms by write-set density ==\n");
    let headers = [
        "dirty %",
        "eager restore ms",
        "lazy restore ms",
        "restore cut",
        "eager exec ms",
        "lazy exec ms",
        "fault overhead ms",
    ];
    let mut table = TextTable::new(&headers);
    let mut csv = TextTable::new(&headers);
    // Density cells are independent (each builds two fresh rigs) —
    // sharded across worker threads with an ordered merge.
    let rows = gh_bench::harness::run_cells(
        densities,
        gh_bench::harness::serial_requested(),
        |&density| {
            let eager = MicroRig::build_cfg(PAGES, MicroMode::Gh, GroundhogConfig::gh())
                .measure(density, reqs);
            let lazy = MicroRig::build_cfg(PAGES, MicroMode::Gh, GroundhogConfig::lazy())
                .measure(density, reqs);
            let e_restore = eager.cycle_ms - eager.exec_ms;
            let l_restore = lazy.cycle_ms - lazy.exec_ms;
            assert!(
                l_restore < e_restore,
                "lazy must cut the critical-path restore at density {density}: \
                 {l_restore:.3} !< {e_restore:.3}"
            );
            vec![
                format!("{:.0}%", density * 100.0),
                fmt_ms(e_restore),
                fmt_ms(l_restore),
                format!("{:.2}x", e_restore / l_restore.max(1e-9)),
                fmt_ms(eager.exec_ms),
                fmt_ms(lazy.exec_ms),
                fmt_ms(lazy.exec_ms - eager.exec_ms),
            ]
        },
    );
    for row in rows {
        table.row_owned(row.clone());
        csv.row_owned(row);
    }
    println!("{}", table.render());
    write_sweep("fig8_lazy", &csv);
    println!(
        "Lazy restoration cuts the critical-path restore at every density; the deferred \
         pages come back as first-touch faults inside the next request (the exec delta). \
         With an idle-time drain (GroundhogConfig::lazy_drain) and sparse writers, that \
         delta moves into idle gaps instead — see tests/lazy_restore.rs."
    );
}
