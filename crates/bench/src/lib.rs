//! Shared harness code for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index), printing a paper-style
//! rendering to stdout and writing CSV into `results/`.
//!
//! Request counts are scaled-down from the paper's 1,200 invocations
//! (virtual time makes more repetitions pointless — noise is modelled,
//! not physical); set `GH_REQUESTS` / `GH_XPUT_REQUESTS` to raise them.

pub mod cluster_scaling;
pub mod fleet_scaling;
pub mod gateway_scaling;
pub mod harness;
pub mod micro_harness;
pub mod scaling;
pub mod touch_scaling;

use std::fs;
use std::path::PathBuf;

use gh_faas::client::{self, LatencyRun};
use gh_functions::FunctionSpec;
use gh_isolation::StrategyKind;
use gh_sim::report::TextTable;
use groundhog_core::GroundhogConfig;

/// All configurations of §5.1, in Fig. 4's legend order.
pub const ALL_KINDS: [StrategyKind; 5] = [
    StrategyKind::Base,
    StrategyKind::GhNop,
    StrategyKind::Gh,
    StrategyKind::Fork,
    StrategyKind::Faasm,
];

/// Latency-run request count (paper: 1,200; default here: 14).
pub fn latency_requests() -> usize {
    env_usize("GH_REQUESTS", 14)
}

/// Throughput-run requests per core (paper: ≥1.5 min; default here: 30).
pub fn xput_requests() -> usize {
    env_usize("GH_XPUT_REQUESTS", 30)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True when `GH_BENCH_SMOKE` is set (to anything but `0`): the figure
/// binaries trim their sweeps to a seeded, small-N subset so CI can run
/// them on every push (the `bench-smoke` job) and diff their CSVs for
/// determinism.
pub fn smoke() -> bool {
    std::env::var("GH_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Writes one sweep's CSV whose full-size run is checked in as
/// `results/<name>.csv` (CI regenerates it and fails on any byte
/// change): a truncated smoke run writes `<name>_smoke.csv` instead of
/// clobbering it.
pub fn write_sweep(name: &str, csv: &TextTable) {
    if smoke() {
        write_csv(&format!("{name}_smoke"), csv);
    } else {
        write_csv(name, csv);
    }
}

/// Whether `kind` can run `spec` at all (§5: fork cannot handle Node.js's
/// threads; FAASM needs wasm compatibility).
pub fn supported(spec: &FunctionSpec, kind: StrategyKind) -> bool {
    match kind {
        StrategyKind::Fork => spec.runtime != gh_runtime::RuntimeKind::NodeJs,
        StrategyKind::Faasm => spec.faasm.is_some(),
        _ => true,
    }
}

/// Runs the low-load latency workload; `None` when unsupported.
pub fn run_latency(
    spec: &FunctionSpec,
    kind: StrategyKind,
    n: usize,
    seed: u64,
) -> Option<LatencyRun> {
    if !supported(spec, kind) {
        return None;
    }
    Some(
        client::closed_loop_latency(spec, kind, GroundhogConfig::gh(), n, seed)
            .expect("supported configuration must run"),
    )
}

/// Runs the saturated-throughput workload (4 cores); `None` when
/// unsupported.
pub fn run_throughput(
    spec: &FunctionSpec,
    kind: StrategyKind,
    requests_per_core: usize,
    seed: u64,
) -> Option<f64> {
    if !supported(spec, kind) {
        return None;
    }
    Some(
        client::peak_throughput(spec, kind, GroundhogConfig::gh(), requests_per_core, seed)
            .expect("supported configuration must run"),
    )
}

/// The `results/` output directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a table as CSV into `results/<name>.csv`.
pub fn write_csv(name: &str, table: &TextTable) {
    let path = results_dir().join(format!("{name}.csv"));
    fs::write(&path, table.to_csv()).expect("write csv");
    println!("[written {}]", path.display());
}

/// Formats a relative value like the Fig. 4/5 bar labels.
pub fn fmt_rel(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:.2}"),
        None => "-".to_string(),
    }
}

/// Formats milliseconds adaptively.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.0}", ms)
    } else if ms >= 10.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_functions::catalog::by_name;

    #[test]
    fn support_matrix() {
        let node = by_name("json (n)").unwrap();
        let c = by_name("atax (c)").unwrap();
        let py_fp = by_name("sentiment (p)").unwrap();
        assert!(!supported(&node, StrategyKind::Fork));
        assert!(!supported(&node, StrategyKind::Faasm));
        assert!(supported(&c, StrategyKind::Fork));
        assert!(supported(&c, StrategyKind::Faasm));
        assert!(supported(&py_fp, StrategyKind::Fork));
        assert!(
            !supported(&py_fp, StrategyKind::Faasm),
            "FaaSProfiler not wasm-ported"
        );
        for kind in [StrategyKind::Base, StrategyKind::GhNop, StrategyKind::Gh] {
            assert!(supported(&node, kind));
        }
    }

    #[test]
    fn unsupported_runs_yield_none() {
        let node = by_name("get-time (n)").unwrap();
        assert!(run_latency(&node, StrategyKind::Fork, 2, 1).is_none());
        assert!(run_throughput(&node, StrategyKind::Faasm, 2, 1).is_none());
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_rel(Some(1.234)), "1.23");
        assert_eq!(fmt_rel(None), "-");
        assert_eq!(fmt_ms(12345.6), "12346");
        assert_eq!(fmt_ms(42.25), "42.2");
        assert_eq!(fmt_ms(1.234), "1.23");
    }
}
