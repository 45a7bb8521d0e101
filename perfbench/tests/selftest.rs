//! Smoke-size self-test of the benchmark: `BENCHMARK.json` parses and
//! lists exactly the workloads and metrics the benchmark defines, and
//! every workload, untraced and traced, emits every metric it names,
//! with its unit.

use std::path::PathBuf;
use std::process::{Command, Output};

use perfbench::json::{parse, Value};
use perfbench::workload::Kind;
use perfbench::{MetricDef, END_TO_END, PER_LAYER};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

/// `(name, unit, better)` of every entry under `key`.
fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_defines() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name").into())
        .collect();
    let names: Vec<&str> = Kind::GATED.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, names);
    assert_eq!(listed(&doc, "end_to_end"), defined(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), defined(PER_LAYER));
    for m in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for kind in Kind::ALL {
        for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let seed = kind.default_seed().to_string();
            let out = perfbench(&[
                "--workload",
                kind.name(),
                "--seed",
                &seed,
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} trace {trace} failed: {}",
                kind.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let v = parse(last).expect("the result line is JSON");
            let keys: Vec<&str> = v
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
            let emitted: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Value::as_f64).is_some(),
                        "{name} has a numeric value"
                    );
                    (
                        name.as_str(),
                        m.get("unit").and_then(Value::as_str).unwrap(),
                    )
                })
                .collect();
            let want: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(emitted, want, "{} trace {trace}", kind.name());
        }
    }
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "fleet-dense", "--trace", "2"][..],
        &["--seed", "1"][..],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
