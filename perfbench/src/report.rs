//! Turning repetitions into named metrics, and the result line.

use std::time::Duration;

use crate::json::quote;
use crate::ledger::{Layer, Traced};
use crate::workload::{Outcome, Rep};
use crate::{MetricDef, END_TO_END, PER_LAYER};

/// The benchmark's result: the last line of standard output.
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Simulated requests offered, over all repetitions.
    pub attempted: u64,
    /// Simulated requests not served (abandoned or refused).
    pub failed: u64,
    /// `(definition, value)` in definition order.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl Report {
    /// The one-line JSON object.
    pub fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(d.name),
                    json_number(*v),
                    quote(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON's grammar, with every digit Rust prints
/// for a round trip (non-finite values become 0 and fail the run's
/// checks before they get here).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Looks up every definition's value by name, in definition order.
fn ordered(defs: &[MetricDef], values: &[(&str, f64)]) -> Vec<(MetricDef, f64)> {
    defs.iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name));
            (*d, v.1)
        })
        .collect()
}

/// End-to-end metrics of an untraced run: medians over repetitions for
/// host time, virtual-time figures from the (identical) outcomes.
pub fn end_to_end(reps: &[Rep], out: &Outcome, peak_rss_mb: f64) -> Vec<(MetricDef, f64)> {
    let secs = |d: Duration| d.as_secs_f64();
    let setup = median(
        &reps
            .iter()
            .filter_map(|r| r.setup.map(secs))
            .collect::<Vec<_>>(),
    );
    let run = median(&reps.iter().map(|r| secs(r.run)).collect::<Vec<_>>());
    let measured = if reps.iter().any(|r| r.run_includes_setup) {
        run - setup
    } else {
        run
    };
    ordered(
        END_TO_END,
        &[
            ("host_ns_per_req", measured * 1e9 / out.attempted as f64),
            ("setup_s", setup),
            ("peak_rss_mb", peak_rss_mb),
            ("goodput_rps", out.goodput_rps),
            ("sojourn_mean_ms", out.mean_ms),
            ("sojourn_p99_ms", out.p99_ms),
        ],
    )
}

/// Per-layer metrics of one traced run.
pub fn per_layer(t: &Traced) -> Vec<(MetricDef, f64)> {
    let n = t.reference.attempted.max(1) as f64;
    let k = &t.counts;
    let per_req = |l: Layer| t.laps.ns(l) as f64 / n;
    let dispatches = k.dispatches.max(1) as f64;
    let container = t.laps.ns(Layer::Container) as f64;
    ordered(
        PER_LAYER,
        &[
            ("trace.ns_per_req", per_req(Layer::Trace)),
            ("trace.events_per_req", k.trace_events as f64 / n),
            ("front.ns_per_req", per_req(Layer::Front)),
            ("front.decides_per_req", k.front_decides as f64 / n),
            ("front.hit_frac", k.front_hits as f64 / n),
            ("place.ns_per_req", per_req(Layer::Place)),
            ("place.calls_per_req", k.place_calls as f64 / n),
            ("event.ns_per_req", per_req(Layer::Event)),
            ("event.ops_per_req", k.event_ops as f64 / n),
            ("event.max_len", k.event_max_len as f64),
            ("router.ns_per_req", per_req(Layer::Router)),
            ("queue.ns_per_req", per_req(Layer::Queue)),
            ("queue.wait_ms_mean", k.wait_ns as f64 / dispatches / 1e6),
            ("container.ns_per_req", per_req(Layer::Container)),
            (
                "container.exec_ms_mean",
                k.exec_ns as f64 / dispatches / 1e6,
            ),
            ("exec.ns_per_req", container * t.split.exec_share() / n),
            (
                "restore.ns_per_req",
                container * t.split.restore_share() / n,
            ),
            (
                "restore.dirty_pages_per_req",
                k.dirty_pages as f64 / dispatches,
            ),
            (
                "restore.pages_restored_per_req",
                k.pages_restored as f64 / dispatches,
            ),
            ("restore.runs_per_req", k.runs as f64 / dispatches),
            (
                "restore.offpath_ms_mean",
                k.offpath_ns as f64 / dispatches / 1e6,
            ),
            (
                "restore.hidden_frac",
                k.restore_hidden.as_secs_f64() / k.restore_total.as_secs_f64().max(1e-12),
            ),
            (
                "fault.attempts_per_req",
                k.attempts as f64 / k.backend_arrivals.max(1) as f64,
            ),
            ("fault.deaths", k.faults.deaths as f64),
            ("fault.failovers", k.faults.node_losses as f64),
            ("fault.abandoned", k.faults.abandoned as f64),
            ("sketch.ns_per_req", per_req(Layer::Sketch)),
            (
                "setup.ms_per_container",
                t.laps.ns(Layer::Setup) as f64 / k.containers.max(1) as f64 / 1e6,
            ),
            ("ledger.closure", t.closure()),
            ("ledger.overhead", t.overhead()),
        ],
    )
}

/// The traced run's layer ledger as a table: host ns per request, share
/// of the traced wall-clock, and share of the run after setup, per
/// layer.
pub fn ledger_table(t: &Traced) -> String {
    let n = t.reference.attempted.max(1) as f64;
    let wall = t.wall.as_nanos().max(1) as f64;
    let run = (wall - t.laps.ns(Layer::Setup) as f64).max(1.0);
    let mut out = format!(
        "{:<10} {:>12} {:>8} {:>10}\n",
        "layer", "ns/req", "share", "run share"
    );
    for l in Layer::ALL {
        let ns = t.laps.ns(l) as f64;
        let run_share = if l == Layer::Setup {
            String::new()
        } else {
            format!("{:.2}%", 100.0 * ns / run)
        };
        out += &format!(
            "{:<10} {:>12.1} {:>7.2}% {:>10}\n",
            l.name(),
            ns / n,
            100.0 * ns / wall,
            run_share
        );
    }
    out += &format!(
        "container split: exec {:.1}%, restore {:.1}%, proxy+admit {:.1}% ({} requests replayed)\n",
        100.0 * t.split.exec_share(),
        100.0 * t.split.restore_share(),
        100.0 * (1.0 - t.split.exec_share() - t.split.restore_share()),
        t.split.requests
    );
    out
}
