//! End-to-end and per-layer benchmark of the groundhog-rs simulator.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload from [`workload`] and prints, as the last line of
//! standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the [`END_TO_END`] set, measured on the untraced public entry points;
//! with `--trace 1` they are the [`PER_LAYER`] set from the traced
//! replica in [`ledger`]. A human-readable table goes to standard error.

pub mod json;
pub mod ledger;
pub mod report;
pub mod workload;

/// One metric's definition: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("host_ns_per_req", "ns", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("goodput_rps", "1/s", "higher"),
    m("sojourn_mean_ms", "ms", "lower"),
    m("sojourn_p99_ms", "ms", "lower"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("trace.ns_per_req", "ns", "lower"),
    m("trace.events_per_req", "count", "lower"),
    m("front.ns_per_req", "ns", "lower"),
    m("front.decides_per_req", "count", "lower"),
    m("front.hit_frac", "frac", "higher"),
    m("place.ns_per_req", "ns", "lower"),
    m("place.calls_per_req", "count", "lower"),
    m("event.ns_per_req", "ns", "lower"),
    m("event.ops_per_req", "count", "lower"),
    m("event.max_len", "count", "lower"),
    m("router.ns_per_req", "ns", "lower"),
    m("queue.ns_per_req", "ns", "lower"),
    m("queue.wait_ms_mean", "ms", "lower"),
    m("container.ns_per_req", "ns", "lower"),
    m("container.exec_ms_mean", "ms", "lower"),
    m("exec.ns_per_req", "ns", "lower"),
    m("restore.ns_per_req", "ns", "lower"),
    m("restore.dirty_pages_per_req", "pages", "lower"),
    m("restore.pages_restored_per_req", "pages", "lower"),
    m("restore.runs_per_req", "count", "lower"),
    m("restore.offpath_ms_mean", "ms", "lower"),
    m("restore.hidden_frac", "frac", "higher"),
    m("fault.attempts_per_req", "count", "lower"),
    m("fault.deaths", "count", "lower"),
    m("fault.failovers", "count", "lower"),
    m("fault.abandoned", "count", "lower"),
    m("sketch.ns_per_req", "ns", "lower"),
    m("setup.ms_per_container", "ms", "lower"),
    m("ledger.closure", "frac", "higher"),
    m("ledger.overhead", "x", "lower"),
];
