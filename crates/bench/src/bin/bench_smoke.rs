//! bench-smoke — the CI perf summary and regression gate.
//!
//! Runs a seeded, small-N subset of the perf surface (restore latency
//! per restore mode, fleet goodput/sojourn, snapshot dedup) and writes
//! a consolidated flat-JSON summary to `results/BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p gh-bench --bin bench_smoke                   # summary only
//! cargo run --release -p gh-bench --bin bench_smoke -- --check [F]    # + gate vs baseline
//! cargo run --release -p gh-bench --bin bench_smoke -- --write-baseline
//! ```
//!
//! `--check` compares every metric against the checked-in baseline
//! (default `results/baseline.json`) and exits non-zero when any metric
//! regresses by more than [`THRESHOLD_PCT`] in its bad direction
//! (latencies up, goodput/dedup down). The simulator is deterministic,
//! so the gate is noise-free; the generous threshold absorbs deliberate
//! calibration adjustments. The gate is verified end-to-end by running
//! with `GH_COST_SCALE=2` (a uniform 2x kernel-primitive slowdown
//! injected through [`gh_sim::CostModel`]), which must trip it.
//!
//! The `scaling_*` family covers the extent-based bookkeeping: the
//! legacy/new capture+plan speedup at 1M pages / 1% dirty and the
//! O(dirty) scan- and plan-growth checks are same-machine ratios (machine
//! independent, so gate-safe); the `sim` entries are deterministic
//! virtual costs. Raw host ns/page is machine-**dependent** and is
//! published under the `info_` prefix — written to the JSON and
//! `results/scaling.csv` but exempt from the gate, because comparing a
//! CI runner's absolute nanoseconds against a baseline written on a
//! different machine would fail spuriously in either direction.
//!
//! The `work_*` family is deterministic host work: heap allocations per
//! simulated request and per cold start, counted by this binary's
//! global allocator (a std-only wrapper around the system allocator
//! that counts only while a measurement window is open). For a given
//! toolchain the counts repeat exactly on every host and in every
//! process, so `--check` gates them at 0%: any increase fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::{env, fs};

use gh_bench::results_dir;
use gh_faas::fleet::{run_fleet, ExecMode, FleetConfig, RoutePolicy};
use gh_faas::{Container, Request};
use gh_functions::catalog::by_name;
use gh_isolation::StrategyKind;
use gh_sim::stats::percentile;
use groundhog_core::GroundhogConfig;

/// Allowed regression per metric, percent.
const THRESHOLD_PCT: f64 = 10.0;

/// Requests of each allocation-counting run.
const WORK_REQUESTS: u64 = 10_000;

/// The system allocator, counting allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`) while [`COUNTING`] is set.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on any thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap allocations of a rig's serial runs, after one warm-up run: the
/// 0-request run's count (setup alone: every pool, cold start and
/// snapshot) and the count per simulated request, (allocations at
/// [`WORK_REQUESTS`] − allocations at 0 requests) / [`WORK_REQUESTS`],
/// so setup cancels out.
fn work_allocations(run: impl Fn(u64) -> u64) -> (u64, f64) {
    assert_eq!(run(WORK_REQUESTS), WORK_REQUESTS, "warm-up drains");
    let setup = allocations(|| assert_eq!(run(0), 0));
    let full = allocations(|| assert_eq!(run(WORK_REQUESTS), WORK_REQUESTS));
    (
        setup,
        full.saturating_sub(setup) as f64 / WORK_REQUESTS as f64,
    )
}

/// `v` as the summary JSON writes it (4 decimals).
fn rendered(v: f64) -> f64 {
    format!("{v:.4}").parse().expect("rendered number")
}

struct Metric {
    key: &'static str,
    value: f64,
    higher_is_better: bool,
}

/// Per-request restore totals (µs) of one mode on fannkuch (p),
/// 12 measured requests after one warm-up.
fn restore_percentiles(cfg: GroundhogConfig) -> (f64, f64) {
    let spec = by_name("fannkuch (p)").expect("catalog");
    let mut c = Container::cold_start(&spec, StrategyKind::Gh, cfg, 42).expect("container");
    let mut totals_us = Vec::new();
    for i in 1..=13u64 {
        c.invoke(&Request::new(i, "client", spec.input_kb))
            .expect("invoke");
        if i == 1 {
            continue; // warm-up
        }
        let restore = c
            .stats
            .last_post
            .as_ref()
            .and_then(|p| p.restore.as_ref())
            .expect("GH restores every request");
        totals_us.push(restore.total.as_millis_f64() * 1e3);
    }
    (percentile(&totals_us, 50.0), percentile(&totals_us, 99.0))
}

fn collect() -> Vec<Metric> {
    let mut out = Vec::new();
    // Restore-latency percentiles for eager and lazy. The drain knob is
    // deliberately not a third row here: a closed-loop single container
    // has no idle gaps (its clock only advances under charge), so its
    // restore totals are byte-identical to plain lazy — the drain's
    // perf effect is gated through `fleet_lazy_p99_ms` below, where
    // idle gaps exist.
    for (cfg, k50, k99) in [
        (
            GroundhogConfig::gh(),
            "restore_p50_us_eager",
            "restore_p99_us_eager",
        ),
        (
            GroundhogConfig::lazy(),
            "restore_p50_us_lazy",
            "restore_p99_us_lazy",
        ),
    ] {
        let (p50, p99) = restore_percentiles(cfg);
        out.push(Metric {
            key: k50,
            value: p50,
            higher_is_better: false,
        });
        out.push(Metric {
            key: k99,
            value: p99,
            higher_is_better: false,
        });
    }

    let spec = by_name("fannkuch (p)").expect("catalog");
    let fleet = |cfg: GroundhogConfig| {
        run_fleet(
            &spec,
            StrategyKind::Gh,
            cfg,
            2,
            FleetConfig::fixed(RoutePolicy::RestoreAware, 200.0, 29),
            150,
        )
        .expect("fleet run")
    };
    let eager = fleet(GroundhogConfig::gh());
    let lazy = fleet(GroundhogConfig::lazy_drain());
    out.push(Metric {
        key: "fleet_goodput_rps",
        value: eager.goodput_rps,
        higher_is_better: true,
    });
    out.push(Metric {
        key: "fleet_p99_ms",
        value: eager.p99_ms,
        higher_is_better: false,
    });
    out.push(Metric {
        key: "fleet_lazy_p99_ms",
        value: lazy.p99_ms,
        higher_is_better: false,
    });

    let pool = gh_faas::fleet::Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 4, 42)
        .expect("pool");
    out.push(Metric {
        key: "snapshot_dedup_ratio",
        value: pool.memory().dedup_ratio,
        higher_is_better: true,
    });

    // Extent-bookkeeping scaling family (host wall-clock; see module
    // docs for the gate design). Speedups are capped at 8x before
    // gating: the acceptance floor is 5x, and capping keeps the gate
    // insensitive to jitter in the (much larger) typical ratio.
    let scaling = gh_bench::scaling::run();
    println!("\n== scaling — extent bookkeeping vs legacy per-page ==\n");
    let table = gh_bench::scaling::render(&scaling);
    println!("{}", table.render());
    gh_bench::write_csv("scaling", &table);
    println!(
        "capture+plan speedup at 1M pages / 1% dirty: {:.1}x (capture alone {:.1}x); \
         growth 64k→1M at fixed dirty: scan {:.2}x, plan-build {:.2}x\n",
        scaling.capture_plan_speedup_1m(),
        scaling.capture_speedup_1m(),
        scaling.scan_growth_64k_to_1m(),
        scaling.plan_growth_64k_to_1m()
    );
    out.push(Metric {
        key: "scaling_capture_plan_speedup_1m",
        value: scaling.capture_plan_speedup_1m().min(8.0),
        higher_is_better: true,
    });
    out.push(Metric {
        key: "scaling_capture_speedup_1m",
        value: scaling.capture_speedup_1m().min(8.0),
        higher_is_better: true,
    });
    // 1.0 = scan time is a function of the dirty set, not the mapped
    // size (growth ≤ 3x across a 16x size spread); 0.0 = an O(mapped)
    // walk crept back in. Binary so the gate is noise-free.
    out.push(Metric {
        key: "scaling_scan_o_dirty",
        value: f64::from(scaling.scan_growth_64k_to_1m() <= 3.0),
        higher_is_better: true,
    });
    // The same binary check for restore plan-build, over an image whose
    // snapshot run count grows with its size: 0.0 = planning walks the
    // snapshot again instead of the dirty set and the change indices.
    out.push(Metric {
        key: "scaling_plan_o_dirty",
        value: f64::from(scaling.plan_growth_64k_to_1m() <= 3.0),
        higher_is_better: true,
    });
    // Content hashing: 1.0 = a zero-based one-patch page hashes in
    // under a quarter of a `Pattern` page's time (`O(patches)`, the cold
    // start's base-image hash); 0.0 = the 512-word walk came back.
    out.push(Metric {
        key: "scaling_hash_o_patches",
        value: f64::from(scaling.hash_patched_over_pattern() < 0.25),
        higher_is_better: true,
    });
    for (key, ns) in [
        ("info_hash_patched_ns_per_page", scaling.hash_patched_ns),
        ("info_hash_pattern_ns_per_page", scaling.hash_pattern_ns),
    ] {
        out.push(Metric {
            key,
            value: ns / gh_bench::scaling::HASH_PAGES as f64,
            higher_is_better: false,
        });
    }
    out.push(Metric {
        key: "scaling_sim_scan_us_extent_1m",
        value: scaling.sim_scan_us_extent_1m,
        higher_is_better: false,
    });
    out.push(Metric {
        key: "scaling_sim_scan_us_paper_1m",
        value: scaling.sim_scan_us_paper_1m,
        higher_is_better: false,
    });
    for p in &scaling.points {
        // Machine-dependent: published, not gated.
        for (what, v) in [
            ("capture", p.capture_ns_per_page),
            ("scan", p.scan_ns_per_page),
            ("plan", p.plan_ns_per_page),
        ] {
            out.push(Metric {
                key: Box::leak(
                    format!("info_{}_ns_per_page_{}k", what, p.pages >> 10).into_boxed_str(),
                ),
                value: v,
                higher_is_better: false,
            });
        }
    }

    // Batched-touch scaling family: loop/batch wall-clock ratios of the
    // request executor's touch shape at a 64k-touch batch (tentpole
    // acceptance: ≥5x; capped at 8 like the other scaling ratios so the
    // gate tracks the floor, not jitter in the typical value). The rig
    // asserts counter equality between both paths, so a semantic
    // regression fails the run outright before the gate even looks.
    let touch = gh_bench::touch_scaling::run();
    println!("\n== scaling_touch — batched touch path vs per-page loop ==\n");
    let ttable = gh_bench::touch_scaling::render(&touch);
    println!("{}", ttable.render());
    gh_bench::write_csv("scaling_touch", &ttable);
    println!(
        "touch_batch speedup at {} touches: warm {:.1}x, re-armed {:.1}x\n",
        touch.touches,
        touch.warm_speedup(),
        touch.armed_speedup()
    );
    out.push(Metric {
        key: "scaling_touch_warm_speedup_64k",
        value: touch.warm_speedup().min(8.0),
        higher_is_better: true,
    });
    out.push(Metric {
        key: "scaling_touch_armed_speedup_64k",
        value: touch.armed_speedup().min(8.0),
        higher_is_better: true,
    });
    for (key, ns) in [
        ("info_touch_warm_loop_ns_per_touch", touch.warm_loop_ns),
        ("info_touch_warm_batch_ns_per_touch", touch.warm_batch_ns),
        ("info_touch_armed_loop_ns_per_touch", touch.armed_loop_ns),
        ("info_touch_armed_batch_ns_per_touch", touch.armed_batch_ns),
    ] {
        out.push(Metric {
            key,
            value: ns / touch.touches as f64,
            higher_is_better: false,
        });
    }

    // Cluster scaling: node-sharded event queues under the trace-driven
    // workload — wall-clock ratio of the 8-node ≥10⁶-request run, serial
    // (nodes one after another) over parallel (nodes fanned out over the
    // workers). Bit-identity of the two node paths, fault-free
    // and, on an untimed 10⁵-request faulty run, with faults, and
    // request-count-independent stats memory are asserted inside the
    // rig, so a semantic break aborts before the gate looks. Same gate
    // design: the speedup ratio is gated (capped at 8), raw ns per run
    // is `info_`.
    let cluster = gh_bench::cluster_scaling::run();
    println!("\n== scaling_cluster — node-parallel cluster vs serial ==\n");
    let ctable = gh_bench::cluster_scaling::render(&cluster);
    println!("{}", ctable.render());
    gh_bench::write_csv("scaling_cluster", &ctable);
    println!(
        "cluster speedup at {} nodes / {} requests / {} threads: {:.2}x\n",
        cluster.nodes,
        cluster.requests,
        cluster.threads,
        cluster.speedup()
    );
    out.push(Metric {
        key: "scaling_cluster_par",
        value: cluster.speedup().min(8.0),
        higher_is_better: true,
    });
    out.push(Metric {
        key: "info_cluster_serial_ns",
        value: cluster.serial_ns,
        higher_is_better: false,
    });
    out.push(Metric {
        key: "info_cluster_par_ns",
        value: cluster.par_ns,
        higher_is_better: false,
    });
    // Gateway effectiveness: virtual-time (deterministic, machine-
    // independent) ratios, so the cache speedup is gated without the
    // single-core escape hatch. The rig itself asserts the cache-off
    // oracle, bounded stats memory, and that predictive pre-warming
    // does not lose the p99 race; the p99s land here as `info_`.
    let gateway = gh_bench::gateway_scaling::run();
    println!("\n== scaling_gateway — result cache + predictive pre-warm ==\n");
    let gtable = gh_bench::gateway_scaling::render(&gateway);
    println!("{}", gtable.render());
    gh_bench::write_csv("scaling_gateway", &gtable);
    println!(
        "cache speedup at {:.0}% hit ratio: {:.2}x; prewarm p99 {:.2}ms vs reactive {:.2}ms\n",
        gateway.hit_ratio * 100.0,
        gateway.cache_speedup(),
        gateway.prewarm_p99_ms,
        gateway.reactive_p99_ms
    );
    out.push(Metric {
        key: "gateway_cache_speedup",
        value: gateway.cache_speedup().min(8.0),
        higher_is_better: true,
    });
    out.push(Metric {
        key: "info_gateway_hit_ratio",
        value: gateway.hit_ratio,
        higher_is_better: true,
    });
    out.push(Metric {
        key: "info_gateway_prewarm_p99_ms",
        value: gateway.prewarm_p99_ms,
        higher_is_better: false,
    });
    out.push(Metric {
        key: "info_gateway_reactive_p99_ms",
        value: gateway.reactive_p99_ms,
        higher_is_better: false,
    });

    // Fault tolerance: goodput under 1% container death with bounded
    // retries, as a fraction of the fault-free run over the same
    // arrivals. Virtual-time quotient — deterministic and machine-
    // independent, so it is gated without an escape hatch. The raw
    // fault counters are published as `info_` (they are exact small
    // integers; the ratio is the regression surface). 600 requests so
    // several deaths land and the ratio averages over them instead of
    // hinging on one recovery's queue spike.
    let fault_pair = |faults: Option<gh_faas::fault::FaultConfig>| {
        let mut pool =
            gh_faas::fleet::Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 29)
                .expect("pool");
        // 120 r/s on the 2-slot pool leaves headroom, so the ratio
        // measures the fault path's cost (backoff + recovery
        // cold-start), not a saturation collapse.
        let mut f =
            gh_faas::fleet::Fleet::new(FleetConfig::fixed(RoutePolicy::RestoreAware, 120.0, 29));
        if let Some(fc) = faults {
            f = f.with_faults(fc);
        }
        f.run(&mut pool, 600).expect("fleet run")
    };
    let fault_free = fault_pair(None);
    let faulty = {
        let mut fc = gh_faas::fault::FaultConfig::deaths(29, 0.01);
        fc.restore_failure_rate = 0.005;
        fault_pair(Some(fc))
    };
    println!(
        "fault smoke at 1% deaths: goodput {:.1}/{:.1} r/s, {} deaths, {} retries, \
         {} duplicate executions, {} abandoned\n",
        faulty.goodput_rps,
        fault_free.goodput_rps,
        faulty.stats.faults.deaths,
        faulty.stats.faults.retries,
        faulty.stats.faults.duplicates,
        faulty.stats.faults.abandoned
    );
    out.push(Metric {
        key: "fault_goodput_ratio_1pct",
        value: faulty.goodput_rps / fault_free.goodput_rps,
        higher_is_better: true,
    });
    for (key, v) in [
        ("info_fault_deaths", faulty.stats.faults.deaths),
        (
            "info_fault_restore_failures",
            faulty.stats.faults.restore_failures,
        ),
        ("info_fault_retries", faulty.stats.faults.retries),
        ("info_fault_duplicates", faulty.stats.faults.duplicates),
        ("info_fault_abandoned", faulty.stats.faults.abandoned),
    ] {
        out.push(Metric {
            key,
            value: v as f64,
            higher_is_better: false,
        });
    }

    // DAG recovery overhead: completed-workflows-per-hop-executed of a
    // faulty migrating DAG run at 1% container death + 10% node loss,
    // as a fraction of the crash-free run over the same workload. Every
    // crash re-executes a hop, so the ratio is (hops_clean /
    // hops_faulty) when both complete everything — a pure virtual-time
    // quotient, deterministic and machine-independent, gated without an
    // escape hatch. The ledger counters ride along as `info_`.
    let dag_pair = |faults: Option<gh_faas::fault::FaultConfig>| {
        let catalog = gh_faas::trace::synthetic_catalog(10, 67);
        let mut cfg = gh_faas::workflow::migrate::MigrateConfig::new(4, 200, 67);
        if let Some(fc) = faults {
            cfg = cfg.with_faults(fc);
        }
        gh_faas::workflow::migrate::run_migrating_dags(&catalog, &cfg)
    };
    let dag_clean = dag_pair(None);
    let dag_faulty = {
        let mut fc = gh_faas::fault::FaultConfig::deaths(67, 0.01);
        fc.node_loss_rate = 0.1;
        fc.node_loss_window = gh_sim::Nanos::from_millis(40);
        fc.retry = gh_faas::fault::RetryPolicy {
            max_attempts: 10,
            ..gh_faas::fault::RetryPolicy::bounded()
        };
        dag_pair(Some(fc))
    };
    assert_eq!(
        dag_faulty.kv_fingerprint, dag_clean.kv_fingerprint,
        "faulty DAG run must converge to the crash-free KV state"
    );
    let goodput = |r: &gh_faas::workflow::migrate::MigrateResult| {
        r.completed as f64 / (r.hops_executed as f64).max(1.0)
    };
    println!(
        "dag smoke at 1% deaths + 10% node loss: {}/{} hops, {} orphaned, \
         {} migrations, {} duplicates absorbed, {} abandoned\n",
        dag_faulty.hops_executed,
        dag_clean.hops_executed,
        dag_faulty.faults.orphaned_hops,
        dag_faulty.faults.migrations,
        dag_faulty.duplicates_suppressed,
        dag_faulty.faults.abandoned
    );
    out.push(Metric {
        key: "dag_goodput_ratio_1pct",
        value: goodput(&dag_faulty) / goodput(&dag_clean),
        higher_is_better: true,
    });
    for (key, v) in [
        ("info_dag_hops_faulty", dag_faulty.hops_executed),
        ("info_dag_orphaned_hops", dag_faulty.faults.orphaned_hops),
        ("info_dag_migrations", dag_faulty.faults.migrations),
        (
            "info_dag_duplicates_absorbed",
            dag_faulty.duplicates_suppressed,
        ),
        ("info_dag_abandoned", dag_faulty.faults.abandoned),
    ] {
        out.push(Metric {
            key,
            value: v as f64,
            higher_is_better: false,
        });
    }

    // Deterministic host work: heap allocations per simulated request on
    // serial runs of the cluster and fleet rigs' shapes (the cluster's
    // also behind a caching front) and of the gateway rig's cache cell,
    // and per cold start on the cluster's (its 0-request run builds
    // every pool).
    let (cluster_setup, cluster_allocs) =
        work_allocations(|n| gh_bench::cluster_scaling::serial_run(n).completed);
    let (_, cached_allocs) = work_allocations(|n| {
        gh_bench::cluster_scaling::serial_cached_run(n)
            .cluster
            .completed
    });
    let (_, fleet_allocs) = work_allocations(|n| gh_bench::fleet_scaling::serial_run(n as usize));
    let (_, gateway_allocs) = work_allocations(|n| {
        gh_bench::gateway_scaling::cached_run(n as usize)
            .fleet
            .completed as u64
    });
    // The cluster rig's count with its nodes fanned out over 2 workers,
    // published ungated: fresh worker threads grow per-thread scratch
    // buffers (`gh-mem`'s index and extent scratch, `Restorer`'s), and
    // `ordered_map`'s `claimed` list grows by however many nodes each
    // worker claims, which depends on timing.
    let (_, cluster_par_allocs) = work_allocations(|n| {
        gh_bench::cluster_scaling::run_in(n, ExecMode::Parallel { threads: 2 }).completed
    });
    let cold_starts = gh_bench::cluster_scaling::serial_run(0).containers;
    let cold_start_allocs = cluster_setup as f64 / f64::from(cold_starts);
    println!(
        "heap allocations per simulated request: cluster {cluster_allocs:.4}, \
         cluster cached {cached_allocs:.4}, fleet {fleet_allocs:.4}, gateway \
         {gateway_allocs:.4}, cluster on 2 workers {cluster_par_allocs:.4}; per \
         cold start: cluster {cold_start_allocs:.4} ({cluster_setup} over \
         {cold_starts} containers)\n"
    );
    out.push(Metric {
        key: "work_allocs_per_req_cluster",
        value: cluster_allocs,
        higher_is_better: false,
    });
    out.push(Metric {
        key: "work_allocs_per_req_cluster_cached",
        value: cached_allocs,
        higher_is_better: false,
    });
    out.push(Metric {
        key: "work_allocs_per_req_fleet",
        value: fleet_allocs,
        higher_is_better: false,
    });
    out.push(Metric {
        key: "work_allocs_per_req_gateway",
        value: gateway_allocs,
        higher_is_better: false,
    });
    out.push(Metric {
        key: "work_allocs_per_cold_start_cluster",
        value: cold_start_allocs,
        higher_is_better: false,
    });
    out.push(Metric {
        key: "info_allocs_per_req_cluster_par",
        value: cluster_par_allocs,
        higher_is_better: false,
    });

    // Cores of the measuring host — records which environment the
    // `scaling_*_par` ratios in a baseline were taken on, and lets the
    // gate recognize a single-core runner (see `--check`).
    out.push(Metric {
        key: "info_cores",
        value: cores() as f64,
        higher_is_better: true,
    });
    out
}

/// Host cores as seen by the harness (what `ExecMode::Auto` sizes to).
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host-parallel speedup ratios whose baseline value assumes a
/// multicore host. On a single-core runner the honest expectation is
/// ~1.0 — the parallel path degrades to one worker — so `--check`
/// gates these at 1.0 there instead of the checked-in multicore ratio.
const PAR_RATIO_KEYS: [&str; 1] = ["scaling_cluster_par"];

fn render(metrics: &[Metric]) -> String {
    let mut s = String::from("{\n");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        s.push_str(&format!("  \"{}\": {:.4}{}\n", m.key, m.value, sep));
    }
    s.push_str("}\n");
    s
}

/// Parses the flat `"key": number` JSON this binary writes. Tolerant of
/// whitespace and trailing commas; anything else is a baseline bug.
fn parse(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some((_, value)) = rest.split_once(':') else {
            continue;
        };
        if let Ok(v) = value.trim().trim_end_matches(',').parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let metrics = collect();

    println!("== bench-smoke — consolidated perf summary ==\n");
    for m in &metrics {
        println!(
            "  {:28} {:>12.2}  ({} is worse)",
            m.key,
            m.value,
            if m.higher_is_better {
                "lower"
            } else {
                "higher"
            }
        );
    }
    let json = render(&metrics);
    let out_path = results_dir().join("BENCH_fleet.json");
    fs::write(&out_path, &json).expect("write summary");
    println!("\n[written {}]", out_path.display());

    if args.iter().any(|a| a == "--write-baseline") {
        let base_path = results_dir().join("baseline.json");
        fs::write(&base_path, &json).expect("write baseline");
        println!("[written {}]", base_path.display());
    }

    if let Some(i) = args.iter().position(|a| a == "--check") {
        let base_path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| results_dir().join("baseline.json").display().to_string());
        let baseline = match fs::read_to_string(&base_path) {
            Ok(s) => parse(&s),
            Err(e) => {
                eprintln!("cannot read baseline {base_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "\n== regression gate vs {base_path} (>{THRESHOLD_PCT:.0}% fails; any work_* increase fails) ==\n"
        );
        let cores = cores();
        let mut failures = 0;
        for (key, base) in &baseline {
            if key.starts_with("info_") {
                continue; // published for humans, machine-dependent, ungated
            }
            let Some(m) = metrics.iter().find(|m| m.key == key) else {
                eprintln!("  MISSING  {key}: in baseline but not measured");
                failures += 1;
                continue;
            };
            let base = if cores == 1 && PAR_RATIO_KEYS.contains(&key.as_str()) {
                println!(
                    "  note     {key}: single-core host, gating at 1.0 \
                     (baseline {base:.2} assumes multicore)"
                );
                &1.0
            } else {
                base
            };
            let delta_pct = if *base != 0.0 {
                (m.value - base) / base * 100.0
            } else {
                0.0
            };
            let bad = if key.starts_with("work_") {
                // Exact counts: any increase over the baseline's value
                // (compared as written, to 4 decimals) fails.
                rendered(m.value) > *base
            } else if m.higher_is_better {
                delta_pct < -THRESHOLD_PCT
            } else {
                delta_pct > THRESHOLD_PCT
            };
            if bad {
                eprintln!(
                    "  FAIL     {key}: {:.2} vs baseline {:.2} ({:+.1}%)",
                    m.value, base, delta_pct
                );
                failures += 1;
            } else {
                println!(
                    "  ok       {key}: {:.2} vs baseline {:.2} ({:+.1}%)",
                    m.value, base, delta_pct
                );
            }
        }
        // The reverse direction: a metric measured here but absent from
        // the baseline would otherwise never be gated — adding a metric
        // to collect() requires refreshing the checked-in baseline.
        for m in &metrics {
            if m.key.starts_with("info_") {
                continue;
            }
            if !baseline.iter().any(|(k, _)| k == m.key) {
                eprintln!(
                    "  UNGATED  {}: measured but missing from the baseline \
                     (run --write-baseline and commit it)",
                    m.key
                );
                failures += 1;
            }
        }
        if failures > 0 {
            eprintln!("\n{failures} metric(s) failed the gate");
            return ExitCode::FAILURE;
        }
        println!("\nall metrics within threshold");
    }
    ExitCode::SUCCESS
}
