//! Client workloads: the measurement harnesses of §5.2–§5.3.
//!
//! - [`closed_loop_latency`]: "a closed-loop client ... which submits
//!   requests one-at-a-time" with enough pacing for Groundhog to finish
//!   restoration between requests — latency reflects in-function
//!   overheads only (§5.2.1's low-load workload).
//! - [`saturate`]: "a large number of in-flight requests" — the container
//!   is never idle, so restoration time eats into capacity (§5.2.2's
//!   high-load workload, and the throughput setup of §5.3).
//! - [`throughput_scaling`]: the §5.3.4 experiment — per-core containers
//!   with independent seeds, summed.

use gh_functions::FunctionSpec;
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::stats::{throughput_rps, LatencyRecorder, Summary};
use gh_sim::{DetRng, Nanos, QuantileSketch};
use groundhog_core::GroundhogConfig;

use crate::container::Container;
use crate::platform::{Platform, PlatformConfig};
use crate::request::Request;

/// Latency measurements from a closed-loop run. All collectors are
/// fixed-size sketches, so a run's stats memory is independent of `n`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyRun {
    /// End-to-end latencies.
    pub e2e: LatencyRecorder,
    /// Invoker latencies.
    pub invoker: LatencyRecorder,
    /// Restore durations observed (off the critical path).
    pub restores: QuantileSketch,
}

impl LatencyRun {
    /// Mean E2E in ms.
    pub fn e2e_mean_ms(&self) -> f64 {
        self.e2e.summary_ms().mean
    }

    /// Mean invoker latency in ms.
    pub fn invoker_mean_ms(&self) -> f64 {
        self.invoker.summary_ms().mean
    }

    /// Mean restore duration in ms (0 when no restores ran).
    pub fn restore_mean_ms(&self) -> f64 {
        self.restores.mean_ms()
    }
}

/// Runs a low-load closed-loop client against a fresh deployment:
/// `n` requests, one at a time, with an idle gap after each response
/// long enough for any restoration to finish before the next arrival.
pub fn closed_loop_latency(
    spec: &FunctionSpec,
    kind: StrategyKind,
    gh: GroundhogConfig,
    n: usize,
    seed: u64,
) -> Result<LatencyRun, StrategyError> {
    let mut platform = Platform::new(PlatformConfig {
        gh,
        seed,
        ..PlatformConfig::default()
    });
    let id = platform.deploy(spec, kind)?;
    let mut run = LatencyRun::default();
    let principals = ["alice", "bob", "carol"];
    for i in 0..n {
        let out = platform.invoke_simple(id, principals[i % principals.len()])?;
        run.e2e.record(out.e2e);
        run.invoker.record(out.invoker);
        if !out.off_path.is_zero() {
            run.restores.record_nanos(out.off_path);
        }
        // Low-load pacing: idle long enough that restoration (already
        // charged to the container's clock inside invoke) never delays
        // the next request.
        platform
            .container_mut(id)
            .kernel
            .charge(Nanos::from_millis(2));
    }
    Ok(run)
}

/// Throughput of one saturated container (requests back-to-back, no idle
/// gaps): completions per second of virtual time, after `warmup`
/// requests are excluded.
pub fn saturate(
    container: &mut Container,
    requests: usize,
    warmup: usize,
    seed: u64,
) -> Result<f64, StrategyError> {
    let mut rng = DetRng::new(seed);
    let spec = container.spec.clone();
    let sat_overhead_ms = spec.saturation_overhead_ms(4) / 4.0;
    let mut measured = 0usize;
    let mut window_start = container.now();
    for i in 0..requests {
        if i == warmup {
            window_start = container.now();
        }
        // Invoker dispatch overhead at saturation (queueing, scheduling,
        // payload handling) — identical across strategies, calibrated
        // from the paper's BASE throughput.
        let overhead = Nanos::from_millis_f64(sat_overhead_ms).scale(rng.lognormal_factor(0.1));
        container.kernel.charge(overhead);
        let req = Request::new(i as u64 + 1, "client", spec.input_kb);
        container.invoke(&req)?;
        if i >= warmup {
            measured += 1;
        }
    }
    let window = container.now() - window_start;
    Ok(throughput_rps(measured, window))
}

/// §5.3.4: sustained throughput with `cores` containers (one per core,
/// independent machines), averaged over `runs` runs. Returns
/// `(mean, std_dev)` of the summed throughput.
pub fn throughput_scaling(
    spec: &FunctionSpec,
    kind: StrategyKind,
    gh: GroundhogConfig,
    cores: u32,
    requests_per_core: usize,
    runs: u32,
    seed: u64,
) -> Result<(f64, f64), StrategyError> {
    let mut rng = DetRng::new(seed);
    let mut totals = Vec::new();
    for _run in 0..runs {
        let mut total = 0.0;
        for _core in 0..cores {
            let s = rng.next_u64();
            let mut c = Container::cold_start(spec, kind, gh.clone(), s)?;
            total += saturate(&mut c, requests_per_core, requests_per_core / 10, s ^ 1)?;
        }
        totals.push(total);
    }
    let s = Summary::of(&totals);
    Ok((s.mean, s.std_dev))
}

/// Convenience: single-run 4-core throughput (the Fig. 5 setup).
pub fn peak_throughput(
    spec: &FunctionSpec,
    kind: StrategyKind,
    gh: GroundhogConfig,
    requests_per_core: usize,
    seed: u64,
) -> Result<f64, StrategyError> {
    let (mean, _) = throughput_scaling(spec, kind, gh, 4, requests_per_core, 1, seed)?;
    Ok(mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_functions::catalog::by_name;

    #[test]
    fn closed_loop_records_all_requests() {
        let spec = by_name("pickle (p)").unwrap();
        let run =
            closed_loop_latency(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 12, 7).unwrap();
        assert_eq!(run.e2e.len(), 12);
        assert_eq!(run.invoker.len(), 12);
        assert_eq!(run.restores.len(), 12, "GH restores after every request");
        assert!(run.restore_mean_ms() > 0.0);
    }

    #[test]
    fn base_has_no_restores() {
        let spec = by_name("pickle (p)").unwrap();
        let run =
            closed_loop_latency(&spec, StrategyKind::Base, GroundhogConfig::gh(), 8, 7).unwrap();
        assert!(run.restores.is_empty());
    }

    #[test]
    fn gh_latency_overhead_is_modest_for_long_functions() {
        // pickle(p): base invoker ≈ 105.6ms, paper GH ≈ 105.7ms (+0.01%).
        let spec = by_name("pickle (p)").unwrap();
        let base =
            closed_loop_latency(&spec, StrategyKind::Base, GroundhogConfig::gh(), 10, 3).unwrap();
        let gh =
            closed_loop_latency(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 10, 3).unwrap();
        let rel = gh.invoker_mean_ms() / base.invoker_mean_ms();
        assert!(
            (0.98..1.1).contains(&rel),
            "GH/base invoker ratio {rel:.3} should be ~1 for pickle"
        );
    }

    #[test]
    fn saturated_throughput_close_to_paper_baseline() {
        // atax(c): Table 3 baseline throughput 93.55 r/s at 4 cores.
        let spec = by_name("atax (c)").unwrap();
        let x = peak_throughput(&spec, StrategyKind::Base, GroundhogConfig::gh(), 40, 5).unwrap();
        assert!(
            (70.0..120.0).contains(&x),
            "atax base throughput {x:.1} vs paper 93.6"
        );
    }

    #[test]
    fn gh_throughput_below_base_for_restore_heavy_functions() {
        let spec = by_name("fannkuch (p)").unwrap();
        let base =
            peak_throughput(&spec, StrategyKind::Base, GroundhogConfig::gh(), 40, 9).unwrap();
        let gh = peak_throughput(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 40, 9).unwrap();
        assert!(
            gh < base * 0.92,
            "fannkuch: restore (3.1ms) vs exec (4.6ms) must cost throughput: {gh:.0} vs {base:.0}"
        );
    }

    #[test]
    fn throughput_scales_with_cores() {
        let spec = by_name("trisolv (c)").unwrap();
        let (x1, _) =
            throughput_scaling(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 1, 30, 1, 11)
                .unwrap();
        let (x4, _) =
            throughput_scaling(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 4, 30, 1, 11)
                .unwrap();
        let ratio = x4 / x1;
        assert!(
            (3.3..4.7).contains(&ratio),
            "§5.3.4: near-linear scaling, got {ratio:.2}x"
        );
    }
}
