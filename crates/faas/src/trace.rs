//! Trace-driven workload generation for cluster-scale runs.
//!
//! The single-fleet harness drives one function at a homogeneous
//! Poisson rate; a cloud serves *thousands* of functions whose traffic
//! is skewed, time-varying and bursty — and keep-alive / restore policy
//! conclusions flip with the arrival mix ("How Low Can You Go?",
//! PAPERS.md). [`TraceGen`] synthesizes such a workload on seeded
//! [`DetRng`] streams, as a pure iterator:
//!
//! - **Zipfian popularity** — function ids are popularity ranks; rank
//!   `r` is drawn with weight `1/(r+1)^s` via one precomputed CDF and a
//!   binary search per event;
//! - **diurnal envelope** — arrivals follow a non-homogeneous Poisson
//!   process with rate `base_rps · (1 + A·sin(2πt/period))`, realized
//!   by thinning a homogeneous process at the peak rate (a candidate at
//!   `t` survives with probability `rate(t)/rate_max`);
//! - **bursty principals** — after any normal event, with probability
//!   `burst_start_prob` one principal enters a burst: a geometric run
//!   of back-to-back requests to a single function at
//!   `burst_rps_factor ×` the base rate.
//!
//! Every stream draws from its own seed-derived [`DetRng`], so the
//! trace is a deterministic function of [`TraceConfig`] alone: two
//! iterators with the same config yield byte-identical event sequences
//! (pinned by the tests below). The generator itself holds O(1) state;
//! a cluster run folds it once on the coordinator and keeps only the
//! backend-bound arrivals, in per-node lists of 40 B [`TraceEvent`]s
//! (see [`crate::cluster`]).
//!
//! [`synthetic_catalog`] pairs the generator with a deterministic
//! function population (page counts, write fractions, runtimes, compute
//! times all seeded) so cluster runs don't need hand-written specs per
//! function.

use gh_functions::{BehaviorFlags, FunctionSpec, Suite};
use gh_runtime::RuntimeKind;
use gh_sim::{DetRng, Nanos};

/// Configuration of one synthetic trace — the trace is a pure function
/// of this struct.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Distinct functions; ids are popularity ranks (0 = hottest).
    pub functions: u32,
    /// Total requests to emit.
    pub requests: u64,
    /// Zipf exponent `s` of the popularity distribution (0 = uniform;
    /// ~1 is the classic heavy skew).
    pub zipf_s: f64,
    /// Distinct principals issuing requests.
    pub principals: u32,
    /// Mean offered rate, requests/second, before the diurnal envelope.
    pub base_rps: f64,
    /// Diurnal amplitude `A` in `[0, 1)`: instantaneous rate swings
    /// between `(1−A)` and `(1+A)` times `base_rps`.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal envelope (a simulated "day").
    pub diurnal_period: Nanos,
    /// Probability that a normal event starts a burst.
    pub burst_start_prob: f64,
    /// Mean burst length, requests (geometric).
    pub mean_burst_len: f64,
    /// Rate multiplier inside a burst.
    pub burst_rps_factor: f64,
    /// Virtual time of the first possible arrival (set past the pool
    /// cold-start transient so measurements start warm).
    pub origin: Nanos,
    /// Fraction of requests flagged idempotent (result-cache eligible).
    pub idempotent_frac: f64,
    /// Distinct payloads per function: each request draws its payload
    /// uniformly from this universe, so a smaller universe means a
    /// higher potential cache hit ratio.
    pub payload_universe: u64,
    /// Seed; every internal stream derives from it.
    pub seed: u64,
}

impl TraceConfig {
    /// A skewed, mildly diurnal, mildly bursty default trace.
    pub fn new(functions: u32, requests: u64, base_rps: f64, seed: u64) -> TraceConfig {
        assert!(functions > 0, "need at least one function");
        assert!(base_rps > 0.0, "offered load must be positive");
        TraceConfig {
            functions,
            requests,
            zipf_s: 1.0,
            principals: 64,
            base_rps,
            diurnal_amplitude: 0.4,
            diurnal_period: Nanos::from_secs(120),
            burst_start_prob: 0.002,
            mean_burst_len: 32.0,
            burst_rps_factor: 8.0,
            origin: Nanos::from_secs(10),
            idempotent_frac: 0.25,
            payload_universe: 64,
            seed,
        }
    }
}

/// One trace event: request `seq` for function `fn_id` from
/// `principal`, arriving at virtual time `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival time at the cluster front-end.
    pub at: Nanos,
    /// Global request sequence number (1-based; doubles as taint id).
    pub seq: u64,
    /// Function popularity rank.
    pub fn_id: u32,
    /// Principal index.
    pub principal: u32,
    /// Canonical payload hash (well-mixed over the function's payload
    /// universe) — what the gateway's result cache keys on.
    pub payload_hash: u64,
    /// Whether the request is idempotent (result-cache eligible).
    pub idempotent: bool,
}

/// A Poisson arrival process at `rps` under a diurnal envelope of
/// `amplitude` and `period` from `origin`, realized by thinning: the one
/// arrival step of [`TraceGen`] and of the fleet's arrival source.
#[derive(Clone, Copy)]
pub(crate) struct Diurnal {
    pub rps: f64,
    pub amplitude: f64,
    pub period: Nanos,
    pub origin: Nanos,
}

impl Diurnal {
    /// The next arrival after `at`. At amplitude 0 it is one gap drawn
    /// from `gaps`, and `thin` stays undrawn. Otherwise candidates come
    /// at the envelope's peak rate, and each one at `t` is kept with
    /// probability `rate(t) / peak`, one `thin` draw per candidate.
    pub fn next(&self, mut at: Nanos, gaps: &mut DetRng, thin: &mut DetRng) -> Nanos {
        if self.amplitude == 0.0 {
            return at + gaps.exp_gap(self.rps);
        }
        let peak = self.rps * (1.0 + self.amplitude);
        loop {
            at += gaps.exp_gap(peak);
            let phase = at.saturating_sub(self.origin).as_secs_f64() / self.period.as_secs_f64();
            let rate = self.rps * (1.0 + self.amplitude * (std::f64::consts::TAU * phase).sin());
            if thin.next_f64() < rate / peak {
                return at;
            }
        }
    }
}

/// Burst state: a principal hammering one function.
struct Burst {
    fn_id: u32,
    principal: u32,
    left: u64,
}

/// The seeded trace generator. See the module docs for the model.
pub struct TraceGen {
    cfg: TraceConfig,
    /// Normalized Zipf CDF over ranks.
    cdf: Vec<f64>,
    diurnal: Diurnal,
    gap_rng: DetRng,
    thin_rng: DetRng,
    fn_rng: DetRng,
    principal_rng: DetRng,
    burst_rng: DetRng,
    payload_rng: DetRng,
    now: Nanos,
    emitted: u64,
    burst: Option<Burst>,
}

impl TraceGen {
    /// Creates the generator for `cfg`.
    pub fn new(cfg: &TraceConfig) -> TraceGen {
        assert!(
            (0.0..1.0).contains(&cfg.diurnal_amplitude),
            "amplitude must be in [0, 1)"
        );
        assert!(cfg.burst_rps_factor >= 1.0, "bursts must not slow down");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..cfg.functions)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(cfg.zipf_s);
                acc
            })
            .collect();
        for w in cdf.iter_mut() {
            *w /= acc;
        }
        let seed = cfg.seed;
        TraceGen {
            cfg: cfg.clone(),
            cdf,
            diurnal: Diurnal {
                rps: cfg.base_rps,
                amplitude: cfg.diurnal_amplitude,
                period: cfg.diurnal_period,
                origin: cfg.origin,
            },
            // Independent streams per concern, like the fleet's
            // arrival/principal split: adding a draw to one stream
            // never perturbs the others.
            gap_rng: DetRng::new(seed ^ 0x7AC3_0001),
            thin_rng: DetRng::new(seed ^ 0x7AC3_0002),
            fn_rng: DetRng::new(seed ^ 0x7AC3_0003),
            principal_rng: DetRng::new(seed ^ 0x7AC3_0004),
            burst_rng: DetRng::new(seed ^ 0x7AC3_0005),
            payload_rng: DetRng::new(seed ^ 0x7AC3_0006),
            now: cfg.origin,
            emitted: 0,
            burst: None,
        }
    }

    /// Zipf rank draw: binary search of the precomputed CDF.
    fn draw_rank(&mut self) -> u32 {
        let u = self.fn_rng.next_f64();
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

impl Iterator for TraceGen {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.emitted >= self.cfg.requests {
            return None;
        }
        let (fn_id, principal) = if let Some(b) = self.burst.as_mut() {
            // Burst mode: back-to-back requests at the boosted rate,
            // same function and principal for the whole run.
            self.now += self
                .gap_rng
                .exp_gap(self.cfg.base_rps * self.cfg.burst_rps_factor);
            let ev = (b.fn_id, b.principal);
            b.left -= 1;
            if b.left == 0 {
                self.burst = None;
            }
            ev
        } else {
            self.now = self
                .diurnal
                .next(self.now, &mut self.gap_rng, &mut self.thin_rng);
            let fn_id = self.draw_rank();
            let principal = self.principal_rng.next_below(self.cfg.principals as u64) as u32;
            if self.burst_rng.next_f64() < self.cfg.burst_start_prob {
                // Geometric-mean-length run, at least one more request.
                let u = (1.0 - self.burst_rng.next_f64()).max(f64::MIN_POSITIVE);
                let left = ((-self.cfg.mean_burst_len * u.ln()).ceil() as u64).max(1);
                self.burst = Some(Burst {
                    fn_id,
                    principal,
                    left,
                });
            }
            (fn_id, principal)
        };
        self.emitted += 1;
        // Payload identity rides its own stream (after every other
        // per-event draw), so traces generated before this stream
        // existed keep their at/fn/principal sequences bit for bit.
        let payload = self
            .payload_rng
            .next_below(self.cfg.payload_universe.max(1));
        let idempotent = self.payload_rng.next_f64() < self.cfg.idempotent_frac;
        Some(TraceEvent {
            at: self.now,
            seq: self.emitted,
            fn_id,
            principal,
            payload_hash: gh_gateway::cache::mix((fn_id as u64) << 32 | payload),
            idempotent,
        })
    }
}

/// The largest cluster-wide arrival rate (requests/second) that keeps
/// every function's expected pool utilization at or below `target`,
/// given `containers_per_fn` deployed containers per function and the
/// trace's Zipf exponent: rank `r` receives a `w_r` share of the total
/// rate, so the binding constraint is the rank minimizing
/// `capacity_r / w_r`. Sizing the offered load this way keeps
/// admission queues bounded over arbitrarily long traces — the
/// diurnal peak and burst factor ride on top as transient overload.
pub fn stable_rps(
    catalog: &[FunctionSpec],
    containers_per_fn: usize,
    zipf_s: f64,
    target: f64,
) -> f64 {
    assert!(!catalog.is_empty(), "need at least one function");
    assert!(target > 0.0, "utilization target must be positive");
    let h: f64 = (1..=catalog.len())
        .map(|r| 1.0 / (r as f64).powf(zipf_s))
        .sum();
    catalog
        .iter()
        .enumerate()
        .map(|(r, spec)| {
            let share = 1.0 / ((r + 1) as f64).powf(zipf_s) / h;
            let capacity = containers_per_fn as f64 * 1000.0 / spec.base_invoker_ms;
            target * capacity / share
        })
        .fold(f64::INFINITY, f64::min)
}

/// Builds a deterministic population of `n` synthetic functions for
/// cluster runs: small, skewed page counts (the simulator's per-request
/// cost scales with the touch set, so the population is sized for
/// 10⁶–10⁷-request runs), write fractions in the paper's "small write
/// set" regime (§3.1), and a runtime mix weighted toward native code
/// (cached write plans). `fn_id` indexes straight into the returned
/// catalog.
///
/// Names are interned (`Box::leak`) because [`FunctionSpec::name`] is
/// `&'static str` across the workspace; one catalog per process
/// configuration is the intended use, so the leak is bounded.
pub fn synthetic_catalog(n: u32, seed: u64) -> Vec<FunctionSpec> {
    let mut rng = DetRng::new(seed ^ 0x5F3C_7A70_0CA7_A106);
    (0..n)
        .map(|i| {
            let (runtime, suite, tag) = match rng.next_below(10) {
                0..=6 => (RuntimeKind::NativeC, Suite::PolyBench, "c"),
                7 | 8 => (RuntimeKind::Python, Suite::PyPerformance, "p"),
                _ => (RuntimeKind::NodeJs, Suite::FaaSProfiler, "n"),
            };
            // Log-uniform mapped sizes (96–1536 pages) and compute
            // times (2–80 ms): a skewed-but-small population.
            let total_pages = (96.0 * 16f64.powf(rng.next_f64())).round();
            let write_frac = rng.range_f64(0.02, 0.15);
            let written_pages = (total_pages * write_frac).round().max(4.0);
            let base_invoker_ms = 2.0 * 40f64.powf(rng.next_f64());
            let platform_ms = rng.range_f64(20.0, 40.0);
            // Restore cost ≈ proportional to the write set (§4.4's
            // restore-aware router reads this).
            let paper_restore_ms = 0.2 + written_pages * 0.004;
            let name: &'static str = Box::leak(format!("synth-{i:04} ({tag})").into_boxed_str());
            FunctionSpec {
                name,
                suite,
                runtime,
                base_invoker_ms,
                base_e2e_ms: base_invoker_ms + platform_ms,
                base_xput: 4000.0 / (base_invoker_ms + 3.0),
                total_kpages: total_pages / 1000.0,
                written_kpages: written_pages / 1000.0,
                input_kb: 1 + rng.next_below(8),
                output_kb: 1 + rng.next_below(8),
                paper_gh_invoker_ms: base_invoker_ms * 1.05,
                paper_restore_ms,
                paper_gh_xput: 4000.0 / (base_invoker_ms * 1.05 + 3.0),
                paper_faults_k: written_pages / 1000.0,
                faasm: None,
                behavior: BehaviorFlags::default(),
            }
        })
        .collect()
}

/// Deterministic redeploy schedule for gateway runs: `count` instants
/// spread over the trace's expected span (requests / base rate) after
/// its origin, each jittered inside its slot by the trace seed's
/// `0x7AC3_0007` stream. A pure function of `(cfg, count)`, so every
/// replay — serial, parallel, repeat — sees the identical redeploy
/// timeline (`gh_faas::gateway` bumps its cache generation at each
/// instant).
pub fn redeploy_schedule(cfg: &TraceConfig, count: usize) -> Vec<Nanos> {
    let mut rng = DetRng::new(cfg.seed ^ 0x7AC3_0007);
    let span_s = cfg.requests as f64 / cfg.base_rps;
    (0..count)
        .map(|i| {
            let slot = (i as f64 + rng.range_f64(0.25, 0.75)) / count.max(1) as f64;
            cfg.origin + Nanos::from_millis_f64(span_s * slot * 1e3)
        })
        .collect()
}

/// Deterministic redeploy schedule for *cluster* runs: like
/// [`redeploy_schedule`], but each instant also carries the function
/// being redeployed (drawn uniformly over the trace's function
/// population on the dedicated `0x7AC3_0009` stream). A pure function
/// of `(cfg, count)`, so every run of the
/// [`crate::cluster::GatewayFront`] fold sees the identical
/// invalidation timeline.
pub fn cluster_redeploy_schedule(cfg: &TraceConfig, count: usize) -> Vec<(Nanos, u32)> {
    let mut rng = DetRng::new(cfg.seed ^ 0x7AC3_0009);
    let span_s = cfg.requests as f64 / cfg.base_rps;
    (0..count)
        .map(|i| {
            let slot = (i as f64 + rng.range_f64(0.25, 0.75)) / count.max(1) as f64;
            let at = cfg.origin + Nanos::from_millis_f64(span_s * slot * 1e3);
            (at, rng.next_below(cfg.functions as u64) as u32)
        })
        .collect()
}

/// One workflow arrival in a DAG-shaped workload: instance `workflow`
/// enters the cluster at `at`, with `shape_seed` feeding
/// [`crate::workflow::dag::random_dag_spec`] so each instance gets its
/// own (deterministic) DAG shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagArrival {
    /// Workflow instance index (0-based).
    pub workflow: u64,
    /// Arrival time of the workflow's first hop.
    pub at: Nanos,
    /// Seed of the instance's DAG shape.
    pub shape_seed: u64,
}

/// DAG-shaped workload stream: `workflows` Poisson arrivals at
/// `arrival_rps`, each carrying a per-instance shape seed, all on the
/// dedicated `0x7AC3_0008` stream. A pure function of its arguments —
/// the migration sim ([`crate::workflow::migrate`]) replays it for the
/// crash-equivalence and determinism oracles.
pub fn dag_workload(workflows: u64, arrival_rps: f64, seed: u64) -> Vec<DagArrival> {
    assert!(arrival_rps > 0.0, "workflow arrival rate must be positive");
    let mut rng = DetRng::new(seed ^ 0x7AC3_0008);
    let mut now = Nanos::ZERO;
    (0..workflows)
        .map(|workflow| {
            now += rng.exp_gap(arrival_rps);
            DagArrival {
                workflow,
                at: now,
                shape_seed: rng.next_u64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(cfg: &TraceConfig) -> Vec<TraceEvent> {
        TraceGen::new(cfg).collect()
    }

    #[test]
    fn seeded_determinism() {
        let cfg = TraceConfig::new(100, 5_000, 500.0, 42);
        let a = gen(&cfg);
        let b = gen(&cfg);
        assert_eq!(a, b, "same config must yield byte-identical traces");
        let other = gen(&TraceConfig::new(100, 5_000, 500.0, 43));
        assert_ne!(a, other, "different seeds must diverge");
    }

    #[test]
    fn redeploy_schedule_is_pure_ordered_and_in_span() {
        let cfg = TraceConfig::new(16, 10_000, 1_000.0, 99);
        let a = redeploy_schedule(&cfg, 4);
        let b = redeploy_schedule(&cfg, 4);
        assert_eq!(a, b, "schedule must be a pure function of the config");
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly ordered");
        let span_end = cfg.origin + Nanos::from_secs(10);
        assert!(a.iter().all(|&t| t >= cfg.origin && t <= span_end));
        assert_ne!(
            redeploy_schedule(&TraceConfig::new(16, 10_000, 1_000.0, 100), 4),
            a,
            "different seeds shift the schedule"
        );
    }

    #[test]
    fn cluster_redeploy_schedule_is_pure_and_targets_trace_functions() {
        let cfg = TraceConfig::new(16, 10_000, 1_000.0, 99);
        let a = cluster_redeploy_schedule(&cfg, 5);
        assert_eq!(a, cluster_redeploy_schedule(&cfg, 5), "pure in the config");
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "strictly ordered");
        assert!(a.iter().all(|&(t, f)| t >= cfg.origin && f < 16));
        assert_ne!(
            cluster_redeploy_schedule(&TraceConfig::new(16, 10_000, 1_000.0, 100), 5),
            a
        );
    }

    #[test]
    fn dag_workload_is_pure_ordered_and_seed_sensitive() {
        let a = dag_workload(200, 150.0, 7);
        assert_eq!(a, dag_workload(200, 150.0, 7), "pure in the arguments");
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].at < w[1].at), "strictly ordered");
        assert!(a.iter().enumerate().all(|(i, d)| d.workflow == i as u64));
        let b = dag_workload(200, 150.0, 8);
        assert_ne!(a, b, "different seeds shift arrivals and shapes");
        // Shape seeds are well spread (no accidental stream reuse).
        let distinct: std::collections::HashSet<u64> = a.iter().map(|d| d.shape_seed).collect();
        assert_eq!(distinct.len(), 200);
    }

    #[test]
    fn emits_exactly_requests_in_time_order() {
        let cfg = TraceConfig::new(32, 2_000, 800.0, 7);
        let evs = gen(&cfg);
        assert_eq!(evs.len(), 2_000);
        assert!(evs.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(evs[0].at >= cfg.origin);
        assert!(evs.iter().all(|e| e.fn_id < 32 && e.principal < 64));
        // seq is the 1-based global order.
        assert!(evs.iter().enumerate().all(|(i, e)| e.seq == i as u64 + 1));
    }

    #[test]
    fn zipf_orders_ranks_by_frequency() {
        let cfg = TraceConfig {
            burst_start_prob: 0.0, // isolate the popularity draw
            ..TraceConfig::new(50, 40_000, 1_000.0, 11)
        };
        let mut counts = vec![0u64; 50];
        for e in TraceGen::new(&cfg) {
            counts[e.fn_id as usize] += 1;
        }
        // Rank 0 is the hottest, and the head dominates the tail.
        assert!(counts[0] > counts[9] && counts[9] > counts[39]);
        let head: u64 = counts[..5].iter().sum();
        assert!(
            head as f64 > 0.35 * 40_000.0,
            "s=1 head underweighted: {head}"
        );
    }

    #[test]
    fn uniform_when_unskewed() {
        let cfg = TraceConfig {
            zipf_s: 0.0,
            burst_start_prob: 0.0,
            ..TraceConfig::new(10, 50_000, 1_000.0, 13)
        };
        let mut counts = vec![0u64; 10];
        for e in TraceGen::new(&cfg) {
            counts[e.fn_id as usize] += 1;
        }
        for &c in &counts {
            assert!((4_300..=5_700).contains(&c), "uniform draw skewed: {c}");
        }
    }

    #[test]
    fn diurnal_envelope_modulates_rate() {
        // One full period; compare the rising half-period's arrivals
        // against the falling half's.
        let period = Nanos::from_secs(40);
        let cfg = TraceConfig {
            diurnal_amplitude: 0.8,
            diurnal_period: period,
            burst_start_prob: 0.0,
            ..TraceConfig::new(10, 40_000, 1_000.0, 17)
        };
        let (mut peak, mut trough) = (0u64, 0u64);
        for e in TraceGen::new(&cfg) {
            let phase = (e.at.saturating_sub(cfg.origin)).as_secs_f64() % 40.0;
            if phase < 20.0 {
                peak += 1;
            } else if e.at.saturating_sub(cfg.origin) < period {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "sin>0 half must out-arrive sin<0 half: {peak} vs {trough}"
        );
    }

    #[test]
    fn the_diurnal_step_keeps_every_stream_exact() {
        // A flat envelope is one plain gap and leaves the thin stream
        // undrawn; a modulated one is thinning at the peak rate, written
        // out here as a reference.
        for amplitude in [0.0, 0.6] {
            let d = Diurnal {
                rps: 400.0,
                amplitude,
                period: Nanos::from_millis(250),
                origin: Nanos::from_millis(3),
            };
            let (mut gaps, mut thin) = (DetRng::new(5), DetRng::new(6));
            let (mut ref_gaps, mut ref_thin) = (gaps.clone(), thin.clone());
            let (mut at, mut want) = (d.origin, d.origin);
            for _ in 0..2_000 {
                at = d.next(at, &mut gaps, &mut thin);
                let peak = d.rps * (1.0 + amplitude);
                loop {
                    let u = (1.0 - ref_gaps.next_f64()).max(f64::MIN_POSITIVE);
                    want += Nanos::from_millis_f64(-u.ln() / peak * 1e3);
                    if amplitude == 0.0 {
                        break;
                    }
                    let phase = (want - d.origin).as_secs_f64() / d.period.as_secs_f64();
                    let rate =
                        d.rps * (1.0 + amplitude * (2.0 * std::f64::consts::PI * phase).sin());
                    if ref_thin.next_f64() < rate / peak {
                        break;
                    }
                }
                assert_eq!(at, want, "amplitude {amplitude}");
            }
            assert_eq!(
                gaps.next_u64(),
                ref_gaps.next_u64(),
                "amplitude {amplitude}"
            );
            assert_eq!(
                thin.next_u64(),
                ref_thin.next_u64(),
                "amplitude {amplitude}"
            );
        }
    }

    #[test]
    fn bursts_repeat_function_and_principal() {
        let cfg = TraceConfig {
            burst_start_prob: 0.05,
            mean_burst_len: 16.0,
            ..TraceConfig::new(200, 20_000, 1_000.0, 23)
        };
        let evs = gen(&cfg);
        // Bursts produce runs of identical (fn, principal) pairs far
        // longer than iid draws over 200×64 combinations would.
        let mut longest = 1usize;
        let mut cur = 1usize;
        for w in evs.windows(2) {
            if w[0].fn_id == w[1].fn_id && w[0].principal == w[1].principal {
                cur += 1;
                longest = longest.max(cur);
            } else {
                cur = 1;
            }
        }
        assert!(longest >= 8, "expected a burst run, longest={longest}");
    }

    #[test]
    fn stable_rps_keeps_every_rank_under_target() {
        let cat = synthetic_catalog(40, 19);
        let s = 1.0;
        let rps = stable_rps(&cat, 4, s, 0.6);
        assert!(rps > 0.0 && rps.is_finite());
        let h: f64 = (1..=40).map(|r| 1.0 / r as f64).sum();
        for (r, spec) in cat.iter().enumerate() {
            let share = 1.0 / (r + 1) as f64 / h;
            let util = rps * share * spec.base_invoker_ms / (4.0 * 1000.0);
            assert!(util <= 0.6 * 1.0001, "rank {r} overloaded: {util:.3}");
        }
    }

    #[test]
    fn synthetic_catalog_is_deterministic_and_sane() {
        let a = synthetic_catalog(64, 5);
        let b = synthetic_catalog(64, 5);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.total_pages(), y.total_pages());
            assert_eq!(x.base_invoker_ms.to_bits(), y.base_invoker_ms.to_bits());
        }
        for s in &a {
            assert!((96.0..=1536.0).contains(&(s.total_pages() as f64)), "{s:?}");
            assert!(s.written_pages() >= 4);
            assert!(s.written_pages() <= s.total_pages());
            assert!((2.0..=80.0 * 1.001).contains(&s.base_invoker_ms));
            assert!(s.paper_restore_ms > 0.0);
        }
        // The runtime mix leans native.
        let native = a
            .iter()
            .filter(|s| s.runtime == RuntimeKind::NativeC)
            .count();
        assert!(native > 64 / 2, "native majority expected: {native}/64");
    }
}
