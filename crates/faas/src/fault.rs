//! Seeded, deterministic fault injection.
//!
//! Groundhog's rollback makes *requests* safe from each other; this
//! module makes the platform itself unreliable in a reproducible way so
//! the fleet, cluster, and workflow layers can be tested against
//! container death mid-request, restore (snapshot writeback) failure,
//! and node loss. Every draw is a **pure function** of
//! `(seed, request-or-node id, attempt)` through a splitmix64 hash on
//! dedicated streams — no RNG state is threaded through the event
//! loops, so:
//!
//! - fault-*disabled* runs are byte-identical to runs of a build
//!   without this module (no streams are advanced, no events added);
//! - node-parallel cluster execution stays byte-identical to serial
//!   (any node can evaluate any other node's draws without
//!   coordination);
//! - two [`FaultPlan`]s built from the same seed agree on every draw
//!   (the purity property test in this module).
//!
//! Retry semantics are bounded-attempt exponential backoff in virtual
//! time ([`RetryPolicy::backoff`]); the event loops choose
//! retry-after-restore (same container) or retry-on-other-container /
//! node via [`RetryPolicy::reroute`]. Per-fault accounting lands in
//! [`FaultStats`], nested in `FleetStats` / `ClusterResult`.

use gh_sim::Nanos;

/// Stream tags XORed into the seed so the three fault families draw
/// from independent hash streams (same idiom as the trace generator's
/// `0x7AC3_*` streams).
const STREAM_DEATH: u64 = 0xFA17_0001;
const STREAM_DEATH_FRAC: u64 = 0xFA17_0002;
const STREAM_RESTORE: u64 = 0xFA17_0003;
const STREAM_NODE: u64 = 0xFA17_0004;
const STREAM_COMMIT: u64 = 0xFA17_0005;

/// splitmix64 finalizer — the same bijective mix the placer and cache
/// use, duplicated here so fault draws do not depend on either.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from a hash input (53 mantissa bits).
fn unit(h: u64) -> f64 {
    (mix(h) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Bounded-attempt retry with exponential backoff in virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first; a request whose last attempt
    /// faults is abandoned.
    pub max_attempts: u32,
    /// Backoff before attempt 2 (doubling-style growth after that).
    pub backoff_base: Nanos,
    /// Multiplier applied per additional failed attempt.
    pub backoff_factor: f64,
    /// `true`: retry on another container / node (the router or placer
    /// is asked to avoid the faulted one). `false`: retry on the same
    /// container once it has restored (retry-after-restore).
    pub reroute: bool,
}

impl RetryPolicy {
    /// 3 attempts, 5 ms base, doubling, retry-after-restore.
    pub fn bounded() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Nanos::from_millis(5),
            backoff_factor: 2.0,
            reroute: false,
        }
    }

    /// Same bounds, but retries move to another container / node.
    pub fn rerouting() -> RetryPolicy {
        RetryPolicy {
            reroute: true,
            ..RetryPolicy::bounded()
        }
    }

    /// Backoff to wait after failed attempt `attempt` (1-based):
    /// `base × factor^(attempt-1)`. Strictly increasing in `attempt`
    /// whenever `factor ≥ 1`, which is what keeps a retry from ever
    /// being scheduled ahead of an earlier retry of the same request
    /// (property-tested below).
    pub fn backoff(&self, attempt: u32) -> Nanos {
        self.backoff_base
            .scale(self.backoff_factor.powi(attempt.saturating_sub(1) as i32))
    }

    /// Short label for sweep tables (`a3-same`, `a5-move`, …).
    pub fn label(&self) -> String {
        format!(
            "a{}-{}",
            self.max_attempts,
            if self.reroute { "move" } else { "same" }
        )
    }
}

/// Fault-injection knobs. All rates are probabilities per draw
/// (per attempt for deaths / restore failures, per `(node, window)`
/// for node loss); zero rates make the plan inert.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault streams. Deliberately separate from the
    /// workload seed so the same traffic can replay under different
    /// fault schedules.
    pub seed: u64,
    /// Probability a given attempt's container dies mid-request.
    pub death_rate: f64,
    /// Probability an attempt's off-path snapshot writeback aborts, in
    /// which case the container must cold-start before its next
    /// admission (readiness extended by the container's init time).
    pub restore_failure_rate: f64,
    /// Probability a node is down for a whole outage window.
    pub node_loss_rate: f64,
    /// Outage-window length for node loss (virtual time).
    pub node_loss_window: Nanos,
    /// Retry semantics for faulted attempts.
    pub retry: RetryPolicy,
}

impl FaultConfig {
    /// All rates zero — an inert plan (draws never fire).
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            death_rate: 0.0,
            restore_failure_rate: 0.0,
            node_loss_rate: 0.0,
            node_loss_window: Nanos::from_secs(1),
            retry: RetryPolicy::bounded(),
        }
    }

    /// Container-death-only plan at `death_rate` with bounded retries.
    pub fn deaths(seed: u64, death_rate: f64) -> FaultConfig {
        FaultConfig {
            death_rate,
            ..FaultConfig::none(seed)
        }
    }

    /// True when any fault family can fire. Event loops use this to
    /// stay on the exact fault-free code path when false.
    pub fn is_active(&self) -> bool {
        self.death_rate > 0.0 || self.restore_failure_rate > 0.0 || self.node_loss_rate > 0.0
    }
}

/// The deterministic fault schedule: a stateless view over a
/// [`FaultConfig`] answering "does fault X hit attempt A of request R"
/// as a pure hash of its arguments.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Builds the plan. Cheap (no allocation, no RNG state).
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan { cfg }
    }

    /// The configuration behind this plan.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when any fault family can fire.
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    fn draw(&self, stream: u64, a: u64, b: u64) -> f64 {
        unit(mix(self.cfg.seed ^ stream) ^ mix(a) ^ b)
    }

    /// Does attempt `attempt` (1-based) of request `request` die
    /// mid-execution? Returns the fraction of the nominal execution
    /// completed before the crash (in `[0.05, 0.95]`), or `None`.
    pub fn death(&self, request: u64, attempt: u32) -> Option<f64> {
        if self.draw(STREAM_DEATH, request, attempt as u64) < self.cfg.death_rate {
            Some(0.05 + 0.9 * self.draw(STREAM_DEATH_FRAC, request, attempt as u64))
        } else {
            None
        }
    }

    /// For an attempt that dies: did the crash land *after* the
    /// attempt's state commit? Post-commit deaths make the retry a
    /// duplicate execution, which the workflow layer's idempotent
    /// commit must suppress.
    pub fn death_after_commit(&self, request: u64, attempt: u32) -> bool {
        self.draw(STREAM_COMMIT, request, attempt as u64) < 0.5
    }

    /// Does attempt `attempt` of request `request` suffer a restore
    /// failure (snapshot writeback abort) after responding?
    pub fn restore_failure(&self, request: u64, attempt: u32) -> bool {
        self.draw(STREAM_RESTORE, request, attempt as u64) < self.cfg.restore_failure_rate
    }

    /// Is `node` down at virtual time `at`? Outages are whole windows
    /// of `node_loss_window`, drawn independently per
    /// `(node, window-index)` — pure, so every node in a parallel run
    /// can evaluate every other node's availability.
    pub fn node_down(&self, node: usize, at: Nanos) -> bool {
        if self.cfg.node_loss_rate <= 0.0 {
            return false;
        }
        let window = at.as_nanos() / self.cfg.node_loss_window.as_nanos().max(1);
        self.draw(STREAM_NODE, node as u64, window) < self.cfg.node_loss_rate
    }

    /// Backoff in virtual time after failed attempt `attempt`.
    pub fn backoff(&self, attempt: u32) -> Nanos {
        self.cfg.retry.backoff(attempt)
    }

    /// Max attempts per request under this plan's retry policy.
    pub fn max_attempts(&self) -> u32 {
        self.cfg.retry.max_attempts.max(1)
    }
}

/// Per-fault accounting, nested in `FleetStats` / `ClusterResult`.
/// Everything is a plain count so node-level stats merge by addition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Container deaths injected (attempts that crashed mid-request).
    pub deaths: u64,
    /// Restore failures injected (writeback aborts forcing cold-start).
    pub restore_failures: u64,
    /// Arrivals that found their placed node down and were re-routed
    /// (or abandoned when every replica was down).
    pub node_losses: u64,
    /// Retry attempts scheduled after a fault.
    pub retries: u64,
    /// Attempts whose crash landed after the state commit — the retry
    /// re-executes work whose effects already applied (the workflow
    /// layer's idempotent commit must absorb these).
    pub duplicates: u64,
    /// Requests dropped after exhausting `max_attempts`.
    pub abandoned: u64,
    /// In-flight workflow hops re-dispatched to a *different* node
    /// after their executing node was lost (cross-node migration,
    /// carrying only the workflow's KV snapshot version).
    pub migrations: u64,
    /// In-flight hops whose executing node died under them — each is
    /// either migrated, retried in place, or (attempts exhausted)
    /// abandoned with its workflow.
    pub orphaned_hops: u64,
    /// Orphaned hops whose commit had already landed before the node
    /// was lost — the re-dispatched execution is a duplicate and its
    /// re-commit is suppressed by the KV's idempotence (this counter
    /// must equal the KV-side `duplicates_suppressed` delta).
    pub duplicate_commits_absorbed: u64,
}

impl FaultStats {
    /// True when no fault was injected (fault-free run).
    pub fn is_empty(&self) -> bool {
        *self == FaultStats::default()
    }

    /// The one retry rule, taken after faulted attempt `attempt`
    /// (1-based) of a request or hop: when `plan` allows another
    /// attempt, counts a retry and returns `true`; otherwise counts the
    /// request abandoned and returns `false`. Every runner that draws
    /// faults — the dispatch kernel, the DAG hop loop and the migrating
    /// cluster — decides here, so a failed attempt has one fate
    /// everywhere.
    pub(crate) fn retry_or_abandon(&mut self, plan: &FaultPlan, attempt: u32) -> bool {
        if attempt < plan.max_attempts() {
            self.retries += 1;
            true
        } else {
            self.abandoned += 1;
            false
        }
    }

    /// Folds `other` into `self` (node-level merge).
    pub fn merge(&mut self, other: &FaultStats) {
        self.deaths += other.deaths;
        self.restore_failures += other.restore_failures;
        self.node_losses += other.node_losses;
        self.retries += other.retries;
        self.duplicates += other.duplicates;
        self.abandoned += other.abandoned;
        self.migrations += other.migrations;
        self.orphaned_hops += other.orphaned_hops;
        self.duplicate_commits_absorbed += other.duplicate_commits_absorbed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_pure_function_of_seed() {
        // Two plans built from the same config agree on every draw —
        // the ISSUE's purity property.
        let cfg = FaultConfig {
            death_rate: 0.3,
            restore_failure_rate: 0.2,
            node_loss_rate: 0.1,
            ..FaultConfig::none(0xDEAD)
        };
        let a = FaultPlan::new(cfg);
        let b = FaultPlan::new(cfg);
        for req in 0..500u64 {
            for attempt in 1..=4u32 {
                assert_eq!(a.death(req, attempt), b.death(req, attempt));
                assert_eq!(
                    a.restore_failure(req, attempt),
                    b.restore_failure(req, attempt)
                );
                assert_eq!(
                    a.death_after_commit(req, attempt),
                    b.death_after_commit(req, attempt)
                );
            }
            let at = Nanos::from_millis(req * 37);
            for node in 0..8 {
                assert_eq!(a.node_down(node, at), b.node_down(node, at));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(FaultConfig::deaths(1, 0.5));
        let b = FaultPlan::new(FaultConfig::deaths(2, 0.5));
        let diff = (0..1000u64)
            .filter(|&r| a.death(r, 1).is_some() != b.death(r, 1).is_some())
            .count();
        assert!(diff > 100, "schedules barely differ: {diff}/1000");
    }

    #[test]
    fn death_rate_is_respected() {
        let plan = FaultPlan::new(FaultConfig::deaths(7, 0.1));
        let hits = (0..20_000u64)
            .filter(|&r| plan.death(r, 1).is_some())
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((0.08..0.12).contains(&rate), "rate {rate:.3}");
        // Fractions stay inside the documented band.
        for r in 0..20_000u64 {
            if let Some(f) = plan.death(r, 1) {
                assert!((0.05..=0.95).contains(&f));
            }
        }
    }

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::new(FaultConfig::none(99));
        assert!(!plan.is_active());
        for r in 0..1000u64 {
            assert!(plan.death(r, 1).is_none());
            assert!(!plan.restore_failure(r, 1));
            assert!(!plan.node_down(r as usize % 16, Nanos::from_millis(r)));
        }
    }

    #[test]
    fn backoff_is_monotonic_in_attempts() {
        // Exponential backoff never schedules attempt k+1's retry
        // before attempt k's: the per-attempt delay is strictly
        // increasing, so cumulative retry times are too.
        let policies = [
            RetryPolicy::bounded(),
            RetryPolicy::rerouting(),
            RetryPolicy {
                max_attempts: 8,
                backoff_base: Nanos::from_micros(250),
                backoff_factor: 1.5,
                reroute: false,
            },
        ];
        for p in policies {
            let mut prev = Nanos::ZERO;
            let mut cum_prev = Nanos::ZERO;
            let mut cum = Nanos::ZERO;
            for attempt in 1..=p.max_attempts {
                let b = p.backoff(attempt);
                assert!(b > prev, "{}: backoff({attempt}) not increasing", p.label());
                cum += b;
                assert!(cum > cum_prev, "retry times must advance");
                prev = b;
                cum_prev = cum;
            }
        }
    }

    #[test]
    fn node_loss_windows_are_stable_within_a_window() {
        let plan = FaultPlan::new(FaultConfig {
            node_loss_rate: 0.5,
            node_loss_window: Nanos::from_secs(1),
            ..FaultConfig::none(5)
        });
        // All instants inside one window agree.
        for node in 0..8usize {
            let w0 = plan.node_down(node, Nanos::from_millis(10));
            for ms in [0u64, 250, 500, 999] {
                assert_eq!(w0, plan.node_down(node, Nanos::from_millis(ms)));
            }
        }
        // Across many windows the rate shows up.
        let downs = (0..2000u64)
            .filter(|&w| plan.node_down(3, Nanos::from_secs(w)))
            .count();
        assert!((800..1200).contains(&downs), "downs {downs}/2000");
    }
}
