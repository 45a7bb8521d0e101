//! Coordinator-pure gateway front-end for the cluster path.
//!
//! The fleet gateway ([`crate::gateway`]) interleaves cache fills and
//! admission releases with backend completions on one event queue. A
//! cluster cannot: node timelines must stay pure functions of the trace
//! prefix or host-parallel execution stops being bit-identical to
//! serial (see [`crate::cluster`]). [`GatewayFront`] is the restriction
//! of the gateway to decisions computable from the trace alone:
//!
//! - **Result cache** with *arrival-reservation* semantics: the first
//!   idempotent arrival for a `(function, payload)` key reserves a
//!   cache entry visible from its own arrival time and goes to the
//!   backend; later arrivals inside the TTL window are hits, served at
//!   the front at the configured hit cost. Reserving at arrival rather
//!   than at fill time makes the cache a pure function of the trace —
//!   the price is a small optimistic bias (a hit may be served before
//!   the filling request's backend response in real time), which is the
//!   standard request-coalescing idealization. Redeploy invalidation
//!   ([`gh_gateway::cache::ResultCache::redeploy`]) folds in the same
//!   way: a redeploy schedule is a pure function of time, so
//!   [`GatewayFront::with_redeploys`] replays it against the trace
//!   clock — each due `(instant, fn)` entry bumps the function's
//!   generation and drops its cached entries — and every run observes
//!   the identical invalidation sequence. [`GatewayFront::new`] is the
//!   empty-schedule special case (generation pinned to 0, bit-for-bit
//!   the old behavior).
//! - **Per-principal token buckets** exactly as in the fleet gateway.
//!   The global concurrency ceiling ([`AdmissionConfig::max_in_flight`])
//!   is **ignored**: deferral needs completion knowledge the
//!   coordinator does not have. [`GatewayFront::new`] strips it.
//! - **No pre-warmer**: cluster pools are fixed-size per (node,
//!   function); pre-warming is a fleet-level policy.
//!
//! The coordinator folds the front over the *full* trace once, ahead of
//! the [`super::Placer`], before any node runs: backend-bound arrivals
//! go on to placement, hits record their front-side sojourn, and the
//! front's counters are read when the fold ends. Nodes see only their
//! arrival lists, so no front state ever crosses a thread boundary.

use gh_gateway::admission::{AdmissionConfig, TokenBucket};
use gh_gateway::cache::{CacheKey, ResultCache};
use gh_gateway::GatewayConfig;
use gh_sim::Nanos;
use std::collections::HashMap;

use crate::trace::TraceEvent;

/// What the front decided for one trace event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrontDecision {
    /// Forward to placement and a node's pool.
    Backend,
    /// Served from the result cache at the front.
    Hit,
    /// Dropped by the principal's token bucket.
    Reject,
}

/// Deterministic gateway front: a pure fold over the trace stream.
///
/// Feed it every [`TraceEvent`] in order via [`GatewayFront::decide`];
/// two fronts built from the same [`GatewayConfig`] and fed the same
/// stream traverse identical states.
pub struct GatewayFront {
    cache: Option<ResultCache>,
    admission: Option<AdmissionCfgBuckets>,
    /// Time-ordered `(instant, fn)` redeploy schedule being folded in.
    redeploys: Vec<(Nanos, u32)>,
    /// Next unapplied schedule entry.
    next_redeploy: usize,
    /// Current code generation per function (0 until redeployed).
    generation: HashMap<u64, u64>,
    /// Arrivals served from the cache.
    pub hits: u64,
    /// Arrivals dropped by rate limiting.
    pub rejected: u64,
    /// High-water mark of cached bytes.
    pub cache_peak_bytes: u64,
}

/// Rate-limit half of [`gh_gateway::admission::AdmissionControl`]: the
/// buckets without the in-flight ceiling.
struct AdmissionCfgBuckets {
    cfg: AdmissionConfig,
    buckets: HashMap<u64, TokenBucket>,
}

impl GatewayFront {
    /// Builds the front. The in-flight ceiling, if configured, is
    /// dropped (see the module docs); the pre-warmer is ignored.
    pub fn new(cfg: &GatewayConfig) -> GatewayFront {
        GatewayFront::with_redeploys(cfg, &[])
    }

    /// Builds the front with a redeploy schedule folded into the cache:
    /// when the trace clock passes an entry, that function's generation
    /// bumps and its cached results drop (old-generation keys miss even
    /// inside their TTL). Being a pure function of the trace clock, it
    /// folds deterministically, so coordinator purity is preserved.
    ///
    /// # Panics
    ///
    /// If the schedule is not time-ordered (in every build: the fold
    /// would otherwise apply a late-listed entry late).
    pub fn with_redeploys(cfg: &GatewayConfig, schedule: &[(Nanos, u32)]) -> GatewayFront {
        assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "redeploy schedule must be time-ordered"
        );
        GatewayFront {
            cache: cfg.cache.map(ResultCache::new),
            admission: cfg.admission.map(|a| AdmissionCfgBuckets {
                cfg: AdmissionConfig {
                    max_in_flight: None,
                    ..a
                },
                buckets: HashMap::new(),
            }),
            redeploys: schedule.to_vec(),
            next_redeploy: 0,
            generation: HashMap::new(),
            hits: 0,
            rejected: 0,
            cache_peak_bytes: 0,
        }
    }

    /// Folds one trace event through cache + rate limit. Must be called
    /// for every event, in trace order. `output_kb` is the function's
    /// response size (used for cache byte accounting when the event
    /// reserves an entry).
    pub fn decide(&mut self, ev: &TraceEvent, output_kb: u64) -> FrontDecision {
        // Apply redeploys that are due by this event's arrival: bump
        // the function's generation and drop its cached entries.
        while let Some(&(at, f)) = self.redeploys.get(self.next_redeploy) {
            if at > ev.at {
                break;
            }
            self.next_redeploy += 1;
            *self.generation.entry(f as u64).or_insert(0) += 1;
            if let Some(cache) = &mut self.cache {
                cache.redeploy(f as u64);
            }
        }
        if let Some(cache) = &mut self.cache {
            cache.expire_due(ev.at);
            if ev.idempotent {
                let key = CacheKey {
                    fn_id: ev.fn_id as u64,
                    generation: self
                        .generation
                        .get(&(ev.fn_id as u64))
                        .copied()
                        .unwrap_or(0),
                    payload_hash: ev.payload_hash,
                };
                if cache.lookup(key, ev.at).is_some() {
                    self.hits += 1;
                    return FrontDecision::Hit;
                }
                // Miss: this event goes to the backend and reserves the
                // entry from its own arrival time.
                cache.insert(key, output_kb, ev.at);
                self.cache_peak_bytes = self.cache_peak_bytes.max(cache.bytes());
            }
        }
        if let Some(adm) = &mut self.admission {
            let bucket = adm
                .buckets
                .entry(ev.principal as u64)
                .or_insert_with(|| TokenBucket::full(adm.cfg.burst, ev.at));
            if !bucket.try_take(ev.at, adm.cfg.rate_per_sec, adm.cfg.burst) {
                self.rejected += 1;
                return FrontDecision::Reject;
            }
        }
        FrontDecision::Backend
    }

    /// The latency a cache hit is charged at the front.
    pub fn hit_cost(&self) -> Nanos {
        self.cache
            .as_ref()
            .map_or(Nanos::ZERO, |c| c.config().hit_cost)
    }

    /// Cache counters (zeroed stats when the cache is disabled).
    pub fn cache_stats(&self) -> gh_gateway::cache::CacheStats {
        self.cache.as_ref().map(|c| c.stats).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_gateway::cache::CacheConfig;

    fn ev(seq: u64, at: Nanos, fn_id: u32, principal: u32, payload: u64, idem: bool) -> TraceEvent {
        TraceEvent {
            seq,
            at,
            fn_id,
            principal,
            payload_hash: payload,
            idempotent: idem,
        }
    }

    #[test]
    fn disabled_front_passes_everything() {
        let mut f = GatewayFront::new(&GatewayConfig::disabled());
        for i in 0..50 {
            let e = ev(i, Nanos::from_millis(i), 0, 0, 7, true);
            assert_eq!(f.decide(&e, 1), FrontDecision::Backend);
        }
        assert_eq!(f.hits, 0);
        assert_eq!(f.rejected, 0);
    }

    #[test]
    #[should_panic(expected = "redeploy schedule must be time-ordered")]
    fn an_unordered_redeploy_schedule_is_rejected() {
        // The fold applies due entries from a cursor, so the 2 s entry
        // would wait behind the 5 s one and apply 3 s late.
        let schedule = [(Nanos::from_secs(5), 0), (Nanos::from_secs(2), 1)];
        GatewayFront::with_redeploys(&GatewayConfig::disabled(), &schedule);
    }

    #[test]
    fn reservation_turns_repeats_into_hits() {
        let cfg = GatewayConfig::builder()
            .cache(CacheConfig::default_for_ttl(Nanos::from_secs(10)))
            .build();
        let mut f = GatewayFront::new(&cfg);
        let first = ev(0, Nanos::from_secs(1), 3, 0, 42, true);
        assert_eq!(f.decide(&first, 4), FrontDecision::Backend);
        let again = ev(1, Nanos::from_secs(2), 3, 1, 42, true);
        assert_eq!(f.decide(&again, 4), FrontDecision::Hit);
        // Past the TTL the reservation is gone; the next arrival
        // re-reserves.
        let late = ev(2, Nanos::from_secs(20), 3, 0, 42, true);
        assert_eq!(f.decide(&late, 4), FrontDecision::Backend);
        assert_eq!(f.hits, 1);
    }

    #[test]
    fn non_idempotent_never_cached() {
        let cfg = GatewayConfig::builder()
            .cache(CacheConfig::default_for_ttl(Nanos::from_secs(10)))
            .build();
        let mut f = GatewayFront::new(&cfg);
        for i in 0..4 {
            let e = ev(i, Nanos::from_secs(i), 1, 0, 9, false);
            assert_eq!(f.decide(&e, 4), FrontDecision::Backend);
        }
        assert_eq!(f.hits, 0);
    }

    #[test]
    fn redeploys_invalidate_inside_the_ttl_and_fold_purely() {
        let cfg = GatewayConfig::builder()
            .cache(CacheConfig::default_for_ttl(Nanos::from_secs(60)))
            .build();
        let schedule = [(Nanos::from_secs(5), 3u32)];
        let mut f = GatewayFront::with_redeploys(&cfg, &schedule);
        let first = ev(0, Nanos::from_secs(1), 3, 0, 42, true);
        assert_eq!(f.decide(&first, 4), FrontDecision::Backend);
        let warm = ev(1, Nanos::from_secs(2), 3, 0, 42, true);
        assert_eq!(f.decide(&warm, 4), FrontDecision::Hit);
        // Past the redeploy instant the generation has bumped: the same
        // key misses well inside its TTL and re-reserves.
        let stale = ev(2, Nanos::from_secs(6), 3, 0, 42, true);
        assert_eq!(f.decide(&stale, 4), FrontDecision::Backend);
        let refill = ev(3, Nanos::from_secs(7), 3, 0, 42, true);
        assert_eq!(f.decide(&refill, 4), FrontDecision::Hit);
        // A function not in the schedule is untouched.
        let other = ev(4, Nanos::from_secs(8), 1, 0, 9, true);
        assert_eq!(f.decide(&other, 4), FrontDecision::Backend);
        assert_eq!(f.decide(&ev(5, Nanos::from_secs(9), 1, 0, 9, true), 4), {
            FrontDecision::Hit
        });
        assert!(f.cache_stats().invalidated > 0);
        // The fold is pure: replaying the same stream traverses the
        // identical decision sequence.
        let mut g = GatewayFront::with_redeploys(&cfg, &schedule);
        for (i, e) in [first, warm, stale, refill, other].iter().enumerate() {
            let want = match i {
                1 | 3 => FrontDecision::Hit,
                _ => FrontDecision::Backend,
            };
            assert_eq!(g.decide(e, 4), want);
        }
    }

    #[test]
    fn rate_limit_rejects_and_ceiling_is_stripped() {
        let cfg = GatewayConfig::builder()
            .admission(AdmissionConfig {
                rate_per_sec: 1.0,
                burst: 2,
                max_in_flight: Some(1),
            })
            .build();
        let mut f = GatewayFront::new(&cfg);
        let t = Nanos::from_secs(5);
        // Burst of two passes; the ceiling (which would defer the
        // second) is ignored at the front.
        assert_eq!(
            f.decide(&ev(0, t, 0, 0, 1, false), 1),
            FrontDecision::Backend
        );
        assert_eq!(
            f.decide(&ev(1, t, 0, 0, 2, false), 1),
            FrontDecision::Backend
        );
        assert_eq!(
            f.decide(&ev(2, t, 0, 0, 3, false), 1),
            FrontDecision::Reject
        );
        // A different principal has its own bucket.
        assert_eq!(
            f.decide(&ev(3, t, 0, 1, 4, false), 1),
            FrontDecision::Backend
        );
        assert_eq!(f.rejected, 1);
    }
}
