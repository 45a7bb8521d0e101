//! Per-principal admission control: token-bucket rate limiting plus a
//! global concurrency ceiling.
//!
//! Each principal owns a [`TokenBucket`] refilled continuously in
//! *virtual* time — the refill is a pure function of the elapsed
//! `Nanos` between decisions, so identical request timelines produce
//! identical admit/reject sequences on every run and host. A request
//! that clears its bucket still has to fit under the global in-flight
//! ceiling; the two failure modes are counted separately
//! ([`Decision::Reject`] vs [`Decision::Defer`]) because they mean
//! different things operationally: rejects are shed load (the principal
//! exceeded its contract), defers are backpressure (the platform is
//! saturated) and the driving loop is expected to park and retry them
//! as capacity frees up.

use gh_sim::Nanos;

/// Admission knobs.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Steady-state tokens per second granted to each principal.
    pub rate_per_sec: f64,
    /// Bucket capacity: the largest burst a principal can spend
    /// back-to-back. Zero means every request is rejected.
    pub burst: u64,
    /// Global concurrency ceiling across all principals; `None` lifts
    /// it. Requests over the ceiling are deferred, not rejected.
    pub max_in_flight: Option<usize>,
}

impl AdmissionConfig {
    /// Rate-limit only: per-principal buckets, no concurrency ceiling.
    pub fn per_principal(rate_per_sec: f64, burst: u64) -> AdmissionConfig {
        AdmissionConfig {
            rate_per_sec,
            burst,
            max_in_flight: None,
        }
    }
}

/// One principal's bucket. Tokens refill lazily: each decision first
/// credits `elapsed × rate`, capped at `burst`, then spends one token
/// if a whole token is available.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    tokens: f64,
    last: Nanos,
}

impl TokenBucket {
    /// A bucket born full at virtual time `at`.
    pub fn full(burst: u64, at: Nanos) -> TokenBucket {
        TokenBucket {
            tokens: burst as f64,
            last: at,
        }
    }

    /// Tokens currently available (after refilling up to `now`).
    pub fn available(&self, now: Nanos, rate_per_sec: f64, burst: u64) -> f64 {
        let elapsed = now.checked_sub(self.last).unwrap_or(Nanos::ZERO);
        (self.tokens + elapsed.as_secs_f64() * rate_per_sec).min(burst as f64)
    }

    /// Refills up to `now`, then tries to spend one token.
    pub fn try_take(&mut self, now: Nanos, rate_per_sec: f64, burst: u64) -> bool {
        self.tokens = self.available(now, rate_per_sec, burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The gateway's verdict on one arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Cleared the bucket and the ceiling — send it to the backend.
    Admit,
    /// The principal's bucket is dry — shed the request.
    Reject,
    /// The global ceiling is full — park the request and retry when an
    /// in-flight request completes.
    Defer,
}

/// Admission state across all principals. Principals are identified by
/// their deterministic index (the same `u64` the fleet and trace
/// generators draw), not by name, so no hashing is on the decision
/// path: buckets sit in a `Vec` indexed by that index.
pub struct AdmissionControl {
    cfg: AdmissionConfig,
    /// Per-principal buckets by principal index; `None` until the
    /// principal's first arrival.
    buckets: Vec<Option<TokenBucket>>,
    in_flight: usize,
    /// Requests shed by per-principal rate limiting.
    pub rejected: u64,
    /// Requests parked (at least once) by the concurrency ceiling.
    pub deferred: u64,
}

impl AdmissionControl {
    /// Fresh state under `cfg`: every bucket starts full at its
    /// principal's first arrival.
    pub fn new(cfg: AdmissionConfig) -> AdmissionControl {
        AdmissionControl {
            cfg,
            buckets: Vec::new(),
            in_flight: 0,
            rejected: 0,
            deferred: 0,
        }
    }

    /// The configuration this controller runs under.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Decides `principal`'s arrival at virtual time `now`, updating
    /// the reject/defer counters. [`Decision::Admit`] does *not* bump
    /// the in-flight count — the driver calls [`AdmissionControl::begin`]
    /// when the request actually enters the backend (cache hits are
    /// served without occupying a slot).
    ///
    /// `principal` must be a dense index: the bucket table grows to the
    /// largest index seen, so its memory is proportional to that index,
    /// not to the number of principals. The fleet and trace generators
    /// draw indices below their principal count.
    pub fn admit(&mut self, principal: u64, now: Nanos) -> Decision {
        let cfg = self.cfg;
        let i = usize::try_from(principal).expect("principal index fits in usize");
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, None);
        }
        let bucket = self.buckets[i].get_or_insert_with(|| TokenBucket::full(cfg.burst, now));
        if !bucket.try_take(now, cfg.rate_per_sec, cfg.burst) {
            self.rejected += 1;
            return Decision::Reject;
        }
        if !self.has_capacity() {
            self.deferred += 1;
            return Decision::Defer;
        }
        Decision::Admit
    }

    /// True while another request fits under the ceiling.
    pub fn has_capacity(&self) -> bool {
        self.cfg
            .max_in_flight
            .is_none_or(|cap| self.in_flight < cap)
    }

    /// Records a request entering the backend.
    pub fn begin(&mut self) {
        self.in_flight += 1;
    }

    /// Records an in-flight request completing, freeing ceiling room.
    ///
    /// # Panics
    ///
    /// On an `end` without a matching [`AdmissionControl::begin`], in
    /// every build: a wrapped count would defer every later request.
    pub fn end(&mut self) {
        self.in_flight = self
            .in_flight
            .checked_sub(1)
            .expect("end() without matching begin()");
    }

    /// Requests currently occupying the ceiling.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "end() without matching begin()")]
    fn an_unmatched_end_panics_in_every_build() {
        let mut ac = AdmissionControl::new(AdmissionConfig {
            max_in_flight: Some(2),
            ..AdmissionConfig::per_principal(10.0, 4)
        });
        ac.begin();
        ac.end();
        ac.end();
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut ac = AdmissionControl::new(AdmissionConfig::per_principal(100.0, 0));
        for i in 0..10u64 {
            let at = Nanos::from_millis(i * 500);
            assert_eq!(ac.admit(0, at), Decision::Reject);
        }
        assert_eq!(ac.rejected, 10);
        assert_eq!(ac.deferred, 0);
    }

    #[test]
    fn burst_equal_to_bucket_admits_exactly_capacity() {
        // A full bucket of 4 admits exactly 4 back-to-back requests at
        // the same instant; the 5th is shed.
        let mut ac = AdmissionControl::new(AdmissionConfig::per_principal(1.0, 4));
        let at = Nanos::from_millis(1);
        for _ in 0..4 {
            assert_eq!(ac.admit(7, at), Decision::Admit);
        }
        assert_eq!(ac.admit(7, at), Decision::Reject);
        assert_eq!(ac.rejected, 1);
    }

    #[test]
    fn bucket_refills_with_virtual_time() {
        let mut ac = AdmissionControl::new(AdmissionConfig::per_principal(2.0, 1));
        let t0 = Nanos::ZERO;
        assert_eq!(ac.admit(0, t0), Decision::Admit);
        assert_eq!(ac.admit(0, t0), Decision::Reject, "bucket dry");
        // 2 tokens/s → one whole token back after 500ms.
        assert_eq!(
            ac.admit(0, Nanos::from_millis(499)),
            Decision::Reject,
            "still fractionally short"
        );
        assert_eq!(ac.admit(0, Nanos::from_millis(999)), Decision::Admit);
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut ac = AdmissionControl::new(AdmissionConfig::per_principal(1000.0, 2));
        // A long quiet period must not bank more than `burst` tokens.
        let late = Nanos::from_secs(100);
        assert_eq!(ac.admit(0, late), Decision::Admit);
        assert_eq!(ac.admit(0, late), Decision::Admit);
        assert_eq!(ac.admit(0, late), Decision::Reject);
    }

    #[test]
    fn principals_have_independent_buckets() {
        let mut ac = AdmissionControl::new(AdmissionConfig::per_principal(1.0, 1));
        let at = Nanos::from_millis(1);
        assert_eq!(ac.admit(0, at), Decision::Admit);
        assert_eq!(ac.admit(0, at), Decision::Reject);
        assert_eq!(ac.admit(1, at), Decision::Admit, "fresh principal");
        // A principal first seen below the largest index so far still
        // starts with a full bucket of its own.
        assert_eq!(ac.admit(5, at), Decision::Admit, "grows the table");
        assert_eq!(ac.admit(3, at), Decision::Admit, "fresh below the end");
        assert_eq!(ac.admit(3, at), Decision::Reject);
        assert_eq!(ac.admit(5, at), Decision::Reject);
    }

    #[test]
    fn ceiling_defers_and_releases() {
        let mut ac = AdmissionControl::new(AdmissionConfig {
            rate_per_sec: 1000.0,
            burst: 100,
            max_in_flight: Some(2),
        });
        let at = Nanos::from_millis(1);
        assert_eq!(ac.admit(0, at), Decision::Admit);
        ac.begin();
        assert_eq!(ac.admit(0, at), Decision::Admit);
        ac.begin();
        assert_eq!(ac.admit(0, at), Decision::Defer);
        assert_eq!(ac.deferred, 1);
        ac.end();
        assert!(ac.has_capacity());
        assert_eq!(ac.admit(0, at), Decision::Admit);
    }
}
