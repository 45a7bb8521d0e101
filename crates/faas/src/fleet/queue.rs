//! Admission queues and queue-depth instrumentation.
//!
//! Requests the router has assigned to a container wait here until the
//! container is provably clean (§4.5: "inputs are buffered until
//! restoration completes"). The [`DepthTracker`] samples a pool's depth,
//! summed over its containers' queues, at every admission, retry and
//! readiness edge, so a fleet can report queue-depth percentiles — the
//! early-warning signal the autoscaler acts on — and a cluster the same
//! figure merged over its pools and nodes.
//!
//! Depth samples feed a fixed-size [`QuantileSketch`] rather than a
//! per-event `Vec`, so tracker memory is constant in the request count
//! (the 10⁶–10⁷-request cluster runs depend on this) and per-pool
//! trackers merge exactly into cluster-wide percentiles. Depths below
//! the sketch's identity range (64) are exact order statistics.

use std::collections::VecDeque;

use gh_sim::{Nanos, QuantileSketch};

/// A request waiting in a container's admission queue.
#[derive(Clone, Debug)]
pub struct Pending {
    /// Globally unique request id (also the taint label).
    pub id: u64,
    /// The authenticated caller.
    pub principal: String,
    /// Input payload size, KiB.
    pub input_kb: u64,
    /// Virtual time the request arrived at the router.
    pub arrival: Nanos,
    /// Canonical content hash of the request payload (0 when the
    /// workload carries no payload identity). The gateway keys its
    /// result cache on `(function, payload_hash)`.
    pub payload_hash: u64,
    /// Whether the request is idempotent — only idempotent responses
    /// are eligible for result caching.
    pub idempotent: bool,
    /// Execution attempt, 1-based. Attempts above 1 are retries after a
    /// fault ([`crate::fault`]); the id stays stable across attempts so
    /// fault draws and idempotence keys follow the request, not the
    /// attempt.
    pub attempt: u32,
}

/// A FIFO admission queue in front of one container.
#[derive(Clone, Debug, Default)]
pub struct AdmissionQueue {
    items: VecDeque<Pending>,
}

impl AdmissionQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a request (router-assigned arrival order is preserved).
    pub fn push(&mut self, p: Pending) {
        self.items.push_back(p);
    }

    /// Removes the oldest waiting request.
    pub fn pop(&mut self) -> Option<Pending> {
        self.items.pop_front()
    }

    /// The oldest waiting request, without removing it — the fault
    /// layer peeks here to decide whether the next dispatch crashes.
    pub fn peek(&self) -> Option<&Pending> {
        self.items.front()
    }

    /// Requests currently waiting.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Records a pool's queue-depth samples at scheduling events and reports
/// percentiles over them, in constant memory.
#[derive(Clone, Debug, Default)]
pub struct DepthTracker {
    sketch: QuantileSketch,
}

impl DepthTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one depth observation.
    pub fn record(&mut self, depth: usize) {
        self.sketch.record(depth as u64);
    }

    /// Number of observations taken.
    pub fn len(&self) -> usize {
        self.sketch.len() as usize
    }

    /// True when no observations were taken.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// Depth percentile over all observations; 0 with no observations.
    /// Exact for depths below 64, within 1.6% above.
    pub fn percentile(&self, p: f64) -> f64 {
        self.sketch.quantile(p) as f64
    }

    /// Several depth percentiles at once; zeros with no observations.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        ps.iter().map(|&p| self.percentile(p)).collect()
    }

    /// Mean observed depth (exact); 0 with no observations.
    pub fn mean(&self) -> f64 {
        self.sketch.mean()
    }

    /// Folds another tracker's observations in — exact, so per-pool
    /// depth trackers merge into a cluster-wide one deterministically.
    pub fn merge(&mut self, other: &DepthTracker) {
        self.sketch.merge(&other.sketch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(id: u64, at: u64) -> Pending {
        Pending {
            id,
            principal: "p".into(),
            input_kb: 1,
            arrival: Nanos::from_millis(at),
            payload_hash: 0,
            idempotent: false,
            attempt: 1,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = AdmissionQueue::new();
        q.push(pending(1, 0));
        q.push(pending(2, 1));
        q.push(pending(3, 2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek().unwrap().id, 1, "peek does not consume");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert_eq!(q.pop().unwrap().id, 3);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn depth_percentiles() {
        let mut d = DepthTracker::new();
        for depth in [0usize, 0, 1, 2, 4, 8] {
            d.record(depth);
        }
        assert_eq!(d.len(), 6);
        assert_eq!(d.percentile(100.0), 8.0);
        assert!(d.percentile(50.0) <= 2.0);
        assert!((d.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_single_tracker() {
        let mut a = DepthTracker::new();
        let mut b = DepthTracker::new();
        let mut whole = DepthTracker::new();
        for depth in [0usize, 3, 7, 1] {
            a.record(depth);
            whole.record(depth);
        }
        for depth in [2usize, 2, 9] {
            b.record(depth);
            whole.record(depth);
        }
        a.merge(&b);
        assert_eq!(a.len(), whole.len());
        assert_eq!(a.percentile(50.0), whole.percentile(50.0));
        assert_eq!(a.percentile(99.0), whole.percentile(99.0));
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let d = DepthTracker::new();
        assert!(d.is_empty());
        assert_eq!(d.percentile(99.0), 0.0);
        assert_eq!(d.mean(), 0.0);
    }
}
