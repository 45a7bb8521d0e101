//! Failure-aware cluster autoscaling: a pure virtual-time controller
//! over the node count.
//!
//! The cluster's node set is provisioned up front ([`super::ClusterConfig::nodes`]);
//! this controller decides how many of those nodes are *active* — i.e.
//! receive new placements — purely from the arrival stream it is folded
//! over:
//!
//! - **Grow** when failure pressure or queueing pressure shows up in a
//!   window: the observed loss count (arrivals whose placed node was
//!   down) reaches [`NodeScaleConfig::loss_grow`], or the p90 of the
//!   per-window queue-depth sketch exceeds
//!   [`NodeScaleConfig::grow_depth_ms`].
//! - **Drain** when a window is quiet (p90 below
//!   [`NodeScaleConfig::drain_depth_ms`]): the highest-indexed active node
//!   is *cordoned* — it keeps serving what it already has but receives
//!   no new placements — and is removed only once its modeled backlog
//!   has fully drained. In-flight *workflows* whose next hop would have
//!   landed on the cordoned node are migrated to another replica by the
//!   caller (counted as redirects here, as migrations in the workflow
//!   ledger).
//!
//! Like the [`super::Placer`] and [`super::GatewayFront`], the scaler
//! is a **pure fold over the trace**: it reads only arrival times, the
//! base placement, a per-function cost estimate, and the deterministic
//! node-loss schedule — never node progress. The cluster coordinator
//! steps it once per backend-bound arrival, in the same trace fold as
//! the placer and before any node runs, so the active-set sequence is
//! fixed up front, which is what keeps host-parallel cluster execution
//! bit-identical to serial with autoscaling enabled
//! (`tests/cluster_oracle.rs`).
//!
//! Queue depth is modeled, not measured: each node carries a backlog in
//! virtual nanoseconds that decays in real (virtual) time and grows by
//! the placed function's expected end-to-end cost. That proxy is exact
//! enough to steer scaling and — unlike true node queue depths — is
//! computable by the coordinator from the trace prefix alone.

use gh_sim::{Nanos, QuantileSketch};

/// Knobs of the failure-aware node autoscaler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeScaleConfig {
    /// Never drain below this many active nodes.
    pub min_nodes: usize,
    /// Grow when the window's p90 modeled queue depth (ms) exceeds
    /// this.
    pub grow_depth_ms: u64,
    /// Start a drain when the window's p90 modeled queue depth (ms) is
    /// below this.
    pub drain_depth_ms: u64,
    /// Grow when a window observes at least this many arrivals whose
    /// placed node was down (0 disables the loss trigger).
    pub loss_grow: u64,
    /// Decision-window length in virtual time.
    pub window: Nanos,
    /// Windows to hold after any grow/cordon before acting again.
    pub cooldown_windows: u32,
}

impl NodeScaleConfig {
    /// A conservative default: scale between `min_nodes` and the
    /// provisioned count on 250 ms windows, grow on 20 ms p90 backlog
    /// or 3 observed losses, drain below 2 ms, one-window cooldown.
    pub fn balanced(min_nodes: usize) -> NodeScaleConfig {
        NodeScaleConfig {
            min_nodes,
            grow_depth_ms: 20,
            drain_depth_ms: 2,
            loss_grow: 3,
            window: Nanos::from_millis(250),
            cooldown_windows: 1,
        }
    }
}

/// Counters of one scaler fold. A cluster run folds the scaler once,
/// on the coordinator, and reports these counters as they stand after
/// the last backend-bound arrival.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScaleStats {
    /// Nodes activated under pressure.
    pub grows: u64,
    /// Drains started (node cordoned).
    pub drains_started: u64,
    /// Drains completed (cordoned node's backlog hit zero; node
    /// removed from the active set).
    pub drains_completed: u64,
    /// Drains cancelled by pressure before completing (node
    /// uncordoned).
    pub drain_cancels: u64,
    /// Placements redirected off a non-placeable (inactive or
    /// cordoned) node.
    pub redirects: u64,
    /// Decision windows evaluated.
    pub windows: u64,
    /// Largest active-node count reached.
    pub peak_active: usize,
    /// Smallest active-node count reached.
    pub min_active: usize,
    /// Active-node count when the fold ended.
    pub final_active: usize,
}

/// The autoscaler state machine. Construct once per fold and feed every
/// backend-bound arrival in trace order through [`NodeScaler::observe`].
#[derive(Clone, Debug)]
pub struct NodeScaler {
    cfg: NodeScaleConfig,
    /// Provisioned node count (the hard ceiling).
    total: usize,
    /// Nodes `0..active` receive placements (minus the cordoned one).
    active: usize,
    /// Node currently draining, if any (always `active - 1`).
    draining: Option<usize>,
    /// Modeled backlog per provisioned node, virtual ns.
    backlog: Vec<u64>,
    last_at: Nanos,
    window_end: Nanos,
    sketch: QuantileSketch,
    losses: u64,
    cooldown: u32,
    stats: ScaleStats,
}

impl NodeScaler {
    /// Scaler over `total` provisioned nodes, starting at
    /// `cfg.min_nodes` active, with the first decision window opening
    /// at `start`.
    pub fn new(cfg: NodeScaleConfig, total: usize, start: Nanos) -> NodeScaler {
        assert!(total > 0, "need at least one provisioned node");
        assert!(!cfg.window.is_zero(), "decision window must be positive");
        let active = cfg.min_nodes.clamp(1, total);
        NodeScaler {
            cfg,
            total,
            active,
            draining: None,
            backlog: vec![0; total],
            last_at: start,
            window_end: start + cfg.window,
            sketch: QuantileSketch::new(),
            losses: 0,
            cooldown: 0,
            stats: ScaleStats {
                peak_active: active,
                min_active: active,
                final_active: active,
                ..ScaleStats::default()
            },
        }
    }

    /// Folds one arrival: rolls any due decision windows, decays every
    /// node's backlog by the elapsed virtual time, charges `cost` to
    /// the arrival's base placement `target`, samples the target's
    /// depth, and counts `lost` (placed node down) observations.
    pub fn observe(&mut self, at: Nanos, target: usize, cost: Nanos, lost: bool) {
        while self.window_end <= at {
            self.decide();
            self.window_end += self.cfg.window;
        }
        let elapsed = at.saturating_sub(self.last_at).as_nanos();
        for b in self.backlog.iter_mut() {
            *b = b.saturating_sub(elapsed);
        }
        self.last_at = at;
        self.backlog[target] += cost.as_nanos();
        self.sketch.record(self.backlog[target] / 1_000_000);
        if lost {
            self.losses += 1;
        }
    }

    /// One window-boundary decision (see the module docs).
    fn decide(&mut self) {
        self.stats.windows += 1;
        // Complete a due drain first (so a cordon always lasts at least
        // one full window and is observable by the caller's fold).
        if let Some(d) = self.draining {
            if self.backlog[d] == 0 {
                // Cordoned node fully drained: remove it. `d` is always
                // `active - 1` (grows cancel the drain first).
                self.draining = None;
                self.active -= 1;
                self.stats.drains_completed += 1;
            }
        }
        let p90 = self.sketch.quantile(0.90);
        let pressured = (self.cfg.loss_grow > 0 && self.losses >= self.cfg.loss_grow)
            || p90 > self.cfg.grow_depth_ms;
        if pressured && self.cooldown == 0 {
            if self.draining.take().is_some() {
                // Uncordon before adding capacity: the draining node is
                // warm and already provisioned.
                self.stats.drain_cancels += 1;
            } else if self.active < self.total {
                self.active += 1;
                self.stats.grows += 1;
            }
            self.cooldown = self.cfg.cooldown_windows;
        } else if self.cooldown == 0
            && self.draining.is_none()
            && self.active > self.cfg.min_nodes.max(1)
            && p90 < self.cfg.drain_depth_ms
        {
            self.draining = Some(self.active - 1);
            self.stats.drains_started += 1;
            self.cooldown = self.cfg.cooldown_windows;
        }
        self.cooldown = self.cooldown.saturating_sub(1);
        self.losses = 0;
        self.sketch = QuantileSketch::new();
        self.stats.peak_active = self.stats.peak_active.max(self.active);
        self.stats.min_active = self.stats.min_active.min(self.active);
    }

    /// May `node` receive *new* placements right now? False for nodes
    /// beyond the active set and for the cordoned (draining) node.
    pub fn placeable(&self, node: usize) -> bool {
        node < self.active && Some(node) != self.draining
    }

    /// Current active-node count (the cordoned node still counts until
    /// its drain completes).
    pub fn active(&self) -> usize {
        self.active
    }

    /// The cordoned node, if a drain is in progress.
    pub fn draining(&self) -> Option<usize> {
        self.draining
    }

    /// Records a placement redirected off a non-placeable node.
    pub fn note_redirect(&mut self) {
        self.stats.redirects += 1;
    }

    /// Counters so far, with `final_active` filled from the live state.
    pub fn stats(&self) -> ScaleStats {
        ScaleStats {
            final_active: self.active,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NodeScaleConfig {
        NodeScaleConfig {
            min_nodes: 2,
            grow_depth_ms: 10,
            drain_depth_ms: 2,
            loss_grow: 3,
            window: Nanos::from_millis(100),
            cooldown_windows: 0,
        }
    }

    #[test]
    fn grows_under_queue_pressure_up_to_the_provisioned_ceiling() {
        let mut s = NodeScaler::new(cfg(), 4, Nanos::ZERO);
        assert_eq!(s.active(), 2);
        // Hammer node 0 with far more work than time passes.
        for i in 0..400u64 {
            s.observe(Nanos::from_millis(i), 0, Nanos::from_millis(50), false);
        }
        assert_eq!(s.active(), 4, "pressure must reach the ceiling");
        assert!(s.stats().grows >= 2);
        assert!(s.placeable(3));
    }

    #[test]
    fn losses_alone_force_growth() {
        let mut s = NodeScaler::new(cfg(), 3, Nanos::ZERO);
        for i in 0..200u64 {
            // Tiny cost (no queue pressure), but every arrival lost.
            s.observe(Nanos::from_millis(i * 3), 0, Nanos::from_micros(10), true);
        }
        assert!(s.stats().grows >= 1, "loss trigger must fire");
        assert_eq!(s.active(), 3);
    }

    #[test]
    fn quiet_windows_cordon_then_remove_the_top_node() {
        let mut s = NodeScaler::new(cfg(), 4, Nanos::ZERO);
        // Grow to 4 first.
        for i in 0..400u64 {
            s.observe(Nanos::from_millis(i), 0, Nanos::from_millis(50), false);
        }
        assert_eq!(s.active(), 4);
        // Then go quiet: sparse, cheap arrivals let backlogs decay.
        let mut t = Nanos::from_millis(400);
        let mut cordoned_seen = false;
        for _ in 0..400u64 {
            t += Nanos::from_millis(20);
            s.observe(t, 1, Nanos::from_micros(100), false);
            if let Some(d) = s.draining() {
                cordoned_seen = true;
                assert!(!s.placeable(d), "cordoned node takes no placements");
            }
        }
        assert!(cordoned_seen, "a drain must have been in progress");
        assert_eq!(s.active(), 2, "drains back to min_nodes");
        assert!(s.stats().drains_completed >= 2);
        assert_eq!(s.stats().min_active, 2);
        assert_eq!(s.stats().peak_active, 4);
    }

    #[test]
    fn fold_is_a_pure_function_of_the_observation_sequence() {
        let run = || {
            let mut s = NodeScaler::new(cfg(), 5, Nanos::ZERO);
            for i in 0..1_000u64 {
                let at = Nanos::from_micros(i * 700);
                let target = (i % 5) as usize;
                let cost = Nanos::from_micros(200 + (i * 37) % 9_000);
                s.observe(at, target, cost, i % 41 == 0);
            }
            (format!("{:?}", s.stats()), s.active(), s.draining())
        };
        assert_eq!(run(), run(), "same fold, same decisions");
    }

    #[test]
    fn never_drains_below_min_and_never_grows_past_total() {
        let mut s = NodeScaler::new(cfg(), 2, Nanos::ZERO);
        // min_nodes == total: the scaler can never move.
        for i in 0..300u64 {
            s.observe(Nanos::from_millis(i * 7), 0, Nanos::from_millis(40), true);
        }
        assert_eq!(s.active(), 2);
        assert_eq!(s.stats().grows, 0);
        assert_eq!(s.stats().drains_started, 0);
    }
}
