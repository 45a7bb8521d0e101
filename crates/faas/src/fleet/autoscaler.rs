//! Queue-depth-driven pool autoscaling.
//!
//! Cold starts cost hundreds of milliseconds (Fig. 1), so the
//! autoscaler trades them against queueing: it grows the pool when
//! admission queues back up and retires containers that have idled for
//! a sustained window. Decisions are taken at scheduling events on the
//! virtual timeline, separated by a cooldown so one burst triggers one
//! scale step, not a stampede.

use gh_isolation::StrategyError;
use gh_sim::Nanos;

use super::pool::Pool;

/// Autoscaler tuning.
#[derive(Clone, Copy, Debug)]
pub struct AutoscaleConfig {
    /// Never shrink below this many active containers.
    pub min_size: usize,
    /// Never grow beyond this many active containers.
    pub max_size: usize,
    /// Grow when mean queued requests per active container exceeds this.
    pub scale_up_depth: f64,
    /// Retire a container that has been idle (clean, empty queue) this
    /// long while the pool also shows no queueing.
    pub idle_retire: Nanos,
    /// Minimum virtual time between scale actions.
    pub cooldown: Nanos,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_size: 1,
            max_size: 8,
            scale_up_depth: 2.0,
            idle_retire: Nanos::from_secs(5),
            cooldown: Nanos::from_millis(500),
        }
    }
}

/// A decision the fleet applies to the pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleAction {
    /// Cold-start one more container.
    Grow,
    /// Retire the given slot.
    Retire(usize),
}

/// The autoscaler's state between observations.
#[derive(Clone, Debug)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    last_action: Nanos,
    /// Containers spawned over the run.
    pub grown: usize,
    /// Containers retired over the run.
    pub retired: usize,
}

impl Autoscaler {
    /// Creates an autoscaler. `min_size` is clamped to at least one
    /// container — a pool scaled to zero could never serve the arrival
    /// that would tell it to grow again.
    pub fn new(mut cfg: AutoscaleConfig) -> Autoscaler {
        cfg.min_size = cfg.min_size.max(1);
        cfg.max_size = cfg.max_size.max(cfg.min_size);
        Autoscaler {
            cfg,
            last_action: Nanos::ZERO,
            grown: 0,
            retired: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// Observes the pool at a scheduling event, with `queued` requests
    /// waiting across its admission queues (the dispatch kernel's
    /// count), and proposes at most one action. The caller applies it
    /// (and only then is the cooldown considered spent).
    pub fn observe(&mut self, now: Nanos, pool: &Pool, queued: usize) -> Option<ScaleAction> {
        if now < self.last_action + self.cfg.cooldown {
            return None;
        }
        let active = pool.active();
        let depth = queued as f64 / active.max(1) as f64;
        if depth > self.cfg.scale_up_depth && active < self.cfg.max_size {
            return Some(ScaleAction::Grow);
        }
        if queued == 0 && active > self.cfg.min_size {
            // Retire the longest-idle clean container, if any has idled
            // past the window.
            let candidate = pool
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    !s.retired && s.queue.is_empty() && s.ready_at + self.cfg.idle_retire <= now
                })
                .min_by_key(|(_, s)| s.ready_at)
                .map(|(i, _)| i);
            if let Some(idx) = candidate {
                return Some(ScaleAction::Retire(idx));
            }
        }
        None
    }

    /// One observation at a scheduling event, applied to `pool` — the
    /// step the gateway's gate takes, passing the kernel's `queued`
    /// count. Returns the grown slot and its readiness time, which the
    /// kernel announces as a `Grown` edge.
    pub(crate) fn step(
        &mut self,
        now: Nanos,
        pool: &mut Pool,
        queued: usize,
    ) -> Result<Option<(usize, Nanos)>, StrategyError> {
        let Some(action) = self.observe(now, pool, queued) else {
            return Ok(None);
        };
        let grown = match action {
            ScaleAction::Grow => Some(pool.grow(now)?),
            ScaleAction::Retire(idx) => {
                pool.retire(idx);
                None
            }
        };
        self.applied(now, action);
        Ok(grown)
    }

    /// Records that the proposed action was applied at `now`.
    pub fn applied(&mut self, now: Nanos, action: ScaleAction) {
        self.last_action = now;
        match action {
            ScaleAction::Grow => self.grown += 1,
            ScaleAction::Retire(_) => self.retired += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::pool::Pool;
    use crate::fleet::queue::Pending;
    use gh_functions::catalog::by_name;
    use gh_isolation::StrategyKind;
    use groundhog_core::GroundhogConfig;

    fn pool(size: usize) -> Pool {
        let spec = by_name("fannkuch (p)").unwrap();
        Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), size, 3).unwrap()
    }

    fn backlog(p: &mut Pool, idx: usize, n: usize) {
        for i in 0..n {
            p.slots[idx].queue.push(Pending {
                id: i as u64 + 1,
                principal: "a".into(),
                input_kb: 1,
                arrival: Nanos::ZERO,
                payload_hash: 0,
                idempotent: false,
                attempt: 1,
            });
        }
    }

    #[test]
    fn grows_on_queue_backlog() {
        let mut p = pool(2);
        backlog(&mut p, 0, 6);
        let mut a = Autoscaler::new(AutoscaleConfig::default());
        let now = Nanos::from_secs(1);
        assert_eq!(a.observe(now, &p, p.queued()), Some(ScaleAction::Grow));
        a.applied(now, ScaleAction::Grow);
        assert_eq!(a.grown, 1);
    }

    #[test]
    fn respects_max_size_and_cooldown() {
        let mut p = pool(2);
        backlog(&mut p, 0, 10);
        let cfg = AutoscaleConfig {
            max_size: 2,
            ..AutoscaleConfig::default()
        };
        let mut a = Autoscaler::new(cfg);
        assert_eq!(
            a.observe(Nanos::from_secs(1), &p, p.queued()),
            None,
            "at max"
        );

        let cfg = AutoscaleConfig {
            max_size: 4,
            ..AutoscaleConfig::default()
        };
        let mut a = Autoscaler::new(cfg);
        let now = Nanos::from_secs(1);
        assert_eq!(a.observe(now, &p, p.queued()), Some(ScaleAction::Grow));
        a.applied(now, ScaleAction::Grow);
        assert_eq!(
            a.observe(now + Nanos::from_millis(100), &p, p.queued()),
            None,
            "cooling down"
        );
        assert!(
            a.observe(now + Nanos::from_secs(1), &p, p.queued())
                .is_some(),
            "cooldown over"
        );
    }

    #[test]
    fn retires_longest_idle_when_quiet() {
        let p = pool(3);
        let mut a = Autoscaler::new(AutoscaleConfig::default());
        // All slots clean since cold start; far past the idle window.
        let now = Nanos::from_secs(60);
        let action = a.observe(now, &p, p.queued()).expect("retire proposed");
        // Slot with the earliest ready_at (fastest cold start) goes first.
        let earliest = (0..3).min_by_key(|&i| p.slots[i].ready_at).unwrap();
        assert_eq!(action, ScaleAction::Retire(earliest));
    }

    #[test]
    fn min_size_zero_clamps_to_one() {
        // A pool scaled to zero could never serve again; the config is
        // clamped so the last container is never retired.
        let p = pool(1);
        let cfg = AutoscaleConfig {
            min_size: 0,
            ..AutoscaleConfig::default()
        };
        let mut a = Autoscaler::new(cfg);
        assert_eq!(a.config().min_size, 1);
        assert_eq!(a.observe(Nanos::from_secs(60), &p, p.queued()), None);
    }

    #[test]
    fn never_shrinks_below_min() {
        let p = pool(1);
        let mut a = Autoscaler::new(AutoscaleConfig::default());
        assert_eq!(a.observe(Nanos::from_secs(60), &p, p.queued()), None);
    }

    #[test]
    fn no_retire_before_idle_window() {
        let p = pool(2);
        let mut a = Autoscaler::new(AutoscaleConfig::default());
        let now = p.slots[0].ready_at + Nanos::from_millis(10);
        assert_eq!(
            a.observe(now, &p, p.queued()),
            None,
            "idle window not reached"
        );
    }
}
