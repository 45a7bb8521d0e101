//! The router: assigns each arriving request to one container.
//!
//! The policy is the knob the paper's fleet-level claim turns on: a
//! restore-*unaware* router cannot tell a clean idle container from one
//! still restoring (the restore is off the critical path and invisible
//! in response traffic), so near saturation it parks requests behind
//! restores while clean capacity idles. [`RoutePolicy::RestoreAware`]
//! consumes the readiness events the containers expose
//! ([`Slot::ready_at`], [`Container::is_ready`]) and routes around
//! in-progress restores.
//!
//! [`Container::is_ready`]: crate::container::Container::is_ready

use gh_sim::Nanos;

use super::pool::Slot;

/// Pluggable request-routing policies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum RoutePolicy {
    /// Cycle through containers regardless of state.
    RoundRobin,
    /// Pick the container with the fewest visible requests (queued + in
    /// flight). Restore-unaware: a restoring container looks idle.
    LeastLoaded,
    /// Groundhog-specific: among the least-loaded containers, prefer one
    /// that is provably clean *now*, else the one whose restore
    /// completes earliest — restores hide across the pool even near
    /// saturation. In §4.4's deferred-restore mode it additionally
    /// prefers containers whose last request came from the same
    /// principal, keeping rollbacks off the critical path entirely.
    RestoreAware,
}

impl RoutePolicy {
    /// Paper-style label for tables and CSV.
    pub fn label(self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::LeastLoaded => "least-loaded",
            RoutePolicy::RestoreAware => "restore-aware",
        }
    }

    /// All policies, in ascending order of information used.
    pub const ALL: [RoutePolicy; 3] = [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastLoaded,
        RoutePolicy::RestoreAware,
    ];
}

/// Routing state (the round-robin cursor survives across requests).
#[derive(Clone, Debug)]
pub struct Router {
    policy: RoutePolicy,
    cursor: usize,
}

impl Router {
    /// Creates a router with the given policy.
    pub fn new(policy: RoutePolicy) -> Router {
        Router { policy, cursor: 0 }
    }

    /// The policy in effect.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// Picks the slot index for a request from `principal` arriving at
    /// `now`. `restore_cost` is the expected critical-path rollback a
    /// restore-aware router charges to slots that cannot admit this
    /// principal without restoring first (§4.4's deferred-restore mode;
    /// zero-cost for strategies that restore eagerly off-path).
    ///
    /// # Panics
    ///
    /// Panics if every slot is retired.
    pub fn route(
        &mut self,
        now: Nanos,
        principal: &str,
        restore_cost: Nanos,
        slots: &[Slot],
    ) -> usize {
        self.route_avoiding(now, principal, restore_cost, slots, None)
    }

    /// [`Router::route`], excluding `avoid` from the candidates — the
    /// fault layer's retry-on-other-container policy re-routes a killed
    /// request away from the container that just died. When `avoid` is
    /// the only active slot it is used anyway (a pool of one has
    /// nowhere else to go).
    pub fn route_avoiding(
        &mut self,
        now: Nanos,
        principal: &str,
        restore_cost: Nanos,
        slots: &[Slot],
        avoid: Option<usize>,
    ) -> usize {
        // Candidates are the active slots in index order, without
        // `avoid` when another active slot remains. They are iterated,
        // not collected: routing allocates nothing.
        let active = |i: &usize| !slots[*i].retired;
        let two_active = || (0..slots.len()).filter(active).nth(1).is_some();
        let skip = avoid.filter(|&a| a < slots.len() && active(&a) && two_active());
        let mut candidates = (0..slots.len()).filter(|i| active(i) && Some(*i) != skip);
        let pick = match self.policy {
            RoutePolicy::RoundRobin => {
                let n = candidates.clone().count();
                let pick = (n > 0).then(|| candidates.nth(self.cursor % n)).flatten();
                self.cursor = self.cursor.wrapping_add(1);
                pick
            }
            RoutePolicy::LeastLoaded => candidates.min_by_key(|&i| slots[i].visible_load(now)),
            RoutePolicy::RestoreAware => candidates
                // Lexicographic: fewest waiting requests first, then the
                // lowest predicted delay — the wait until the slot is
                // provably clean (a clean idle slot waits zero, beating
                // any restoring slot) plus the critical-path rollback
                // this principal would trigger on that slot.
                .min_by_key(|&i| {
                    let s = &slots[i];
                    let wait = s.ready_at.max(now) - now;
                    let penalty = if s.container.admits_without_restore(principal) {
                        Nanos::ZERO
                    } else {
                        restore_cost
                    };
                    (s.queue.len(), wait + penalty)
                }),
        };
        pick.expect("routing with no active containers")
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
        Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), size, 7).unwrap()
    }

    /// The time every slot in the pool is warm (the fleet's span start).
    fn warm(p: &Pool) -> Nanos {
        p.slots.iter().map(|s| s.ready_at).max().unwrap()
    }

    fn start_one(p: &mut Pool, idx: usize, at: Nanos) -> (Nanos, Nanos) {
        p.slots[idx].queue.push(Pending {
            id: 1,
            principal: "a".into(),
            input_kb: 1,
            arrival: at,
            payload_hash: 0,
            idempotent: false,
            attempt: 1,
        });
        let d = p.slots[idx].dispatch(at).unwrap().unwrap();
        (d.resp_at, d.ready_at)
    }

    #[test]
    fn round_robin_cycles() {
        let p = pool(3);
        let mut r = Router::new(RoutePolicy::RoundRobin);
        let now = Nanos::ZERO;
        let picks: Vec<usize> = (0..6)
            .map(|_| r.route(now, "a", Nanos::ZERO, &p.slots))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_retired() {
        let mut p = pool(3);
        p.retire(1);
        let mut r = Router::new(RoutePolicy::RoundRobin);
        let picks: Vec<usize> = (0..4)
            .map(|_| r.route(Nanos::ZERO, "a", Nanos::ZERO, &p.slots))
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn least_loaded_is_blind_to_restores() {
        let mut p = pool(2);
        let t0 = warm(&p);
        let (resp, ready) = start_one(&mut p, 0, t0);
        // Mid-restore: slot 0's response is gone, restore still running.
        let mid = resp + (ready - resp) / 2;
        assert_eq!(p.slots[0].visible_load(mid), 0, "restore invisible");
        // Both slots look idle; least-loaded ties break to slot 0 even
        // though it cannot admit until `ready`.
        let mut r = Router::new(RoutePolicy::LeastLoaded);
        assert_eq!(r.route(mid, "a", Nanos::ZERO, &p.slots), 0);
    }

    #[test]
    fn restore_aware_routes_around_restores() {
        let mut p = pool(2);
        let t0 = warm(&p);
        let (resp, ready) = start_one(&mut p, 0, t0);
        let mid = resp + (ready - resp) / 2;
        let mut r = Router::new(RoutePolicy::RestoreAware);
        assert_eq!(
            r.route(mid, "a", Nanos::ZERO, &p.slots),
            1,
            "slot 1 is provably clean now"
        );
        // Once slot 0's restore completes, both are clean; fewest-queued
        // then earliest-ready ties resolve to slot 0.
        assert_eq!(r.route(ready, "a", Nanos::ZERO, &p.slots), 0);
    }

    #[test]
    fn restore_aware_prefers_shortest_wait_when_all_busy() {
        let mut p = pool(2);
        let t0 = warm(&p);
        let (_, ready0) = start_one(&mut p, 0, t0);
        let (_, ready1) = start_one(&mut p, 1, t0 + Nanos::from_micros(50));
        let (first, later) = if ready0 <= ready1 { (0, 1) } else { (1, 0) };
        let ready_first = ready0.min(ready1);
        // Both slots mid-restore: the earlier restore completion wins.
        let now = ready_first - Nanos::from_micros(1);
        assert!(!p.slots[first].idle_at(now) && !p.slots[later].idle_at(now));
        let mut r = Router::new(RoutePolicy::RestoreAware);
        assert_eq!(
            r.route(now, "a", Nanos::ZERO, &p.slots),
            first,
            "earliest restore completion wins"
        );
    }

    #[test]
    fn restore_aware_honours_principal_affinity_in_skip_mode() {
        // Deferred restores (§4.4): after serving alice, a slot admits
        // alice again without any rollback, but admitting bob triggers a
        // critical-path restore. The router must cluster principals.
        let spec = by_name("fannkuch (p)").unwrap();
        let gh = GroundhogConfig {
            skip_same_principal: true,
            ..GroundhogConfig::gh()
        };
        let mut p = Pool::build(&spec, StrategyKind::Gh, gh, 2, 7).unwrap();
        let t0 = warm(&p);
        // Slot 0 serves alice; slot 1 serves bob.
        for (idx, who) in [(0usize, "alice"), (1usize, "bob")] {
            p.slots[idx].queue.push(Pending {
                id: idx as u64 + 1,
                principal: who.into(),
                input_kb: 1,
                arrival: t0,
                payload_hash: 0,
                idempotent: false,
                attempt: 1,
            });
            p.slots[idx].dispatch(t0).unwrap().unwrap();
        }
        let both_done = p.slots.iter().map(|s| s.ready_at).max().unwrap();
        assert!(p.slots[0].container.admits_without_restore("alice"));
        assert!(!p.slots[0].container.admits_without_restore("bob"));
        let cost = Nanos::from_millis(3);
        let mut r = Router::new(RoutePolicy::RestoreAware);
        assert_eq!(r.route(both_done, "alice", cost, &p.slots), 0);
        assert_eq!(r.route(both_done, "bob", cost, &p.slots), 1);
        // A restore-blind round-robin ignores affinity entirely.
        let mut rr = Router::new(RoutePolicy::RoundRobin);
        assert_eq!(rr.route(both_done, "bob", cost, &p.slots), 0);
    }

    #[test]
    fn route_avoiding_skips_the_faulted_slot() {
        let p = pool(3);
        let mut r = Router::new(RoutePolicy::LeastLoaded);
        // Least-loaded on an idle pool picks slot 0; avoiding 0 moves on.
        assert_eq!(r.route(Nanos::ZERO, "a", Nanos::ZERO, &p.slots), 0);
        assert_eq!(
            r.route_avoiding(Nanos::ZERO, "a", Nanos::ZERO, &p.slots, Some(0)),
            1
        );
    }

    #[test]
    fn route_avoiding_falls_back_on_a_pool_of_one() {
        let p = pool(1);
        let mut r = Router::new(RoutePolicy::RoundRobin);
        assert_eq!(
            r.route_avoiding(Nanos::ZERO, "a", Nanos::ZERO, &p.slots, Some(0)),
            0,
            "nowhere else to go"
        );
    }

    /// Reference for [`Router::route_avoiding`]: the candidates collected
    /// into a `Vec`, then picked from. Advances `cursor` as the router
    /// advances its own.
    fn vec_route(
        policy: RoutePolicy,
        cursor: &mut usize,
        now: Nanos,
        principal: &str,
        restore_cost: Nanos,
        slots: &[Slot],
        avoid: Option<usize>,
    ) -> usize {
        let mut candidates: Vec<usize> = (0..slots.len()).filter(|&i| !slots[i].retired).collect();
        if let Some(a) = avoid {
            if candidates.len() > 1 {
                candidates.retain(|&i| i != a);
            }
        }
        assert!(!candidates.is_empty(), "routing with no active containers");
        match policy {
            RoutePolicy::RoundRobin => {
                let pick = candidates[*cursor % candidates.len()];
                *cursor = cursor.wrapping_add(1);
                pick
            }
            RoutePolicy::LeastLoaded => candidates
                .into_iter()
                .min_by_key(|&i| slots[i].visible_load(now))
                .expect("non-empty"),
            RoutePolicy::RestoreAware => candidates
                .into_iter()
                .min_by_key(|&i| {
                    let s = &slots[i];
                    let wait = s.ready_at.max(now) - now;
                    let penalty = if s.container.admits_without_restore(principal) {
                        Nanos::ZERO
                    } else {
                        restore_cost
                    };
                    (s.queue.len(), wait + penalty)
                })
                .expect("non-empty"),
        }
    }

    #[test]
    fn iterated_candidates_match_the_collected_ones() {
        // Skip mode makes the restore-aware penalty depend on who the
        // slot served last, so every term of its key varies.
        let spec = by_name("fannkuch (p)").unwrap();
        let gh = GroundhogConfig {
            skip_same_principal: true,
            ..GroundhogConfig::gh()
        };
        let mut p = Pool::build(&spec, StrategyKind::Gh, gh, 5, 7).unwrap();
        let t0 = warm(&p);
        // Uneven state: staggered starts, two principals, and queues of
        // different lengths behind them.
        for (i, who) in ["a", "b", "a", "b"].into_iter().enumerate() {
            let at = t0 + Nanos::from_micros(300 * i as u64);
            for id in 0..=i % 3 {
                p.slots[i].queue.push(Pending {
                    id: id as u64 + 1,
                    principal: who.into(),
                    input_kb: 1,
                    arrival: at,
                    payload_hash: 0,
                    idempotent: false,
                    attempt: 1,
                });
            }
            p.slots[i].dispatch(at).unwrap().unwrap();
        }
        let horizon = p.slots.iter().map(|s| s.ready_at).max().unwrap();
        let mut rng = gh_sim::DetRng::new(11);
        for policy in RoutePolicy::ALL {
            let mut r = Router::new(policy);
            let mut cursor = 0usize;
            for step in 0..400 {
                let mask = rng.next_below(1 << p.slots.len());
                for (i, s) in p.slots.iter_mut().enumerate() {
                    s.retired = mask & (1 << i) != 0;
                }
                if p.active() == 0 {
                    continue;
                }
                let avoid = match rng.next_below(4) {
                    0 => None,
                    _ => Some(rng.next_below(p.slots.len() as u64 + 1) as usize),
                };
                let now = t0 + Nanos::from_nanos(rng.next_below((horizon - t0).as_nanos() + 1));
                let who = if rng.next_below(2) == 0 { "a" } else { "b" };
                let cost = Nanos::from_millis(rng.next_below(4));
                let want = vec_route(policy, &mut cursor, now, who, cost, &p.slots, avoid);
                let got = r.route_avoiding(now, who, cost, &p.slots, avoid);
                assert_eq!(
                    got, want,
                    "{policy:?} step {step}: mask {mask:05b} avoid {avoid:?}"
                );
                assert_eq!(r.cursor, cursor, "{policy:?} step {step}: cursor");
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(RoutePolicy::RoundRobin.label(), "round-robin");
        assert_eq!(RoutePolicy::LeastLoaded.label(), "least-loaded");
        assert_eq!(RoutePolicy::RestoreAware.label(), "restore-aware");
        assert_eq!(RoutePolicy::ALL.len(), 3);
    }
}
