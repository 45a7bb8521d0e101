//! Cluster-level placement: which node serves which request.
//!
//! Deployment is static and seed-derived: function `f`'s *home* node is
//! a deterministic hash of `(seed, f)`, and its `replicas` candidate
//! nodes are `home, home+1, …` (mod `nodes`). The [`Placer`] then picks
//! among a function's candidates per request, using **only
//! coordinator-visible deterministic state** (its own cursors and
//! accumulated expected work — never node-internal progress). That
//! restriction is what makes cluster runs embarrassingly parallel:
//! placement is a pure function of the trace prefix, so the coordinator
//! places the whole trace once, up front, and each node then runs on
//! its own arrival list with no cross-node communication (see
//! [`super`]).

use gh_functions::FunctionSpec;
use gh_sim::{mix, Nanos};

/// How the cluster front-end picks among a function's replica nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacePolicy {
    /// Rotate through the function's replicas, per function.
    RoundRobin,
    /// The replica with the least accumulated *expected* work (each
    /// assignment charges the function's base compute time); ties go to
    /// the lowest replica index.
    LeastLoaded,
    /// Always the home replica: maximal per-node locality, worst
    /// balance under skew.
    FunctionAffinity,
}

impl PlacePolicy {
    /// Display/CSV label.
    pub fn label(self) -> &'static str {
        match self {
            PlacePolicy::RoundRobin => "round-robin",
            PlacePolicy::LeastLoaded => "least-loaded",
            PlacePolicy::FunctionAffinity => "fn-affinity",
        }
    }

    /// Every policy, for sweeps.
    pub const ALL: [PlacePolicy; 3] = [
        PlacePolicy::RoundRobin,
        PlacePolicy::LeastLoaded,
        PlacePolicy::FunctionAffinity,
    ];
}

/// The deterministic placement state machine. Step it once per trace
/// event, in global trace order.
pub struct Placer {
    policy: PlacePolicy,
    nodes: usize,
    replicas: usize,
    /// Home node per function.
    homes: Vec<u32>,
    /// Per-function round-robin cursor.
    cursors: Vec<u32>,
    /// Per-node accumulated expected work, ns (LeastLoaded).
    load: Vec<u64>,
    /// Per-function expected cost, ns (LeastLoaded's charge).
    cost: Vec<u64>,
}

impl Placer {
    /// Builds placement state for `catalog` over `nodes` nodes with
    /// `replicas` candidates per function.
    pub fn new(
        policy: PlacePolicy,
        nodes: usize,
        replicas: usize,
        catalog: &[FunctionSpec],
        seed: u64,
    ) -> Placer {
        assert!(nodes > 0, "need at least one node");
        assert!(
            (1..=nodes).contains(&replicas),
            "replicas must be in 1..=nodes"
        );
        let homes = (0..catalog.len())
            .map(|f| (mix(seed ^ 0xC10C_0DE0 ^ ((f as u64) << 1)) % nodes as u64) as u32)
            .collect();
        let cost = catalog
            .iter()
            .map(|s| Nanos::from_millis_f64(s.base_invoker_ms).as_nanos())
            .collect();
        Placer {
            policy,
            nodes,
            replicas,
            homes,
            cursors: vec![0; catalog.len()],
            load: vec![0; nodes],
            cost,
        }
    }

    /// The `k`-th replica node of function `f`.
    fn replica(&self, f: usize, k: usize) -> usize {
        (self.homes[f] as usize + k) % self.nodes
    }

    /// The function's candidate nodes in deterministic failover order
    /// (home replica first). The fault layer walks this list when the
    /// placed node is inside an outage window; because the order is a
    /// pure function of the deployment hash, the failover decision is
    /// too, and the coordinator makes it inside the trace fold.
    pub fn candidates(&self, f: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.replicas).map(move |k| self.replica(f, k))
    }

    /// True when `node` is a candidate for any request to `f` — the
    /// node-local pool-construction predicate.
    pub fn hosts(&self, node: usize, f: usize) -> bool {
        let home = self.homes[f] as usize;
        // Candidate nodes are home..home+replicas (mod nodes).
        (node + self.nodes - home) % self.nodes < self.replicas
    }

    /// Places the next request to `f`; advances the policy state.
    pub fn place(&mut self, f: usize) -> usize {
        match self.policy {
            PlacePolicy::FunctionAffinity => self.replica(f, 0),
            PlacePolicy::RoundRobin => {
                let k = self.cursors[f] as usize % self.replicas;
                self.cursors[f] = self.cursors[f].wrapping_add(1);
                self.replica(f, k)
            }
            PlacePolicy::LeastLoaded => {
                let node = (0..self.replicas)
                    .map(|k| self.replica(f, k))
                    .min_by_key(|&n| self.load[n])
                    .expect("replicas >= 1");
                self.load[node] += self.cost[f];
                node
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::synthetic_catalog;

    fn placer(policy: PlacePolicy, nodes: usize, replicas: usize) -> Placer {
        let cat = synthetic_catalog(16, 3);
        Placer::new(policy, nodes, replicas, &cat, 99)
    }

    #[test]
    fn placements_stay_on_replicas() {
        for policy in PlacePolicy::ALL {
            let mut p = placer(policy, 5, 2);
            for f in 0..16 {
                for _ in 0..10 {
                    let n = p.place(f);
                    assert!(n < 5);
                    assert!(p.hosts(n, f), "{policy:?} placed f{f} off-replica");
                }
            }
        }
    }

    #[test]
    fn round_robin_rotates_replicas() {
        let mut p = placer(PlacePolicy::RoundRobin, 4, 2);
        let seen: std::collections::BTreeSet<usize> = (0..4).map(|_| p.place(0)).collect();
        assert_eq!(seen.len(), 2, "both replicas used");
    }

    #[test]
    fn affinity_pins_to_one_node() {
        let mut p = placer(PlacePolicy::FunctionAffinity, 4, 3);
        let first = p.place(7);
        assert!((0..50).all(|_| p.place(7) == first));
    }

    #[test]
    fn least_loaded_balances_expected_work() {
        // One function, 2 replicas: assignments must alternate (every
        // charge makes the other replica the lighter one).
        let cat = synthetic_catalog(1, 3);
        let mut p = Placer::new(PlacePolicy::LeastLoaded, 4, 2, &cat, 99);
        let a = p.place(0);
        let b = p.place(0);
        assert_ne!(a, b);
        assert_eq!(p.place(0), a);
        assert_eq!(p.place(0), b);
    }

    #[test]
    fn hosts_matches_replica_enumeration() {
        let p = placer(PlacePolicy::RoundRobin, 6, 3);
        for f in 0..16 {
            let hosted: Vec<usize> = (0..6).filter(|&n| p.hosts(n, f)).collect();
            assert_eq!(hosted.len(), 3);
            for k in 0..3 {
                assert!(hosted.contains(&p.replica(f, k)));
            }
        }
    }

    #[test]
    fn candidates_enumerate_replicas_home_first() {
        let p = placer(PlacePolicy::RoundRobin, 6, 3);
        for f in 0..16 {
            let c: Vec<usize> = p.candidates(f).collect();
            assert_eq!(c.len(), 3);
            assert_eq!(c[0], p.replica(f, 0), "home replica leads");
            assert!(c.iter().all(|&n| p.hosts(n, f)));
        }
    }

    #[test]
    fn single_node_hosts_everything() {
        let mut p = placer(PlacePolicy::LeastLoaded, 1, 1);
        for f in 0..16 {
            assert!(p.hosts(0, f));
            assert_eq!(p.place(f), 0);
        }
    }
}
