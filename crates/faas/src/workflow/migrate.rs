//! Cross-node workflow migration: in-flight DAG hops re-dispatched
//! along [`Placer`] replica order when their node is lost.
//!
//! [`super::dag`] proves hop-level crash recovery on one node with real
//! containers; this module lifts the same commit discipline to a
//! *cluster* of virtual-time nodes so node loss — not just container
//! death — is survivable. The key property being modeled: a migrated
//! hop carries **only the workflow's KV state** (its pinned snapshot
//! version and the durable hop commits), never container memory. Hop
//! values are pure functions of `(workflow, hop path, upstream value)`
//! (`dag::hop_value`), so any replica can re-derive a lost
//! hop bit-for-bit from the KV alone; container state is disposable by
//! construction (Groundhog rolls it back after every request anyway).
//!
//! The simulator is a single deterministic event loop
//! ([`gh_sim::event::EventQueue`]) over a Poisson workflow stream
//! ([`crate::trace::dag_workload`]), with per-instance DAG shapes from
//! [`super::dag::random_dag_spec`]. Hops cost their function's
//! `base_e2e_ms` in virtual time; fan-out branches run concurrently;
//! joins fire when the last branch commits. Faults come from the same
//! pure [`FaultPlan`] streams as everywhere else, so a fault-disabled
//! run is byte-identical to a plain run and repeats are bit-identical.
//!
//! **The migration ledger** ([`crate::fault::FaultStats`]):
//!
//! - `orphaned_hops` — hops whose executing node was down at
//!   completion time (the response is lost with the node);
//! - `migrations` — orphaned hops re-dispatched to a *different* node
//!   (the next up replica in [`Placer::candidates`] order) when
//!   [`MigrateConfig::migrate`] is on; with it off, retries wait out
//!   the outage in place;
//! - `duplicate_commits_absorbed` — orphaned hops whose commit had
//!   already landed before the node vanished: the re-dispatched
//!   execution re-commits, idempotence suppresses it, and the ledger
//!   proves it (`kv.duplicates_suppressed == faults.duplicates +
//!   faults.duplicate_commits_absorbed`).
//!
//! Because every hop (the sink included) commits under a per-workflow
//! key, the final KV state is independent of commit *order*, and a
//! faulty run with zero abandonment converges to exactly the
//! crash-free fingerprint, outputs, and version count regardless of
//! how migration interleaved the timeline (`tests/dag_oracle.rs`).
//!
//! With [`MigrateConfig::autoscale`] set, the failure-aware
//! [`NodeScaler`] folds over hop dispatches: pressure grows the active
//! set, quiet windows cordon the top node (new hops redirect to other
//! replicas — `scale.redirects`) and remove it once drained.

use gh_functions::FunctionSpec;
use gh_sim::event::EventQueue;
use gh_sim::Nanos;

use crate::cluster::place::{PlacePolicy, Placer};
use crate::cluster::scale::{NodeScaleConfig, NodeScaler, ScaleStats};
use crate::fault::{FaultConfig, FaultPlan, FaultStats};
use crate::trace::dag_workload;

use super::dag::{dag_key, hop_path, hop_value, join_input, random_dag_spec, DagOp, DagSpec};
use super::{mix, VersionedKv};

/// Configuration of one migration run.
#[derive(Clone, Debug)]
pub struct MigrateConfig {
    /// Provisioned cluster nodes.
    pub nodes: usize,
    /// Replicas per function (`1..=nodes`): the candidate set a hop can
    /// execute — and migrate — across.
    pub replicas: usize,
    /// Workflow instances to run.
    pub workflows: u64,
    /// Poisson arrival rate of workflow instances, per second.
    pub arrival_rps: f64,
    /// Largest fan-out width the per-instance DAG shapes draw.
    pub max_width: u32,
    /// Seed for arrivals, shapes, and placement homes.
    pub seed: u64,
    /// Fault injection, if armed (inert configs are dropped).
    pub faults: Option<FaultConfig>,
    /// Re-dispatch orphaned hops to the next up replica (`true`) or
    /// retry them in place, waiting out the outage (`false`).
    pub migrate: bool,
    /// Failure-aware node autoscaling, if armed.
    pub autoscale: Option<NodeScaleConfig>,
}

impl MigrateConfig {
    /// `nodes` nodes, two replicas (one on a single node), migration
    /// on, no faults, no autoscaling.
    pub fn new(nodes: usize, workflows: u64, seed: u64) -> MigrateConfig {
        assert!(nodes > 0, "need at least one node");
        MigrateConfig {
            nodes,
            replicas: 2.min(nodes),
            workflows,
            arrival_rps: 200.0,
            max_width: 4,
            seed,
            faults: None,
            migrate: true,
            autoscale: None,
        }
    }

    /// Arms fault injection (inert configs are dropped, keeping the
    /// run byte-identical to the fault-free reference).
    pub fn with_faults(mut self, cfg: FaultConfig) -> MigrateConfig {
        self.faults = cfg.is_active().then_some(cfg);
        self
    }

    /// Arms the failure-aware autoscaler.
    pub fn with_autoscale(mut self, cfg: NodeScaleConfig) -> MigrateConfig {
        self.autoscale = Some(cfg);
        self
    }
}

/// What a migration run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrateResult {
    /// Workflow instances started.
    pub workflows: u64,
    /// Instances whose every hop committed.
    pub completed: u64,
    /// Sink output per workflow (`None` for abandoned instances).
    pub outputs: Vec<Option<u64>>,
    /// Fingerprint of the final KV state — commit-order independent
    /// (per-workflow keys), so faulty and crash-free runs agree.
    pub kv_fingerprint: u64,
    /// Total KV versions applied.
    pub kv_versions: u64,
    /// Re-commits absorbed by idempotence.
    pub duplicates_suppressed: u64,
    /// Hop executions dispatched, retries and migrations included.
    pub hops_executed: u64,
    /// Virtual time of the last commit, ms.
    pub span_ms: f64,
    /// Fault + migration ledger.
    pub faults: FaultStats,
    /// Autoscaler counters, when armed.
    pub scale: Option<ScaleStats>,
}

/// One hop execution in flight: workflow `w`, DAG node `node`, branch
/// `branch`, running on cluster node `exec`, attempt number, and
/// whether an earlier attempt's commit already landed (and if so,
/// whether it landed on a node that was then lost — the
/// `duplicate_commits_absorbed` attribution).
#[derive(Clone, Copy, Debug)]
struct Hop {
    w: usize,
    node: u32,
    branch: u32,
    exec: u32,
    attempt: u32,
    pre_committed: bool,
    orphan_commit: bool,
}

/// Events of the migration timeline.
enum MigEv {
    /// Workflow `w` arrives; dispatch its source hop.
    Start(usize),
    /// A hop execution reaches its nominal completion time.
    Done(Hop),
}

/// Per-workflow live state.
struct Wf {
    spec: DagSpec,
    input: u64,
    out: Vec<u64>,
    branches_left: u32,
    alive: bool,
}

/// The run's mutable spine, shared by the event handlers.
struct Sim<'a> {
    catalog: &'a [FunctionSpec],
    cfg: &'a MigrateConfig,
    placer: Placer,
    plan: Option<FaultPlan>,
    scaler: Option<NodeScaler>,
    kv: VersionedKv,
    faults: FaultStats,
    events: EventQueue<MigEv>,
    hops_executed: u64,
    span_end: Nanos,
}

impl Sim<'_> {
    /// Stable per-(workflow, hop path) fault id: the schedule must not
    /// depend on attempt counts or placement.
    fn fault_id(w: usize, path: u64) -> u64 {
        mix(w as u64 ^ 0x0DA6_0F17) ^ mix(path)
    }

    /// The value feeding DAG node `node` of workflow `w`: the workflow
    /// input at the source, the durable branch commits' merge at a
    /// join, the upstream node's output otherwise. Pure — recovery on
    /// any replica re-derives it from the KV alone.
    fn input_of(&self, wf: &Wf, w: usize, node: usize) -> u64 {
        match wf.spec.nodes[node].op {
            DagOp::Join { .. } => join_input(&wf.spec, &self.kv, w as u64, node),
            _ if node == 0 => wf.input,
            _ => wf.out[wf.spec.nodes[node].input],
        }
    }

    /// Picks the cluster node a hop executes on: replica candidates of
    /// its function, rotated by branch index (so fan-out branches
    /// spread), first up-and-placeable wins; falls back to any up
    /// replica, then to the rotation head. `avoid` excludes the lost
    /// node on a migration re-dispatch (when another replica is up).
    fn pick_node(&mut self, func: usize, branch: u32, at: Nanos, avoid: Option<usize>) -> usize {
        let cands: Vec<usize> = self.placer.candidates(func).collect();
        let rot = branch as usize % cands.len();
        let order = || (0..cands.len()).map(|i| cands[(i + rot) % cands.len()]);
        let up = |n: usize| {
            self.plan
                .as_ref()
                .map(|pl| !pl.node_down(n, at))
                .unwrap_or(true)
        };
        let preferred = order()
            .find(|&n| up(n) && Some(n) != avoid)
            .unwrap_or(cands[rot]);
        match &mut self.scaler {
            None => preferred,
            Some(s) => match order().find(|&n| up(n) && Some(n) != avoid && s.placeable(n)) {
                Some(c) => {
                    if c != preferred {
                        s.note_redirect();
                    }
                    c
                }
                None => preferred,
            },
        }
    }

    /// Dispatches one hop execution at `at` (attempt 1, no history).
    fn dispatch(&mut self, wf: &Wf, w: usize, node: usize, branch: u32, at: Nanos) {
        let upstream = self.input_of(wf, w, node);
        let func = wf.spec.hop_func(node, upstream);
        let cost = Nanos::from_millis_f64(self.catalog[func].base_e2e_ms);
        if let Some(s) = &mut self.scaler {
            let home = self
                .placer
                .candidates(func)
                .next()
                .expect("at least one replica");
            let lost = self
                .plan
                .as_ref()
                .map(|pl| pl.node_down(home, at))
                .unwrap_or(false);
            s.observe(at, home, cost, lost);
        }
        let exec = self.pick_node(func, branch, at, None);
        self.hops_executed += 1;
        self.events.schedule(
            at + cost,
            MigEv::Done(Hop {
                w,
                node: node as u32,
                branch,
                exec: exec as u32,
                attempt: 1,
                pre_committed: false,
                orphan_commit: false,
            }),
        );
    }

    /// Re-dispatches a faulted hop after its backoff. Migration (if
    /// enabled and the fault was a node loss) moves it to the next up
    /// replica and counts the move.
    fn redispatch(&mut self, wf: &Wf, hop: Hop, at: Nanos, node_lost: bool) {
        let node = hop.node as usize;
        let upstream = self.input_of(wf, hop.w, node);
        let func = wf.spec.hop_func(node, upstream);
        let cost = Nanos::from_millis_f64(self.catalog[func].base_e2e_ms);
        let pl = self.plan.as_ref().expect("redispatch implies faults");
        let start = at + pl.backoff(hop.attempt);
        let avoid = (node_lost && self.cfg.migrate).then_some(hop.exec as usize);
        let exec = if node_lost && !self.cfg.migrate {
            // Wait out the outage in place.
            hop.exec as usize
        } else {
            self.pick_node(func, hop.branch, start, avoid)
        };
        if node_lost && exec != hop.exec as usize {
            self.faults.migrations += 1;
        }
        self.hops_executed += 1;
        self.events.schedule(
            start + cost,
            MigEv::Done(Hop {
                exec: exec as u32,
                attempt: hop.attempt + 1,
                ..hop
            }),
        );
    }

    /// Applies a hop's idempotent commit, attributing a suppressed
    /// re-commit to the migration ledger when the first commit landed
    /// on a lost node.
    fn commit(&mut self, w: usize, path: u64, value: u64, orphan_commit: bool, at: Nanos) {
        if self
            .kv
            .commit(w as u64, path, dag_key(w as u64, path), value)
        {
            self.span_end = self.span_end.max(at);
        } else if orphan_commit {
            self.faults.duplicate_commits_absorbed += 1;
        }
    }
}

/// Runs the DAG workload through the migrating cluster. Deterministic:
/// a pure function of `(catalog, cfg)` — repeats are bit-identical,
/// and a fault-disabled run is byte-identical to a plain one.
pub fn run_migrating_dags(catalog: &[FunctionSpec], cfg: &MigrateConfig) -> MigrateResult {
    assert!(!catalog.is_empty(), "need a function catalog");
    assert!(
        (1..=cfg.nodes).contains(&cfg.replicas),
        "replicas must be in 1..=nodes"
    );
    let arrivals = dag_workload(cfg.workflows, cfg.arrival_rps, cfg.seed);
    let mut wfs: Vec<Wf> = arrivals
        .iter()
        .map(|a| {
            let spec = random_dag_spec(a.shape_seed, catalog.len(), cfg.max_width);
            let nodes = spec.nodes.len();
            Wf {
                spec,
                input: mix(cfg.seed ^ 0x00DA_607A ^ a.workflow),
                out: vec![0; nodes],
                branches_left: 0,
                alive: true,
            }
        })
        .collect();
    let mut sim = Sim {
        catalog,
        cfg,
        placer: Placer::new(
            PlacePolicy::RoundRobin,
            cfg.nodes,
            cfg.replicas,
            catalog,
            cfg.seed,
        ),
        plan: cfg.faults.filter(|c| c.is_active()).map(FaultPlan::new),
        scaler: cfg
            .autoscale
            .map(|sc| NodeScaler::new(sc, cfg.nodes, Nanos::ZERO)),
        kv: VersionedKv::new(),
        faults: FaultStats::default(),
        events: EventQueue::new(),
        hops_executed: 0,
        span_end: Nanos::ZERO,
    };
    for a in &arrivals {
        sim.events.schedule(a.at, MigEv::Start(a.workflow as usize));
    }
    let mut completed = 0u64;
    let mut outputs: Vec<Option<u64>> = vec![None; cfg.workflows as usize];
    while let Some((now, ev)) = sim.events.pop() {
        match ev {
            MigEv::Start(w) => {
                let wf = &wfs[w];
                let width = wf.spec.width_of(0);
                wfs[w].branches_left = width;
                for b in 0..width {
                    let wf = &wfs[w];
                    sim.dispatch(wf, w, 0, b, now);
                }
            }
            MigEv::Done(hop) => {
                let w = hop.w;
                if !wfs[w].alive {
                    continue;
                }
                let node = hop.node as usize;
                let upstream = sim.input_of(&wfs[w], w, node);
                let path = hop_path(node, hop.branch);
                let value = hop_value(w as u64, path, upstream, 0);
                let fid = Sim::fault_id(w, path);
                if let Some(pl) = sim.plan {
                    // Node loss first: the whole node (and the hop's
                    // response) is gone, regardless of container fate.
                    // Otherwise the container may die on an up node.
                    let node_lost = pl.node_down(hop.exec as usize, now);
                    if node_lost || pl.death(fid, hop.attempt).is_some() {
                        let mut hop = hop;
                        // Did the commit race the fault? Then it is
                        // durable, but the response is lost.
                        let raced = !hop.pre_committed && pl.death_after_commit(fid, hop.attempt);
                        let f = &mut sim.faults;
                        if node_lost {
                            f.orphaned_hops += 1;
                            f.node_losses += 1;
                            // The re-commit is the migration ledger's.
                            hop.orphan_commit |= raced;
                        } else {
                            f.deaths += 1;
                            f.duplicates += u64::from(raced);
                        }
                        if raced {
                            sim.commit(w, path, value, false, now);
                            hop.pre_committed = true;
                        }
                        if sim.faults.retry_or_abandon(&pl, hop.attempt) {
                            sim.redispatch(&wfs[w], hop, now, node_lost);
                        } else {
                            wfs[w].alive = false;
                        }
                        continue;
                    }
                }
                sim.commit(w, path, value, hop.orphan_commit, now);
                let is_branch = matches!(wfs[w].spec.nodes[node].op, DagOp::FanOut { .. });
                if !is_branch {
                    wfs[w].out[node] = value;
                }
                let node_done = if is_branch {
                    wfs[w].branches_left -= 1;
                    wfs[w].branches_left == 0
                } else {
                    true
                };
                if !node_done {
                    continue;
                }
                let next = node + 1;
                if next == wfs[w].spec.nodes.len() {
                    completed += 1;
                    outputs[w] = Some(wfs[w].out[node]);
                    continue;
                }
                let width = wfs[w].spec.width_of(next);
                wfs[w].branches_left = width;
                for b in 0..width {
                    let wf = &wfs[w];
                    sim.dispatch(wf, w, next, b, now);
                }
            }
        }
    }
    MigrateResult {
        workflows: cfg.workflows,
        completed,
        outputs,
        kv_fingerprint: sim.kv.fingerprint(),
        kv_versions: sim.kv.total_versions(),
        duplicates_suppressed: sim.kv.duplicates_suppressed,
        hops_executed: sim.hops_executed,
        span_ms: sim.span_end.as_millis_f64(),
        faults: sim.faults,
        scale: sim.scaler.as_ref().map(|s| s.stats()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::synthetic_catalog;
    use gh_sim::Nanos;

    fn catalog() -> Vec<FunctionSpec> {
        synthetic_catalog(8, 42)
    }

    fn lossy(seed: u64) -> FaultConfig {
        let mut fc = FaultConfig::none(seed);
        fc.node_loss_rate = 0.25;
        fc.node_loss_window = Nanos::from_millis(40);
        fc.retry = crate::fault::RetryPolicy {
            max_attempts: 10,
            ..crate::fault::RetryPolicy::bounded()
        };
        fc
    }

    #[test]
    fn fault_free_run_completes_everything_and_is_pure() {
        let cfg = MigrateConfig::new(4, 60, 9);
        let cat = catalog();
        let a = run_migrating_dags(&cat, &cfg);
        assert_eq!(a.completed, 60);
        assert!(a.outputs.iter().all(|o| o.is_some()));
        assert!(a.faults.is_empty());
        assert_eq!(a.duplicates_suppressed, 0);
        assert_eq!(a, run_migrating_dags(&cat, &cfg), "repeats bit-identical");
    }

    #[test]
    fn inert_fault_config_is_dropped() {
        let cat = catalog();
        let plain = run_migrating_dags(&cat, &MigrateConfig::new(3, 40, 5));
        let inert = run_migrating_dags(
            &cat,
            &MigrateConfig::new(3, 40, 5).with_faults(FaultConfig::none(5)),
        );
        assert_eq!(plain, inert, "disabled faults are invisible");
    }

    #[test]
    fn node_loss_orphans_hops_and_migration_converges_to_crash_free_state() {
        let cat = catalog();
        let clean_cfg = MigrateConfig::new(4, 80, 17);
        let clean = run_migrating_dags(&cat, &clean_cfg);
        let faulty_cfg = clean_cfg.clone().with_faults(lossy(17));
        let faulty = run_migrating_dags(&cat, &faulty_cfg);
        assert!(faulty.faults.orphaned_hops > 0, "outages must orphan hops");
        assert!(faulty.faults.migrations > 0, "orphans must migrate");
        assert_eq!(faulty.faults.abandoned, 0, "10 attempts ride out outages");
        assert_eq!(faulty.completed, 80);
        assert_eq!(faulty.outputs, clean.outputs, "outputs survive migration");
        assert_eq!(faulty.kv_fingerprint, clean.kv_fingerprint);
        assert_eq!(faulty.kv_versions, clean.kv_versions, "no double-applies");
        assert_eq!(
            faulty.duplicates_suppressed,
            faulty.faults.duplicates + faulty.faults.duplicate_commits_absorbed,
            "the migration ledger accounts every absorbed re-commit"
        );
        assert!(
            faulty.faults.duplicate_commits_absorbed > 0,
            "some commits must race the outage at 25% loss"
        );
    }

    #[test]
    fn migration_off_waits_out_outages_in_place() {
        let cat = catalog();
        let mut cfg = MigrateConfig::new(4, 80, 17).with_faults(lossy(17));
        cfg.migrate = false;
        let r = run_migrating_dags(&cat, &cfg);
        assert_eq!(r.faults.migrations, 0, "no cross-node moves when off");
        assert!(r.faults.orphaned_hops > 0);
        // Same final state as the migrating run (commit discipline is
        // placement-independent) — migration buys time, not state.
        let migrating =
            run_migrating_dags(&cat, &MigrateConfig::new(4, 80, 17).with_faults(lossy(17)));
        if r.faults.abandoned == 0 && migrating.faults.abandoned == 0 {
            assert_eq!(r.kv_fingerprint, migrating.kv_fingerprint);
        }
    }

    #[test]
    fn autoscaler_reacts_and_stays_deterministic() {
        let cat = catalog();
        let cfg = MigrateConfig::new(6, 150, 23)
            .with_faults(lossy(23))
            .with_autoscale(NodeScaleConfig::balanced(2));
        let a = run_migrating_dags(&cat, &cfg);
        let b = run_migrating_dags(&cat, &cfg);
        assert_eq!(a, b, "autoscaled faulty repeats bit-identical");
        let s = a.scale.expect("scaler armed");
        assert!(s.windows > 0);
        assert!(s.peak_active >= s.min_active);
        assert!(s.final_active >= 2, "never below min_nodes");
    }
}
