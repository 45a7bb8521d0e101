//! Stateful workflows: responses enqueue downstream invocations.
//!
//! Groundhog isolates *requests*; real FaaS applications compose them
//! into chains and DAGs (the paper's motivating apps — ML inference
//! pipelines, image processing — are multi-stage). A static chain is
//! the degenerate DAG ([`dag::DagSpec::chain`]), so one runner,
//! [`dag::run_dag_workflows`], executes both over real
//! [`Container`](crate::container::Container)s. This module holds the
//! two pieces of state the fault layer needs to prove
//! crash-equivalence against:
//!
//! - **Idempotent commits** keyed by `(workflow, hop_path)`: every hop
//!   commits exactly one versioned write to the shared KV shim. A
//!   retried hop whose earlier attempt crashed *after* its commit
//!   ([`crate::fault::FaultPlan::death_after_commit`]) re-derives the
//!   identical value and its re-commit is suppressed by
//!   [`VersionedKv::commit`] — never double-applied. The hop path
//!   packs `(node, branch)` ([`dag::hop_path`]).
//! - **Read-atomic snapshot reads** (AFT-style): each workflow pins the
//!   KV version at its first hop; every hop of that workflow reads
//!   through the pinned snapshot ([`VersionedKv::read_at`]). Retries
//!   therefore observe exactly the state the crashed attempt observed,
//!   which is what makes hop values pure functions of
//!   `(workflow, hop_path, input, pinned reads)` and the whole run
//!   crash-equivalent: a faulty run with zero abandoned workflows ends
//!   in the same final KV state and per-workflow outputs as the
//!   crash-free run (`tests/fault_oracle.rs`, `tests/dag_oracle.rs`).
//!
//! The submodules:
//!
//! - [`dag`]: chains and dynamic DAGs — fan-out, deterministic fan-in
//!   merges, and conditional edges — committed hop-by-hop to the KV;
//! - [`migrate`]: cross-node workflow migration — in-flight hops
//!   re-dispatched along [`crate::cluster::Placer`] replica order when
//!   their node is lost, carrying only the KV snapshot version.
//!
//! Taint tracking extends across hops: after each invoke the hop's
//! container is asked for pages still tainted by the request
//! (`gh_mem::Space::tainted_pages`). Under `Base` the function's dirty
//! pages survive into the next invocation — a tainted page flowing
//! into the downstream payload — and are counted in
//! [`dag::DagResult::tainted_handoffs`]; under `Gh` the rollback wipes
//! them and the count stays zero (the cross-hop version of the
//! container-level isolation tests).

pub mod dag;
pub mod migrate;

use std::collections::{BTreeMap, HashSet};

use gh_isolation::StrategyKind;

use crate::fault::FaultConfig;

/// splitmix64 finalizer (same bijective mix as the fault streams);
/// duplicated so hop values do not depend on the fault module's seed
/// discipline.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The key every workflow's final hop aggregates into — shared state,
/// so read-atomicity is actually load-bearing (later workflows read
/// earlier workflows' commits through their pinned snapshots).
pub const AGG_KEY: u64 = 0;

/// Versioned read-atomic KV shim shared across workflow hops.
///
/// Writes append `(commit_version, value)` pairs per key; reads go
/// through an explicit snapshot version so a workflow's hops all see
/// the same state regardless of interleaved commits or retries.
/// Commits are idempotent per `(workflow, hop_path)` — the second
/// commit of a retried hop is dropped and counted, not applied.
#[derive(Clone, Debug, Default)]
pub struct VersionedKv {
    /// key → append-only `(commit_version, value)` history, version
    /// ascending.
    versions: BTreeMap<u64, Vec<(u64, u64)>>,
    /// Monotone commit counter; a snapshot is just its current value.
    commit_seq: u64,
    /// `(workflow, hop_path)` pairs whose commit already applied.
    applied: HashSet<(u64, u64)>,
    /// Re-commits dropped by idempotence (duplicate executions whose
    /// first attempt committed before crashing).
    pub duplicates_suppressed: u64,
}

impl VersionedKv {
    /// Empty store.
    pub fn new() -> VersionedKv {
        VersionedKv::default()
    }

    /// The current version — pin this at workflow start and pass it to
    /// every [`VersionedKv::read_at`] of that workflow.
    pub fn snapshot(&self) -> u64 {
        self.commit_seq
    }

    /// Latest value of `key` visible at snapshot `version`.
    pub fn read_at(&self, key: u64, version: u64) -> Option<u64> {
        self.versions
            .get(&key)?
            .iter()
            .rev()
            .find(|&&(v, _)| v <= version)
            .map(|&(_, value)| value)
    }

    /// Latest committed value of `key`.
    pub fn latest(&self, key: u64) -> Option<u64> {
        self.versions.get(&key)?.last().map(|&(_, value)| value)
    }

    /// Idempotent commit: applies `value` under `key` unless
    /// `(workflow, hop_path)` already committed, in which case the
    /// write is suppressed and counted. Returns whether the write
    /// applied. `hop` is the hop's path, `(node, branch)` packed by
    /// [`dag::hop_path`].
    pub fn commit(&mut self, workflow: u64, hop: u64, key: u64, value: u64) -> bool {
        if !self.applied.insert((workflow, hop)) {
            self.duplicates_suppressed += 1;
            return false;
        }
        self.commit_seq += 1;
        self.versions
            .entry(key)
            .or_default()
            .push((self.commit_seq, value));
        true
    }

    /// Total versions ever applied. Equal across a crash-free run and
    /// a faulty run with no abandonment — any double-apply would show
    /// up as extra versions here.
    pub fn total_versions(&self) -> u64 {
        self.versions.values().map(|v| v.len() as u64).sum()
    }

    /// Order-stable fingerprint of the *final* state (latest value per
    /// key, folded in key order). The crash-equivalence oracle compares
    /// this across faulty and crash-free runs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for (&key, history) in &self.versions {
            let &(_, value) = history.last().expect("non-empty history");
            h = mix(h ^ key).wrapping_add(mix(value));
        }
        h
    }
}

/// Workflow-run configuration. The workflow's shape and its function
/// catalog are passed to [`dag::run_dag_workflows`] alongside this.
#[derive(Clone, Debug)]
pub struct WorkflowConfig {
    /// Number of workflow instances to run.
    pub workflows: u64,
    /// Isolation strategy for every hop container.
    pub kind: StrategyKind,
    /// Seed for container cold-starts and hop inputs.
    pub seed: u64,
    /// Optional fault schedule (container death per hop attempt).
    pub faults: Option<FaultConfig>,
}

impl WorkflowConfig {
    /// Fault-free config under `kind`.
    pub fn new(workflows: u64, kind: StrategyKind, seed: u64) -> WorkflowConfig {
        WorkflowConfig {
            workflows,
            kind,
            seed,
            faults: None,
        }
    }

    /// Arms fault injection; an inert config (all rates zero) is
    /// dropped so the run stays on the exact fault-free path.
    pub fn with_faults(mut self, cfg: FaultConfig) -> WorkflowConfig {
        self.faults = cfg.is_active().then_some(cfg);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_reads_are_pinned_to_the_snapshot() {
        let mut kv = VersionedKv::new();
        kv.commit(0, 0, AGG_KEY, 10);
        let pinned = kv.snapshot();
        kv.commit(1, 0, AGG_KEY, 20);
        // The pinned reader still sees 10; an unpinned one sees 20.
        assert_eq!(kv.read_at(AGG_KEY, pinned), Some(10));
        assert_eq!(kv.latest(AGG_KEY), Some(20));
        assert_eq!(kv.read_at(AGG_KEY, kv.snapshot()), Some(20));
    }

    #[test]
    fn kv_commit_is_idempotent_per_workflow_hop() {
        let mut kv = VersionedKv::new();
        assert!(kv.commit(7, 2, AGG_KEY, 1));
        assert!(!kv.commit(7, 2, AGG_KEY, 1), "retried hop re-commit");
        assert_eq!(kv.total_versions(), 1, "never double-applied");
        assert_eq!(kv.duplicates_suppressed, 1);
        // A different hop of the same workflow is a fresh commit.
        assert!(kv.commit(7, 3, AGG_KEY, 2));
    }
}
