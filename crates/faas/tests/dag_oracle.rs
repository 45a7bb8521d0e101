//! DAG crash-equivalence oracle: the recovery contracts of
//! `gh_faas::workflow::{dag, migrate}` pinned down differentially.
//!
//! 1. **Disabled means invisible.** A DAG run with fault injection
//!    disabled (inert [`FaultConfig`], or none) is bit-identical —
//!    `{:?}` fingerprint and CSV rendering — to the plain run, for both
//!    the single-node container runner and the migrating cluster.
//! 2. **Crash-equivalence.** Across seeds × death rates × fan-out
//!    widths, a faulty run with zero abandonment ends in exactly the
//!    crash-free final KV state: same fingerprint, same per-workflow
//!    outputs, same applied version count (zero double-applied joins),
//!    and `duplicates_suppressed` fully accounted by the fault ledger.
//!    Every workflow is accounted: `completed + abandoned == workflows`.
//! 3. **Migration equivalence.** Node loss orphans in-flight hops; with
//!    migration on they re-dispatch along replica order carrying only
//!    the workflow's KV state, and the final state still equals the
//!    crash-free reference. The migration ledger balances:
//!    `kv.duplicates_suppressed == faults.duplicates +
//!    faults.duplicate_commits_absorbed`.
//! 4. **Autoscaling does not perturb recovery.** With the failure-aware
//!    scaler armed on top of faults + migration, repeats stay
//!    bit-identical and the crash-free state is still reached.

use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::workflow::dag::{random_dag_spec, run_dag_workflows, DagResult, DagSpec};
use gh_faas::workflow::migrate::{run_migrating_dags, MigrateConfig};
use gh_faas::workflow::WorkflowConfig;
use gh_faas::NodeScaleConfig;
use gh_functions::catalog::by_name;
use gh_functions::FunctionSpec;
use gh_isolation::StrategyKind;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

fn funcs() -> Vec<FunctionSpec> {
    ["get-time (n)", "float (p)"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect()
}

fn deaths(seed: u64, rate: f64) -> FaultConfig {
    let mut fc = FaultConfig::deaths(seed, rate);
    fc.retry = RetryPolicy {
        max_attempts: 10,
        ..RetryPolicy::bounded()
    };
    fc
}

/// CSV-style scalar rendering of a DAG run, the user-visible half of
/// the oracle (mirrors the dagsweep columns).
fn dag_csv(r: &DagResult) -> String {
    format!(
        "{},{},{},{},{},{},{},{}",
        r.workflows,
        r.completed,
        r.kv_fingerprint,
        r.kv_versions,
        r.duplicates_suppressed,
        r.hops_executed,
        r.replay_hash,
        r.faults.deaths,
    )
}

#[test]
fn disabled_faults_are_invisible_to_dag_runs() {
    let fs = funcs();
    for &seed in &[5u64, 91] {
        let spec = random_dag_spec(seed ^ 0xD1, fs.len(), 3);
        let cfg = WorkflowConfig::new(12, StrategyKind::Gh, seed);
        let plain = run_dag_workflows(&spec, &fs, GroundhogConfig::gh(), &cfg).unwrap();
        let inert_cfg = cfg.clone().with_faults(FaultConfig::none(seed));
        let inert = run_dag_workflows(&spec, &fs, GroundhogConfig::gh(), &inert_cfg).unwrap();
        assert_eq!(
            format!("{plain:?}"),
            format!("{inert:?}"),
            "seed={seed}: inert fault config changed the DAG run"
        );
        assert_eq!(dag_csv(&plain), dag_csv(&inert));
        assert!(plain.faults.is_empty());
        assert_eq!(plain.completed, 12);
    }
}

#[test]
fn dag_crash_equivalence_across_seeds_rates_and_widths() {
    let fs = funcs();
    for &seed in &[0xA5u64, 0x51CE] {
        for &width in &[2u32, 4] {
            let spec = random_dag_spec(seed ^ u64::from(width), fs.len(), width);
            let cfg = WorkflowConfig::new(10, StrategyKind::Gh, seed);
            let clean = run_dag_workflows(&spec, &fs, GroundhogConfig::gh(), &cfg).unwrap();
            for &rate in &[0.05f64, 0.15] {
                let fcfg = cfg.clone().with_faults(deaths(seed, rate));
                let faulty = run_dag_workflows(&spec, &fs, GroundhogConfig::gh(), &fcfg).unwrap();
                let tag = format!("seed={seed:x} width={width} rate={rate}");
                assert_eq!(
                    faulty.faults.abandoned, 0,
                    "{tag}: 10 attempts must ride out these rates"
                );
                assert_eq!(
                    faulty.completed + faulty.faults.abandoned,
                    faulty.workflows,
                    "{tag}: every workflow completes or is abandoned"
                );
                assert_eq!(faulty.outputs, clean.outputs, "{tag}: outputs diverged");
                assert_eq!(
                    faulty.kv_fingerprint, clean.kv_fingerprint,
                    "{tag}: final KV state diverged"
                );
                assert_eq!(
                    faulty.kv_versions, clean.kv_versions,
                    "{tag}: a retried join double-applied"
                );
                assert_eq!(
                    faulty.replay_hash, clean.replay_hash,
                    "{tag}: applied-commit order diverged"
                );
                assert_eq!(
                    faulty.duplicates_suppressed, faulty.faults.duplicates,
                    "{tag}: suppressed re-commits must match post-commit deaths"
                );
                assert!(
                    faulty.hops_executed > clean.hops_executed,
                    "{tag}: crashes must cost retried hop executions"
                );
            }
        }
    }
}

#[test]
fn chain_dag_agrees_with_the_chain_runner_shape() {
    // The degenerate DAG (a pure chain) keeps a chain's hop count and
    // commit discipline: one applied version per hop per workflow, all
    // workflows complete.
    let fs = funcs();
    let spec = DagSpec::chain(&[0, 1, 0]);
    let cfg = WorkflowConfig::new(8, StrategyKind::Gh, 33);
    let r = run_dag_workflows(&spec, &fs, GroundhogConfig::gh(), &cfg).unwrap();
    assert_eq!(r.completed, 8);
    assert_eq!(r.kv_versions, 8 * 3);
    assert_eq!(r.duplicates_suppressed, 0);
}

#[test]
fn migration_converges_to_the_crash_free_state_across_seeds_and_rates() {
    let cat = gh_faas::trace::synthetic_catalog(10, 77);
    for &seed in &[21u64, 0xBEEF] {
        let clean_cfg = MigrateConfig::new(5, 70, seed);
        let clean = run_migrating_dags(&cat, &clean_cfg);
        assert_eq!(clean.completed, 70);
        for &loss in &[0.15f64, 0.3] {
            let mut fc = FaultConfig::none(seed);
            fc.node_loss_rate = loss;
            fc.node_loss_window = Nanos::from_millis(30);
            fc.death_rate = 0.04;
            fc.retry = RetryPolicy {
                max_attempts: 12,
                ..RetryPolicy::bounded()
            };
            let faulty_cfg = clean_cfg.clone().with_faults(fc);
            let faulty = run_migrating_dags(&cat, &faulty_cfg);
            let tag = format!("seed={seed:x} loss={loss}");
            assert_eq!(faulty.faults.abandoned, 0, "{tag}: 12 attempts suffice");
            assert_eq!(faulty.completed, 70, "{tag}");
            assert!(faulty.faults.orphaned_hops > 0, "{tag}: no orphans seen");
            assert!(faulty.faults.migrations > 0, "{tag}: no migrations seen");
            assert_eq!(faulty.outputs, clean.outputs, "{tag}: outputs diverged");
            assert_eq!(
                faulty.kv_fingerprint, clean.kv_fingerprint,
                "{tag}: migrated state diverged from crash-free"
            );
            assert_eq!(faulty.kv_versions, clean.kv_versions, "{tag}");
            assert_eq!(
                faulty.duplicates_suppressed,
                faulty.faults.duplicates + faulty.faults.duplicate_commits_absorbed,
                "{tag}: the migration ledger must balance"
            );
            // Repeats of the faulty migrating run are bit-identical.
            assert_eq!(
                format!("{faulty:?}"),
                format!("{:?}", run_migrating_dags(&cat, &faulty_cfg)),
                "{tag}: repeat diverged"
            );
        }
    }
}

#[test]
fn autoscaled_migration_is_deterministic_and_still_recovers() {
    let cat = gh_faas::trace::synthetic_catalog(10, 55);
    let mut fc = FaultConfig::none(55);
    fc.node_loss_rate = 0.2;
    fc.node_loss_window = Nanos::from_millis(30);
    fc.retry = RetryPolicy {
        max_attempts: 12,
        ..RetryPolicy::bounded()
    };
    let cfg = MigrateConfig::new(6, 90, 55)
        .with_faults(fc)
        .with_autoscale(NodeScaleConfig::balanced(2));
    let a = run_migrating_dags(&cat, &cfg);
    let b = run_migrating_dags(&cat, &cfg);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "autoscaled repeat diverged"
    );
    let s = a.scale.expect("scaler armed");
    assert!(s.windows > 0);
    if a.faults.abandoned == 0 {
        let clean = run_migrating_dags(&cat, &MigrateConfig::new(6, 90, 55));
        assert_eq!(a.kv_fingerprint, clean.kv_fingerprint);
        assert_eq!(a.outputs, clean.outputs);
    }
}
