//! Pool snapshot memory: the shared-store acceptance tests.
//!
//! An N-container GH pool holds N near-identical clean-state snapshots.
//! With the pool-shared [`SnapshotStore`](groundhog::mem::SnapshotStore)
//! they dedup to one base image plus per-container deltas, so:
//!
//! 1. a pool of 8 must hold **< 1.2×** one container's snapshot bytes
//!    when containers differ in < 5% of their pages (they do — only the
//!    timeline-dependent runtime-state page differs), comfortably inside
//!    the < 2× acceptance bound;
//! 2. the dedup ratio surfaced in `FleetStats` must match the store's
//!    own `FrameTable::live()` accounting exactly;
//! 3. dedup must not perturb the virtual timeline: a shared-store pool
//!    of one is bit-identical to a lone container.

use groundhog::core::GroundhogConfig;
use groundhog::faas::fleet::{Fleet, FleetConfig, Pool, RoutePolicy};
use groundhog::faas::Container;
use groundhog::functions::catalog::by_name;
use groundhog::isolation::StrategyKind;
use groundhog::mem::PAGE_SIZE;

const POOL: usize = 8;

fn gh_pool(size: usize, seed: u64) -> Pool {
    let spec = by_name("fannkuch (p)").unwrap();
    Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), size, seed).unwrap()
}

#[test]
fn pool_of_8_holds_under_1_2x_one_snapshot() {
    let pool = gh_pool(POOL, 42);
    let one_snapshot_bytes = pool.slots[0]
        .container
        .stats
        .prepare
        .as_ref()
        .unwrap()
        .snapshot_pages
        .unwrap()
        * PAGE_SIZE;
    let mem = pool.memory();
    assert!(
        mem.resident_bytes < one_snapshot_bytes * 12 / 10,
        "pool of {POOL} resident {} B vs 1.2× one snapshot {} B",
        mem.resident_bytes,
        one_snapshot_bytes * 12 / 10
    );
    // A fortiori the < 2× acceptance bound.
    assert!(mem.resident_bytes < one_snapshot_bytes * 2);
    assert!(
        mem.dedup_ratio > (POOL - 1) as f64,
        "near-identical snapshots must share: ratio {:.2}",
        mem.dedup_ratio
    );
}

#[test]
fn fleet_stats_dedup_matches_frame_table_accounting() {
    let mut pool = gh_pool(4, 7);
    let fleet = Fleet::new(FleetConfig::fixed(RoutePolicy::RestoreAware, 80.0, 7));
    // The workload dirties well under 5% of the image per request
    // (fannkuch's write set is a few dozen pages of a multi-thousand-page
    // image); the store is a clean-state structure and must be untouched
    // by request traffic.
    let before = pool.memory();
    let result = fleet.run(&mut pool, 120).unwrap();
    let after = pool.memory();
    assert_eq!(result.completed, 120);
    assert_eq!(
        before.unique_frames, after.unique_frames,
        "request traffic must not grow the clean-state store"
    );

    // FleetStats figures are exactly the store's accounting.
    let store = pool.store().lock().unwrap();
    let live = store.frames().live() as u64;
    assert_eq!(after.unique_frames, live);
    assert!(
        (result.stats.snapshot_dedup_ratio - store.stats().logical_pages as f64 / live as f64)
            .abs()
            < 1e-12,
        "dedup ratio must match FrameTable::live() accounting"
    );
    assert_eq!(
        result.stats.snapshot_resident_bytes, after.resident_bytes,
        "resident bytes surfaced verbatim"
    );
    drop(store);
    let one_snapshot_bytes = pool.slots[0]
        .container
        .stats
        .prepare
        .as_ref()
        .unwrap()
        .snapshot_pages
        .unwrap()
        * PAGE_SIZE;
    assert!(
        result.stats.snapshot_bytes_per_container < one_snapshot_bytes as f64 / 2.0,
        "4 containers share one base: per-container {} vs one private snapshot {}",
        result.stats.snapshot_bytes_per_container,
        one_snapshot_bytes
    );
}

#[test]
fn shared_store_does_not_perturb_timelines() {
    // A pool of one (shared store) must be bit-identical to a lone
    // container (private eager snapshot) — dedup is space-only.
    let spec = by_name("fannkuch (p)").unwrap();
    let pool = gh_pool(1, 42);
    let lone = Container::cold_start(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 42).unwrap();
    assert_eq!(pool.slots[0].container.now(), lone.now());
    assert_eq!(
        pool.slots[0].container.stats.init_time,
        lone.stats.init_time
    );

    // The parity must also hold for a CoW-configured pool: cow_snapshot
    // takes precedence over the store (a CoW snapshot holds no page
    // copies to intern), so the cheaper CoW snapshot cost is charged in
    // both cases.
    let cow = GroundhogConfig {
        cow_snapshot: true,
        ..GroundhogConfig::gh()
    };
    let cow_pool = Pool::build(&spec, StrategyKind::Gh, cow.clone(), 1, 42).unwrap();
    let cow_lone = Container::cold_start(&spec, StrategyKind::Gh, cow, 42).unwrap();
    assert_eq!(cow_pool.slots[0].container.now(), cow_lone.now());
    assert_eq!(
        cow_pool.memory().unique_frames,
        0,
        "CoW snapshots intern nothing into the store"
    );
    assert!(
        cow_lone.stats.init_time < lone.stats.init_time,
        "CoW snapshot must stay cheaper than eager/shared"
    );
}

#[test]
fn pool_memory_scales_sub_linearly() {
    let small = gh_pool(2, 11).memory();
    let large = gh_pool(8, 11).memory();
    assert!(large.logical_pages > small.logical_pages * 3);
    assert!(
        (large.resident_bytes as f64) < small.resident_bytes as f64 * 1.5,
        "4× the containers must cost well under 1.5× the bytes: {} vs {}",
        large.resident_bytes,
        small.resident_bytes
    );
    assert!(large.resident_bytes_per_container < small.resident_bytes_per_container);
}
