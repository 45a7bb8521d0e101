//! Execute ahead, then replay through the kernel's one event loop.
//!
//! Groundhog runs at most one request per container and restores it
//! between invocations (§4), so under round-robin routing a slot's
//! timeline depends only on its own arrivals: dispatch k starts at
//! `max(arrival_k, ready_{k-1})`. Both steps here use that twice over,
//! executing ahead while every slot logs each step it takes, then
//! running the kernel's loop, the one the serial mode runs, while every
//! slot replays its log instead of executing again. The replay checks
//! the request id, attempt and instant of every step, and the loop
//! makes the serial run's schedule calls in the serial run's order, so
//! tie-breaking, sojourn order, depth samples and router state are the
//! serial run's.
//!
//! - [`run_ahead`], the **slot step**, runs a fault-free fleet: its
//!   arrivals are routed with a fresh round-robin router (it reads only
//!   the slots' retired flags, so the routes are exact before the run
//!   starts), and every slot serves its own share back to back, slots
//!   spread across workers by [`gh_sim::par::ordered_map`]. Its gain is
//!   parallelism.
//! - [`run_node_ahead`], the **pool step**, runs a cluster node, faults
//!   included. A fault plan couples the slots of one pool (a crash
//!   delays its slot, a rerouted retry takes the pool's round-robin
//!   cursor) but never two pools, so each pool runs the kernel's loop on
//!   its own over the node's arrival list, admitting only its own
//!   arrivals, with the node's plan and a fresh round-robin router. The
//!   node already has its worker of the node fan-out, so its pools run
//!   one after another there. Its gain is cache locality: a container's
//!   state (extents, frames, snapshot) stays warm across its requests
//!   instead of being evicted by the node's other containers between
//!   them.
//!
//! For a pool's loop to order every same-instant tie as the node's loop
//! does, the kernel holds its next arrival outside the heap under the
//! insertion number its `Arrival` event would have taken
//! ([`gh_sim::event::EventQueue::reserve`]). A pool that can retry, one
//! whose own arrival dies on its first attempt (a pure draw), steps past
//! every other pool's arrival as a ghost ([`Feed::Ghost`]) that takes
//! one insertion number: each arrival takes its number when the node's
//! previous arrival is stepped, so a retry tied with a later arrival of
//! the pool takes the round-robin cursor, or its slot's queue position,
//! in the node's order. A pool with no retry needs no ghosts: an arrival
//! tied with a `Ready` edge of its slot is served the same either way.
//!
//! Which runs take either step is one rule, [`eligible`], documented on
//! [`ExecMode`]. Results are bit-identical to serial mode, which stays
//! the reference; `tests/fleet_par_oracle.rs` and
//! `tests/cluster_oracle.rs` enforce it.

use std::sync::Mutex;

use gh_isolation::StrategyError;
use gh_sim::par::{configured_threads, ordered_map, serial_requested};
use gh_sim::Nanos;

use crate::fault::FaultPlan;
use crate::trace::TraceEvent;

use super::autoscaler::Autoscaler;
use super::backend::{Backend, Feed, Tally};
use super::pool::{Pool, Slot};
use super::queue::Pending;
use super::router::{RoutePolicy, Router};

/// How a fleet or cluster run executes.
///
/// Every run is the dispatch kernel's one event loop, and results are
/// bit-identical in every mode. An **eligible** run first executes ahead,
/// then replays through that loop (see the [`fleet`](crate::fleet)
/// module docs). The rule, written once, is that a run is eligible when
/// all of these hold:
///
/// - the mode asks for ≥ 2 threads ([`ExecMode::Serial`], `--serial` and
///   `GH_SERIAL=1` ask for one);
/// - every pool routes round-robin, since least-loaded and
///   restore-aware routing read container state at arrival time;
/// - no autoscaler is configured, since growth and retirement change the
///   pool mid-run.
///
/// A fleet takes the slot step, which additionally needs no fault plan
/// (a crash or a rerouted retry couples a slot's readiness to its
/// neighbours' arrivals), ≥ 2 slots and ≥ 1 request: it spreads its
/// slots across the threads, and its gain is parallelism. A cluster node
/// takes the pool step, which allows a fault plan, since faults couple
/// the slots of a pool but never two pools: it runs its pools one after
/// another on its own worker of the node fan-out, and its gain is cache
/// locality. Every other run takes the interleaved loop, the reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Parallel when eligible, honoring `--serial` / `GH_SERIAL=1`
    /// (forces serial) and `GH_THREADS=n` (worker count; defaults to
    /// the host's available parallelism).
    #[default]
    Auto,
    /// The bit-exact reference: the event loop executes every dispatch
    /// on the caller's thread, interleaved in arrival order.
    Serial,
    /// Up to `threads` workers: a fleet executes its slots ahead on
    /// them, a cluster runs its nodes on them and each node executes its
    /// pools ahead on its own. An ineligible run falls back to the
    /// interleaved loop.
    Parallel {
        /// Worker threads to spread the slots or nodes across.
        threads: usize,
    },
}

impl ExecMode {
    /// Worker threads this mode asks for (1 means serial).
    pub(crate) fn threads(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel { threads } => threads,
            ExecMode::Auto if serial_requested() => 1,
            ExecMode::Auto => configured_threads(),
        }
    }
}

/// The execute-ahead rule ([`ExecMode`]): the run may use `threads` ≥ 2
/// workers, routes every pool round-robin and steps no autoscaler. A
/// fleet's slot step adds its own conditions on top.
pub(crate) fn eligible(threads: usize, routers: &[Router], scaler: Option<&Autoscaler>) -> bool {
    threads >= 2
        && scaler.is_none()
        && routers
            .iter()
            .all(|r| r.policy() == RoutePolicy::RoundRobin)
}

/// The slot step: one fault-free fleet run of `arrivals`, in arrival
/// order, over `pool`, executed ahead and replayed. Every slot serves
/// its round-robin share on up to `threads` workers, then
/// [`Backend::run`] runs the loop while each slot replays what it
/// served. Every slot is disarmed afterwards, whether the run succeeded
/// or failed. Callers check [`eligible`] first.
pub(crate) fn run_ahead(
    pool: &mut Pool,
    router: &mut Router,
    arrivals: &[Pending],
    threads: usize,
) -> Result<Tally, StrategyError> {
    let run = serve_ahead(pool, arrivals, threads).and_then(|()| {
        let feed = arrivals.iter().map(|p| Feed::Request(0, p.clone()));
        let pools = std::slice::from_mut(pool);
        let routers = std::slice::from_mut(router);
        Backend::run(None, pools, routers, feed, arrivals.len(), None)
    });
    disarm(std::slice::from_mut(pool));
    run
}

/// Routes `arrivals` round-robin and has every slot serve its own share
/// ahead of the loop ([`Slot::execute_ahead`]), slots spread across up
/// to `threads` workers.
fn serve_ahead(pool: &mut Pool, arrivals: &[Pending], threads: usize) -> Result<(), StrategyError> {
    // `own[s]` lists the indices of slot `s`'s arrivals, in arrival
    // order.
    let mut own = vec![Vec::new(); pool.slots.len()];
    let mut fresh = Router::new(RoutePolicy::RoundRobin);
    for i in 0..arrivals.len() {
        // Round-robin reads only the slots' retired flags, never the
        // time, principal or restore cost.
        let s = fresh.route(Nanos::ZERO, "", Nanos::ZERO, &pool.slots);
        own[s].push(i);
    }
    let slots: Vec<Mutex<&mut Slot>> = pool.slots.iter_mut().map(Mutex::new).collect();
    ordered_map(slots.len(), threads, |s| {
        let mut slot = slots[s].lock().expect("each slot is claimed once");
        slot.execute_ahead(own[s].iter().map(|&i| &arrivals[i]))
    })
}

/// The pool step: one cluster node's run of `arrivals` (the node's list,
/// in arrival order) over `pools` under `plan`, executed ahead pool by
/// pool and replayed. `pool_of` gives each arrival's pool. Each pool's
/// loop admits `request`s, whose ids are the arrivals' trace sequence
/// numbers; then the loop runs once with `routers`, admitting
/// `replayed` requests while every slot replays its log. Every slot is
/// disarmed afterwards, whether the run succeeded or failed. Callers
/// check [`eligible`] first.
pub(crate) fn run_node_ahead(
    plan: Option<FaultPlan>,
    pools: &mut [Pool],
    routers: &mut [Router],
    arrivals: &[TraceEvent],
    pool_of: impl Fn(&TraceEvent) -> usize,
    request: impl Fn(&TraceEvent) -> Pending,
    replayed: impl Fn(&TraceEvent) -> Pending,
) -> Result<Tally, StrategyError> {
    let run = pools_ahead(plan, pools, arrivals, &pool_of, &request).and_then(|()| {
        let feed = arrivals
            .iter()
            .map(|a| Feed::Request(pool_of(a), replayed(a)));
        Backend::run(plan, pools, routers, feed, arrivals.len(), None)
    });
    disarm(pools);
    run
}

/// Runs the kernel's loop once per pool over the pool's own arrivals,
/// ghosts included where the pool can retry (see the module docs), its
/// slots logging every step, then arms them to replay the log.
fn pools_ahead(
    plan: Option<FaultPlan>,
    pools: &mut [Pool],
    arrivals: &[TraceEvent],
    pool_of: &impl Fn(&TraceEvent) -> usize,
    request: &impl Fn(&TraceEvent) -> Pending,
) -> Result<(), StrategyError> {
    // `own[j]` lists the indices of pool `j`'s arrivals. A death past
    // the first attempt needs a retry first, so a pool can retry exactly
    // when one of its arrivals dies on its first attempt.
    let mut own = vec![Vec::new(); pools.len()];
    let mut retries = vec![false; pools.len()];
    for (i, a) in arrivals.iter().enumerate() {
        let j = pool_of(a);
        own[j].push(i);
        retries[j] |= plan.is_some_and(|pl| pl.death(a.seq, 1).is_some());
    }
    for (j, pool) in pools.iter_mut().enumerate() {
        if own[j].is_empty() {
            continue;
        }
        pool.slots.iter_mut().for_each(Slot::record);
        let pools = std::slice::from_mut(pool);
        let routers = &mut [Router::new(RoutePolicy::RoundRobin)];
        if retries[j] {
            let feed = arrivals.iter().map(|a| {
                if pool_of(a) == j {
                    Feed::Request(0, request(a))
                } else {
                    Feed::Ghost(a.at)
                }
            });
            Backend::run(plan, pools, routers, feed, own[j].len(), None)?;
        } else {
            let feed = own[j]
                .iter()
                .map(|&i| Feed::Request(0, request(&arrivals[i])));
            Backend::run(plan, pools, routers, feed, own[j].len(), None)?;
        }
        pools[0].slots.iter_mut().for_each(Slot::replay);
    }
    Ok(())
}

/// Takes every slot of `pools` out of recording or replay.
fn disarm(pools: &mut [Pool]) {
    for pool in pools {
        pool.slots.iter_mut().for_each(Slot::end_replay);
    }
}
