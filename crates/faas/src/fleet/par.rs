//! Execute ahead, then replay through the kernel's one event loop.
//!
//! Groundhog runs at most one request per container and restores it
//! between invocations (§4), so under round-robin routing a slot's
//! timeline depends only on its own arrivals: dispatch k starts at
//! `max(arrival_k, ready_{k-1})`. [`run_ahead`] uses that in two steps,
//! for a sharded fleet run and for a fault-free cluster node alike:
//!
//! 1. **Execute ahead**: the run's arrivals, in arrival order, are routed
//!    with a fresh round-robin router per pool (it reads only the slots'
//!    retired flags, so the routes are exact before the run starts), and
//!    every slot serves its own share back to back, slots spread across
//!    workers by [`gh_sim::par::ordered_map`]. Each slot records what it
//!    served.
//! 2. **Replay**: the kernel's loop, the one the serial mode runs, runs
//!    over the same arrivals while each slot replays its recorded
//!    [`Dispatched`](super::Dispatched) instead of executing again,
//!    checking the request id. The loop issues the serial run's
//!    schedule calls in the serial run's order, so tie-breaking, sojourn
//!    order, depth samples and router state are the serial run's.
//!
//! A fleet spreads its slots across its threads, so its gain is
//! parallelism. A cluster node already runs on one worker of the node
//! fan-out and executes its slots one after another there, so its gain
//! is cache locality: a container's state (extents, frames, snapshot)
//! stays warm across its requests instead of being evicted by the
//! node's other containers between them. Which runs do either is one
//! rule, [`eligible`], documented on [`ExecMode`].
//!
//! Results are bit-identical to serial mode, which stays the reference;
//! `tests/fleet_par_oracle.rs` and `tests/cluster_oracle.rs` enforce it.

use std::borrow::Cow;
use std::sync::Mutex;

use gh_isolation::StrategyError;
use gh_sim::par::{configured_threads, ordered_map, serial_requested};
use gh_sim::Nanos;

use crate::fault::FaultPlan;

use super::autoscaler::Autoscaler;
use super::backend::{Backend, Tally};
use super::pool::{Pool, Slot};
use super::queue::Pending;
use super::router::{RoutePolicy, Router};

/// How a fleet or cluster run executes.
///
/// Every run is the dispatch kernel's one event loop, and results are
/// bit-identical in every mode. An **eligible** run first executes each
/// slot's arrivals ahead, back to back, then replays them through that
/// loop (see the [`fleet`](crate::fleet) module docs). The rule, written
/// once, is that a run is eligible when all of these hold:
///
/// - the mode asks for ≥ 2 threads ([`ExecMode::Serial`], `--serial` and
///   `GH_SERIAL=1` ask for one);
/// - no fault plan is armed, since a crash or a rerouted retry couples a
///   slot's readiness to its neighbours' arrivals;
/// - every pool routes round-robin, since least-loaded and
///   restore-aware routing read container state at arrival time;
/// - no autoscaler is configured, since growth and retirement change the
///   pool mid-run.
///
/// A fleet additionally needs ≥ 2 slots and ≥ 1 request: it spreads its
/// slots across the threads, and its gain is parallelism. A cluster node
/// executes its slots one after another on its own worker of the node
/// fan-out: its gain is cache locality, which a pool of one slot gets
/// too. Every other run takes the interleaved loop, the reference.
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
    /// them, a cluster runs its nodes on them and each eligible node
    /// executes ahead on its own. An ineligible run falls back to the
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
/// workers, arms no fault plan, routes every pool round-robin and steps
/// no autoscaler.
pub(crate) fn eligible(
    threads: usize,
    plan: Option<&FaultPlan>,
    routers: &[Router],
    scaler: Option<&Autoscaler>,
) -> bool {
    threads >= 2
        && plan.is_none()
        && scaler.is_none()
        && routers
            .iter()
            .all(|r| r.policy() == RoutePolicy::RoundRobin)
}

/// One fault-free run of `arrivals` over `pools`, executed ahead and
/// replayed: every slot serves its round-robin share on up to `threads`
/// workers, then [`Backend::run`] runs the loop while each slot replays
/// what it served. `arrivals` is in arrival order; `pool_of` gives each
/// one's pool and `request` its request, called once per arrival in
/// each step. Every slot is disarmed afterwards, whether the run
/// succeeded or failed. Callers check [`eligible`] first.
pub(crate) fn run_ahead<'a, A: Sync>(
    pools: &mut [Pool],
    routers: &mut [Router],
    arrivals: &'a [A],
    pool_of: impl Fn(&A) -> usize,
    request: impl Fn(&'a A) -> Cow<'a, Pending> + Sync,
    threads: usize,
) -> Result<Tally, StrategyError> {
    let run = execute_ahead(pools, arrivals, &pool_of, &request, threads).and_then(|()| {
        let feed = arrivals
            .iter()
            .map(|a| (pool_of(a), request(a).into_owned()));
        Backend::run(None, pools, routers, feed, arrivals.len(), None)
    });
    for pool in pools.iter_mut() {
        pool.slots.iter_mut().for_each(Slot::end_replay);
    }
    run
}

/// Routes each pool's arrivals round-robin and has every slot serve its
/// own share ahead of the loop ([`Slot::execute_ahead`]), slots spread
/// across up to `threads` workers.
fn execute_ahead<'a, A: Sync>(
    pools: &mut [Pool],
    arrivals: &'a [A],
    pool_of: &impl Fn(&A) -> usize,
    request: &(impl Fn(&'a A) -> Cow<'a, Pending> + Sync),
    threads: usize,
) -> Result<(), StrategyError> {
    // Slot `s` of pool `j` is flat slot `first[j] + s`; `own[f]` lists
    // the indices of flat slot `f`'s arrivals, in arrival order.
    let mut first = Vec::with_capacity(pools.len());
    let mut total = 0;
    for pool in pools.iter() {
        first.push(total);
        total += pool.slots.len();
    }
    let mut own = vec![Vec::new(); total];
    let mut fresh = vec![Router::new(RoutePolicy::RoundRobin); pools.len()];
    for (i, a) in arrivals.iter().enumerate() {
        let j = pool_of(a);
        // Round-robin reads only the slots' retired flags, never the
        // time, principal or restore cost.
        let s = fresh[j].route(Nanos::ZERO, "", Nanos::ZERO, &pools[j].slots);
        own[first[j] + s].push(i);
    }
    let slots: Vec<Mutex<&mut Slot>> = pools
        .iter_mut()
        .flat_map(|pool| &mut pool.slots)
        .map(Mutex::new)
        .collect();
    ordered_map(total, threads, |f| {
        let mut slot = slots[f].lock().expect("each slot is claimed once");
        slot.execute_ahead(own[f].iter().map(|&i| request(&arrivals[i])))
    })
}
