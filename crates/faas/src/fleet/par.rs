//! The fleet's slot step: execute ahead, then replay through the
//! kernel's one event loop.
//!
//! Groundhog runs at most one request per container and restores it
//! between invocations (§4), so under round-robin routing a slot's
//! timeline depends only on its own arrivals: dispatch k starts at
//! `max(arrival_k, ready_{k-1})`. [`run_ahead`] uses that for a
//! fault-free fleet. Its arrivals are routed with a fresh round-robin
//! router (it reads only the slots' retired flags, so the routes are
//! exact before the run starts), and every slot serves its own share back
//! to back while logging each dispatch, slots spread across workers by
//! [`gh_sim::par::ordered_map`]. Then the kernel's loop, the one the
//! serial mode runs, runs over the same arrivals while every slot
//! replays its log instead of executing again. The replay checks the
//! request id, attempt and instant of every dispatch, and the loop makes
//! the serial run's schedule calls in the serial run's order, so
//! tie-breaking, sojourn order, depth samples and router state are the
//! serial run's. Its gain is parallelism.
//!
//! Which runs take the step is one rule, [`eligible`], documented on
//! [`ExecMode`]. Results are bit-identical to serial mode, which stays
//! the reference; `tests/fleet_par_oracle.rs` enforces it.

use std::sync::Mutex;

use gh_isolation::StrategyError;
use gh_sim::par::{configured_threads, ordered_map, serial_requested};
use gh_sim::Nanos;

use crate::gateway::Gate;

use super::backend::Backend;
use super::pool::{Pool, Slot};
use super::queue::Pending;
use super::router::{RoutePolicy, Router};
use super::Fleet;

/// How a fleet or cluster run executes.
///
/// Every run is the dispatch kernel's one event loop, and results are
/// bit-identical in every mode. A cluster spreads its nodes across the
/// mode's threads ([`crate::cluster`]). An **eligible** fleet run spreads
/// its slots across them: it executes ahead, then replays through that
/// loop (see the [`fleet`](crate::fleet) module docs). The rule, written
/// once in `par::eligible`, is that a fleet run is eligible when all of
/// these hold:
///
/// - the mode asks for ≥ 2 threads ([`ExecMode::Serial`], `--serial` and
///   `GH_SERIAL=1` ask for one);
/// - the pool routes round-robin, since least-loaded and restore-aware
///   routing read container state at arrival time;
/// - no autoscaler is configured, since growth and retirement change the
///   pool mid-run;
/// - no fault plan is armed, since a crash or a rerouted retry couples a
///   slot's readiness to its neighbours' arrivals;
/// - the pool has ≥ 2 slots and the run ≥ 1 request.
///
/// Every other fleet run takes the interleaved loop, the reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Parallel when eligible, honoring `--serial` / `GH_SERIAL=1`
    /// (forces serial) and `GH_THREADS=n` (worker count; defaults to
    /// the host's available parallelism).
    #[default]
    Auto,
    /// The bit-exact reference: everything runs on the caller's thread,
    /// a fleet's dispatches interleaved in arrival order and a cluster's
    /// nodes one after another.
    Serial,
    /// Up to `threads` workers: a fleet executes its slots ahead on them,
    /// a cluster runs its nodes on them. An ineligible fleet run falls
    /// back to the interleaved loop.
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

/// The slot step's rule ([`ExecMode`]): `fleet`'s run of `requests`
/// arrivals over `pool` may use `threads` ≥ 2 workers, routes
/// round-robin, steps no autoscaler, has no fault plan, and spreads ≥ 1
/// request over ≥ 2 slots.
pub(super) fn eligible(fleet: &Fleet, pool: &Pool, requests: usize, threads: usize) -> bool {
    threads >= 2
        && fleet.cfg.policy == RoutePolicy::RoundRobin
        && fleet.cfg.autoscale.is_none()
        && fleet.plan.is_none()
        && pool.slots.len() >= 2
        && requests > 0
}

/// The slot step: `k` runs `arrivals` (principal index and request), in
/// arrival order, over `pool`, executed ahead and replayed. Every slot
/// serves its round-robin share on up to `threads` workers, then
/// [`Backend::run`] runs the loop behind the driver's `gate`, which is
/// open, while each slot replays what it served. Every slot is disarmed
/// afterwards, whether the run succeeded or failed. Callers check
/// [`eligible`] first.
pub(super) fn run_ahead(
    k: &mut Backend,
    pool: &mut Pool,
    router: &mut Router,
    arrivals: &[(u64, Pending)],
    threads: usize,
    gate: &mut Gate,
) -> Result<(), StrategyError> {
    let run = serve_ahead(pool, arrivals, threads)
        .and_then(|()| k.run(pool, router, arrivals.iter().cloned(), gate));
    pool.slots.iter_mut().for_each(Slot::end_replay);
    run
}

/// Routes `arrivals` round-robin and has every slot serve its own share
/// ahead of the loop ([`Slot::execute_ahead`]), slots spread across up
/// to `threads` workers.
fn serve_ahead(
    pool: &mut Pool,
    arrivals: &[(u64, Pending)],
    threads: usize,
) -> Result<(), StrategyError> {
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
        slot.execute_ahead(own[s].iter().map(|&i| &arrivals[i].1))
    })
}
