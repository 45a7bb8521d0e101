//! Host-parallel fleet execution: execute ahead, then replay through
//! the fleet's one event loop.
//!
//! Groundhog runs at most one request per container and restores it
//! between invocations (§4), so under round-robin routing a slot's
//! timeline depends only on its own arrivals: dispatch k starts at
//! `max(arrival_k, ready_{k-1})`. A sharded run uses that in two steps:
//!
//! 1. **Execute ahead** ([`execute_ahead`]): the run's arrivals, drawn
//!    once by the fleet's arrival source, are routed with a fresh
//!    round-robin router (it reads only the slots' retired flags, so
//!    the routes are exact before the run starts), and every slot
//!    serves its own arrivals in order, slots spread across workers by
//!    [`gh_sim::par::ordered_map`]. Each slot records what it served.
//! 2. **Replay**: the kernel's loop, the one the serial mode runs, runs
//!    over the same arrivals while each slot replays its recorded
//!    [`Dispatched`](super::Dispatched) instead of executing again,
//!    checking the request id. The loop issues the serial run's
//!    schedule calls in the serial run's order, so tie-breaking, sojourn
//!    order, depth samples and router state are the serial run's.
//!
//! Results are bit-identical to serial mode, which stays the reference;
//! the differential oracle in `tests/fleet_par_oracle.rs` enforces it.

use std::sync::Mutex;

use gh_isolation::StrategyError;
use gh_sim::par::{configured_threads, ordered_map, serial_requested};

use super::backend::restore_cost;
use super::pool::{Pool, Slot};
use super::queue::Pending;
use super::router::{RoutePolicy, Router};

/// How [`Fleet::run_with`](super::Fleet::run_with) executes a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Parallel when eligible, honoring `--serial` / `GH_SERIAL=1`
    /// (forces serial) and `GH_THREADS=n` (worker count; defaults to
    /// the host's available parallelism).
    #[default]
    Auto,
    /// The bit-exact reference: the event loop executes every dispatch
    /// on the caller's thread.
    Serial,
    /// Execute each slot's arrivals ahead on up to `threads` workers,
    /// then replay them through the same event loop. Still subject to
    /// the eligibility gates (round-robin policy, no autoscaler, no
    /// faults, ≥ 2 slots, ≥ 2 threads): an ineligible run falls back to
    /// serial.
    Parallel {
        /// Worker threads to spread the slots across.
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

/// Routes `arrivals` round-robin and has every slot of `pool` serve its
/// own share ahead of the run's event loop on up to `threads` workers,
/// leaving each slot armed to replay what it served
/// ([`Slot::execute_ahead`]).
pub(crate) fn execute_ahead(
    pool: &mut Pool,
    arrivals: &[Pending],
    threads: usize,
) -> Result<(), StrategyError> {
    let mut router = Router::new(RoutePolicy::RoundRobin);
    let cost = restore_cost(pool);
    let routes: Vec<usize> = arrivals
        .iter()
        .map(|p| router.route(p.arrival, &p.principal, cost, &pool.slots))
        .collect();
    let slots: Vec<Mutex<&mut Slot>> = pool.slots.iter_mut().map(Mutex::new).collect();
    ordered_map(slots.len(), threads, |i| {
        let own = arrivals.iter().zip(&routes).filter(|&(_, &r)| r == i);
        let mut slot = slots[i].lock().expect("each slot is claimed once");
        slot.execute_ahead(own.map(|(p, _)| p))
    })
}
