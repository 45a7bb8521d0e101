//! Host-parallel fleet execution: the shard half of the two-phase
//! parallel [`Fleet::run`](super::Fleet::run).
//!
//! A fleet run parallelizes in three phases (see the module docs of
//! [`super`] for the invariant):
//!
//! 1. **Plan (coordinator):** arrivals and routing decisions are
//!    precomputed on the caller's thread with a clone of the router —
//!    round-robin routing reads only the slots' (static) retired flags,
//!    so the decisions are independent of container progress;
//! 2. **Shard (workers):** the pool's slots are split into contiguous
//!    shards across `std::thread::scope` workers; [`drive_shard`] runs
//!    each shard's slice of the virtual timeline through its own
//!    [`EventQueue`] and records every dispatch per slot, in order;
//! 3. **Merge (coordinator):** the global event loop is replayed
//!    against per-slot mirrors, consuming the recorded dispatches in
//!    the exact order the serial loop would have produced them — same
//!    event schedule, same tie-breaking sequence numbers, therefore
//!    bit-identical sojourn ordering, queue-depth samples and router
//!    cursor state.
//!
//! A slot's dispatch outcomes depend only on its own arrival times and
//! its own previous readiness (`dispatch` fires at
//! `max(arrival, prev_ready)` and failed dispatch attempts are
//! side-effect-free), so shard-local event processing reproduces the
//! serial per-slot timelines exactly; the replay then reproduces the
//! serial global interleaving exactly. Serial mode remains the
//! bit-exact reference, enforced by the differential oracle in
//! `tests/fleet_par_oracle.rs`.

use gh_isolation::StrategyError;
use gh_sim::event::EventQueue;
use gh_sim::par::{configured_threads, serial_requested};
use gh_sim::Nanos;

use super::pool::{Dispatched, Slot};
use super::queue::Pending;

/// How [`Fleet::run_with`](super::Fleet::run_with) executes a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Parallel when eligible, honoring `--serial` / `GH_SERIAL=1`
    /// (forces serial) and `GH_THREADS=n` (worker count; defaults to
    /// the host's available parallelism).
    #[default]
    Auto,
    /// The bit-exact reference: one global event loop on the caller's
    /// thread.
    Serial,
    /// Shard across up to `threads` workers. Still subject to the
    /// eligibility gates (round-robin policy, no autoscaler, ≥ 2 slots,
    /// ≥ 2 threads): an ineligible run falls back to serial.
    Parallel {
        /// Worker threads to shard across.
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

/// One precomputed arrival: the coordinator's phase-1 routing decision.
pub(crate) struct Arrival {
    /// Virtual arrival time at the router.
    pub at: Nanos,
    /// Request id (the serial loop's `next_id` sequence).
    pub id: u64,
    /// Issuing principal.
    pub principal: String,
    /// Slot the (cloned) router assigned.
    pub slot: usize,
}

/// Shard-local events, and the coordinator replay's: indices into the
/// global plan / the shard slice (the replay's slot indices are global).
pub(crate) enum ShardEv {
    /// The plan entry at this index arrives at its slot.
    Arrival(usize),
    /// The slot at this index finished its restore.
    Ready(usize),
}

/// Drives one contiguous shard of slots (`slots[0]` is global slot
/// `base`) through its slice of the virtual timeline: every plan entry
/// routed into the shard is queued at its arrival time and dispatched
/// exactly as the serial event loop would (`max(arrival, prev_ready)`
/// per slot, FIFO per queue). Each dispatch outcome is appended to the
/// slot's `outs` vector in dispatch order, for the coordinator's
/// deterministic replay.
pub(crate) fn drive_shard(
    slots: &mut [Slot],
    base: usize,
    plan: &[Arrival],
    input_kb: u64,
    outs: &mut [Vec<Dispatched>],
) -> Result<(), StrategyError> {
    let mut events: EventQueue<ShardEv> = EventQueue::new();
    // Pre-schedule the shard's arrivals in global plan order, so
    // equal-time arrivals keep their global tie order within the shard.
    for (pi, a) in plan.iter().enumerate() {
        if a.slot >= base && a.slot < base + slots.len() {
            events.schedule(a.at, ShardEv::Arrival(pi));
        }
    }
    while let Some((now, ev)) = events.pop() {
        let local = match ev {
            ShardEv::Arrival(pi) => {
                let a = &plan[pi];
                let local = a.slot - base;
                slots[local].queue.push(Pending {
                    id: a.id,
                    principal: a.principal.clone(),
                    input_kb,
                    arrival: a.at,
                    payload_hash: 0,
                    idempotent: false,
                    attempt: 1,
                });
                local
            }
            ShardEv::Ready(local) => local,
        };
        if let Some(d) = slots[local].dispatch(now)? {
            outs[local].push(d);
            events.schedule(d.ready_at, ShardEv::Ready(local));
        }
    }
    Ok(())
}
