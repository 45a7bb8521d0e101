//! The dispatch kernel: the one definition of an attempt, and the one
//! event loop that drives fleets and cluster nodes.
//!
//! Groundhog runs at most one request per container at a time and
//! buffers inputs until the container is provably clean (§4.5). The
//! fault layer ([`crate::fault`]) carries that discipline to failed
//! attempts: a container may die mid-request (crash, recovery cold
//! start, park, backoff, then retry or abandon) or fail its restore.
//! [`Backend`] holds those semantics once. Per run, the kernel owns the
//! fault plan, the park table, a queued counter and the run's [`Tally`].
//!
//! Three steps over one event enum ([`Event`]):
//!
//! - [`Backend::admit`] routes a request, enqueues it and samples the
//!   queue depth;
//! - [`Backend::dispatch`] is the only fault-aware attempt: the clean
//!   slot's head either crashes (then is parked for a retry or
//!   abandoned) or is served (then may fail its restore). It schedules
//!   the slot's `Ready` edge and any `Retry`;
//! - [`Backend::retry`] unparks a request whose backoff elapsed and
//!   requeues it on the slot it died on or, under a rerouting
//!   [`RetryPolicy`](crate::fault::RetryPolicy), on another slot of its
//!   pool, then samples the queue depth.
//!
//! [`Backend::run`] is the loop over those steps. The fleet runs it in
//! both execution modes ([`super::Fleet::run_with`]) and so does every
//! cluster node ([`crate::cluster`]), and it ends each run at the first
//! event after which the run is [`settled`](Backend::settled): a fleet
//! and a one-node cluster fed the same arrivals are the same machine.
//! The gateway ([`crate::gateway::GatewayFleet::run`]) calls the three
//! steps from a loop of its own, because its policies act on every
//! event (cache fills, ceiling release, its own driver events).
//!
//! With no plan the kernel draws nothing and schedules no retry, so a
//! fault-free run is the fault-free reference bit for bit. The kernel
//! schedules in a fixed order — on a crash the `Retry` before the
//! `Ready`; on a completion the `Ready` before anything the driver
//! schedules for the returned [`Dispatched`] — because schedule order
//! breaks ties on the virtual timeline.

use std::convert::Infallible;

use gh_isolation::StrategyError;
use gh_sim::event::EventQueue;
use gh_sim::{Nanos, QuantileSketch};

use crate::fault::{FaultPlan, FaultStats};

use super::autoscaler::Autoscaler;
use super::pool::{Dispatched, Pool};
use super::queue::{DepthTracker, Pending};
use super::router::Router;

/// Events on a driver's virtual timeline. `D` carries the events only
/// one driver has (the gateway's cold-start, cache-expiry and redeploy
/// events); fleets and cluster nodes have none.
pub(crate) enum Event<D = Infallible> {
    /// The driver's next arrival is due.
    Arrival,
    /// Slot `(pool, slot)` finished its restore or recovery and is
    /// provably clean.
    Ready(u32, u32),
    /// A killed request's backoff elapsed (its token in the park table).
    Retry(u32),
    /// A driver-owned event.
    Driver(D),
}

/// What one run measured. Tallies merge exactly, so per-node tallies
/// fold into a cluster-wide one independent of execution order.
#[derive(Default)]
pub(crate) struct Tally {
    /// Sojourns of served requests, integer nanoseconds.
    pub sojourns: QuantileSketch,
    /// Aggregate queue depth, sampled at every admission, retry and
    /// `Ready` edge.
    pub depth: DepthTracker,
    /// Requests served.
    pub completed: usize,
    /// Injected faults and their outcomes.
    pub faults: FaultStats,
}

impl Tally {
    /// Folds `other` in.
    pub fn merge(&mut self, other: &Tally) {
        self.sojourns.merge(&other.sojourns);
        self.depth.merge(&other.depth);
        self.completed += other.completed;
        self.faults.merge(&other.faults);
    }
}

/// One run's dispatch state (see the module docs). Steps take the run's
/// pools and their routers by slice: one of each for a fleet or
/// gateway, one per deployed function on a cluster node.
pub(crate) struct Backend<D = Infallible> {
    /// The run's timeline. Drivers schedule their arrivals and `Driver`
    /// events here; the kernel schedules `Ready` and `Retry`.
    pub events: EventQueue<Event<D>>,
    /// What the run has measured so far.
    pub tally: Tally,
    plan: Option<FaultPlan>,
    /// Killed requests waiting out their backoff, with the (pool, slot)
    /// they died on; a `Retry` event carries the index.
    parked: Vec<Option<(Pending, u32, u32)>>,
    parked_live: usize,
    /// Requests waiting across every admission queue of the run.
    queued: usize,
}

impl<D> Backend<D> {
    /// A kernel for one run under `plan` (`None`: fault-free).
    pub fn new(plan: Option<FaultPlan>) -> Backend<D> {
        Backend {
            events: EventQueue::new(),
            tally: Tally::default(),
            plan,
            parked: Vec::new(),
            parked_live: 0,
            queued: 0,
        }
    }

    /// Routes `p` to a slot of pool `pool`, enqueues it and samples the
    /// queue depth. Returns the slot.
    pub fn admit(
        &mut self,
        now: Nanos,
        pools: &mut [Pool],
        routers: &mut [Router],
        pool: usize,
        p: Pending,
    ) -> usize {
        let slots = &pools[pool].slots;
        let slot = routers[pool].route(now, &p.principal, restore_cost(&pools[pool]), slots);
        self.enqueue(pools, pool, slot, p);
        slot
    }

    /// Unparks the request behind `token` and requeues it on the slot it
    /// died on, or on another slot of the same pool when the plan
    /// reroutes, then samples the queue depth. Returns `(pool, slot)`.
    pub fn retry(
        &mut self,
        now: Nanos,
        token: u32,
        pools: &mut [Pool],
        routers: &mut [Router],
    ) -> (usize, usize) {
        let (p, pool, died) = self.parked[token as usize]
            .take()
            .expect("retry token fires once");
        self.parked_live -= 1;
        let (pool, died) = (pool as usize, died as usize);
        let slot = if self.plan.is_some_and(|pl| pl.config().retry.reroute) {
            let cost = restore_cost(&pools[pool]);
            routers[pool].route_avoiding(now, &p.principal, cost, &pools[pool].slots, Some(died))
        } else {
            died
        };
        self.enqueue(pools, pool, slot, p);
        (pool, slot)
    }

    fn enqueue(&mut self, pools: &mut [Pool], pool: usize, slot: usize, p: Pending) {
        pools[pool].slots[slot].queue.push(p);
        self.queued += 1;
        self.tally.depth.record(self.queued);
    }

    /// One attempt by slot `(pool, slot)` at `now`, if it is clean and
    /// has a queued head. With a plan armed, the head may die partway
    /// through ([`Slot::crash`](super::Slot::crash) charges the partial
    /// work plus a full re-init): it is parked for a retry after an
    /// exponential backoff, or abandoned on its last attempt. Otherwise
    /// it is served, and its off-path restore may abort
    /// ([`Slot::fail_restore`](super::Slot::fail_restore)), pushing
    /// readiness out by a cold start. All draws are pure functions of
    /// `(fault seed, request id, attempt)`. Schedules the slot's `Ready`
    /// edge either way and returns what a served attempt produced.
    pub fn dispatch(
        &mut self,
        now: Nanos,
        pools: &mut [Pool],
        pool: usize,
        slot: usize,
    ) -> Result<Option<Dispatched>, StrategyError> {
        let s = &mut pools[pool].slots[slot];
        let ready_edge = Event::Ready(pool as u32, slot as u32);
        let head = match self.plan {
            Some(plan) if s.idle_at(now) => s.queue.peek().map(|p| (plan, p.id, p.attempt)),
            _ => None,
        };
        if let Some((plan, id, attempt)) = head {
            if let Some(frac) = plan.death(id, attempt) {
                let (mut p, ready) = s.crash(now, frac).expect("idle slot with a queued head");
                self.queued -= 1;
                let f = &mut self.tally.faults;
                f.deaths += 1;
                if plan.death_after_commit(id, attempt) {
                    // The crash landed after the attempt's effects
                    // applied: a retry re-executes committed work.
                    f.duplicates += 1;
                }
                if f.retry_or_abandon(&plan, attempt) {
                    p.attempt += 1;
                    let backoff_at = now + plan.backoff(attempt);
                    // Retry-after-restore waits for the recovery too; a
                    // rerouted retry only waits out the backoff.
                    let retry_at = if plan.config().retry.reroute {
                        backoff_at
                    } else {
                        backoff_at.max(ready)
                    };
                    let token = self.parked.len() as u32;
                    self.parked.push(Some((p, pool as u32, slot as u32)));
                    self.parked_live += 1;
                    self.events.schedule(retry_at, Event::Retry(token));
                }
                self.events.schedule(ready, ready_edge);
                return Ok(None);
            }
        }
        let Some(d) = s.dispatch(now)? else {
            return Ok(None);
        };
        self.queued -= 1;
        self.tally.completed += 1;
        self.tally.sojourns.record_nanos(d.sojourn);
        let ready = match head {
            Some((plan, id, attempt)) if plan.restore_failure(id, attempt) => {
                self.tally.faults.restore_failures += 1;
                s.fail_restore()
            }
            _ => d.ready_at,
        };
        self.events.schedule(ready, ready_edge);
        Ok(Some(d))
    }

    /// A `Ready` edge: the clean slot's next attempt, then a depth
    /// sample.
    pub fn ready(
        &mut self,
        now: Nanos,
        pools: &mut [Pool],
        pool: usize,
        slot: usize,
    ) -> Result<Option<Dispatched>, StrategyError> {
        let d = self.dispatch(now, pools, pool, slot)?;
        self.tally.depth.record(self.queued);
        Ok(d)
    }

    /// Requests waiting across every admission queue of the run.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// True once each of `admitted` requests was served or abandoned and
    /// nothing waits in a queue or the park table.
    pub fn settled(&self, admitted: usize) -> bool {
        let t = &self.tally;
        t.completed + t.faults.abandoned as usize == admitted
            && self.queued == 0
            && self.parked_live == 0
    }

    /// Ends the run and returns its tally. Conservation is checked in
    /// every build, since benchmarks run release builds only: nothing is
    /// queued or parked, and served + abandoned == `admitted`.
    pub fn finish(self, admitted: usize) -> Tally {
        assert!(
            self.settled(admitted),
            "run ended unsettled: {} served + {} abandoned of {admitted} admitted, \
             {} queued, {} parked",
            self.tally.completed,
            self.tally.faults.abandoned,
            self.queued,
            self.parked_live
        );
        self.tally
    }
}

impl Backend {
    /// One run under `plan`: admits each of `arrivals` — `(pool,
    /// request)` in arrival order, `admitted` of them — to its pool at
    /// its arrival time, attempts it, retries what dies and attempts
    /// again at every `Ready` edge, and stops at the first event after
    /// which the run is [`settled`](Backend::settled). The first arrival
    /// is scheduled before the loop; each arrival is admitted, then the
    /// next one is scheduled, then the admitting slot attempts, then
    /// `scaler` (if any) steps over the arrival's pool and announces a
    /// grown slot's readiness. Returns the run's tally.
    pub fn run(
        plan: Option<FaultPlan>,
        pools: &mut [Pool],
        routers: &mut [Router],
        mut arrivals: impl Iterator<Item = (usize, Pending)>,
        admitted: usize,
        mut scaler: Option<&mut Autoscaler>,
    ) -> Result<Tally, StrategyError> {
        let mut k: Backend = Backend::new(plan);
        let mut upcoming = arrivals.next();
        if let Some((_, p)) = &upcoming {
            k.events.schedule(p.arrival, Event::Arrival);
        }
        while let Some((now, ev)) = k.events.pop() {
            match ev {
                Event::Arrival => {
                    let (pool, p) = upcoming.take().expect("an arrival is due");
                    let slot = k.admit(now, pools, routers, pool, p);
                    upcoming = arrivals.next();
                    if let Some((_, next)) = &upcoming {
                        k.events.schedule(next.arrival, Event::Arrival);
                    }
                    k.dispatch(now, pools, pool, slot)?;
                    if let Some(scaler) = scaler.as_deref_mut() {
                        if let Some((idx, ready)) =
                            scaler.step(now, &mut pools[pool], k.queued())?
                        {
                            // The new container announces readiness once
                            // initialized.
                            k.events
                                .schedule(ready, Event::Ready(pool as u32, idx as u32));
                        }
                    }
                }
                Event::Ready(pool, slot) => {
                    k.ready(now, pools, pool as usize, slot as usize)?;
                }
                Event::Retry(token) => {
                    let (pool, slot) = k.retry(now, token, pools, routers);
                    k.dispatch(now, pools, pool, slot)?;
                }
            }
            if k.settled(admitted) {
                break;
            }
        }
        Ok(k.finish(admitted))
    }
}

/// The critical-path rollback a restore-aware router charges a slot
/// that must restore before admitting a principal (§4.4's
/// deferred-restore mode), from the paper's measured restore time.
pub(super) fn restore_cost(pool: &Pool) -> Nanos {
    Nanos::from_millis_f64(pool.spec.paper_restore_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, RetryPolicy};
    use crate::fleet::RoutePolicy;
    use gh_functions::catalog::by_name;
    use gh_isolation::StrategyKind;
    use groundhog_core::GroundhogConfig;

    /// What [`drive`] saw: the run's tally, the spent park table's
    /// length, and how many retries were requeued on the slot they died
    /// on (`[0]`) and elsewhere (`[1]`).
    struct Driven {
        tally: Tally,
        parked: usize,
        requeued: [u64; 2],
    }

    /// Drives `n` arrivals, 2 ms apart, through a 2-slot least-loaded
    /// pool and checks the queued counter against the queues after
    /// every step.
    fn drive(plan: Option<FaultPlan>, n: usize) -> Driven {
        let spec = by_name("fannkuch (p)").unwrap();
        let mut pools =
            [Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 9).unwrap()];
        let mut routers = [Router::new(RoutePolicy::LeastLoaded)];
        let t0 = pools[0].slots.iter().map(|s| s.ready_at).max().unwrap();
        let mut k: Backend = Backend::new(plan);
        let mut admitted = 0;
        let mut requeued = [0; 2];
        k.events.schedule(t0, Event::Arrival);
        while let Some((now, ev)) = k.events.pop() {
            match ev {
                Event::Arrival => {
                    admitted += 1;
                    let p = Pending {
                        id: admitted as u64,
                        principal: "client".into(),
                        input_kb: spec.input_kb,
                        arrival: now,
                        payload_hash: 0,
                        idempotent: false,
                        attempt: 1,
                    };
                    let slot = k.admit(now, &mut pools, &mut routers, 0, p);
                    if admitted < n {
                        k.events
                            .schedule(now + Nanos::from_millis(2), Event::Arrival);
                    }
                    k.dispatch(now, &mut pools, 0, slot).unwrap();
                }
                Event::Ready(p, s) => {
                    k.ready(now, &mut pools, p as usize, s as usize).unwrap();
                }
                Event::Retry(token) => {
                    let died = k.parked[token as usize].as_ref().unwrap().2 as usize;
                    let (p, s) = k.retry(now, token, &mut pools, &mut routers);
                    requeued[usize::from(s != died)] += 1;
                    k.dispatch(now, &mut pools, p, s).unwrap();
                }
            }
            assert_eq!(
                k.queued,
                pools[0].queued(),
                "queued counter after every step"
            );
        }
        assert!(
            k.parked.iter().all(Option::is_none),
            "the park table drains"
        );
        let parked = k.parked.len();
        Driven {
            tally: k.finish(admitted),
            parked,
            requeued,
        }
    }

    fn faulty(retry: RetryPolicy) -> Option<FaultPlan> {
        Some(FaultPlan::new(FaultConfig {
            restore_failure_rate: 0.1,
            retry,
            ..FaultConfig::deaths(4, 0.3)
        }))
    }

    #[test]
    fn fault_free_kernel_serves_everything_and_parks_nothing() {
        let d = drive(None, 60);
        assert_eq!(d.tally.completed, 60);
        assert_eq!(d.tally.sojourns.len(), 60);
        assert!(d.tally.faults.is_empty());
        assert_eq!(d.parked, 0);
    }

    #[test]
    fn both_retry_policies_conserve_requests() {
        for retry in [RetryPolicy::bounded(), RetryPolicy::rerouting()] {
            let Driven {
                tally: t,
                parked,
                requeued,
            } = drive(faulty(retry), 120);
            let f = t.faults;
            assert!(f.deaths > 0 && f.restore_failures > 0, "{retry:?}: {f:?}");
            assert!(
                f.abandoned > 0,
                "{retry:?}: 30% deaths exhaust some budgets"
            );
            assert_eq!(t.completed + f.abandoned as usize, 120, "{retry:?}");
            assert_eq!(f.retries, f.deaths - f.abandoned, "{retry:?}");
            assert_eq!(parked as u64, f.retries, "{retry:?}: one token per retry");
            assert_eq!(t.sojourns.len(), t.completed as u64, "{retry:?}");
            // With two active slots, a rerouted retry always moves and a
            // retry-after-restore never does.
            let expected = if retry.reroute {
                [0, f.retries]
            } else {
                [f.retries, 0]
            };
            assert_eq!(requeued, expected, "{retry:?}");
        }
    }

    #[test]
    fn run_is_the_stepped_loop_ended_at_settled() {
        // `drive` steps the kernel until its queue is empty; `run` stops
        // once the run is settled, so the two agree on every served
        // request and fault, and `run` skips only the idle slots'
        // trailing zero-depth `Ready` samples.
        let spec = by_name("fannkuch (p)").unwrap();
        for plan in [
            None,
            faulty(RetryPolicy::bounded()),
            faulty(RetryPolicy::rerouting()),
        ] {
            let stepped = drive(plan, 120).tally;
            let mut pools =
                [Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 9).unwrap()];
            let mut routers = [Router::new(RoutePolicy::LeastLoaded)];
            let t0 = pools[0].slots.iter().map(|s| s.ready_at).max().unwrap();
            let arrivals = (0..120u64).map(|i| {
                let p = Pending {
                    id: i + 1,
                    principal: "client".into(),
                    input_kb: spec.input_kb,
                    arrival: t0 + Nanos::from_millis(2 * i),
                    payload_hash: 0,
                    idempotent: false,
                    attempt: 1,
                };
                (0, p)
            });
            let run = Backend::run(plan, &mut pools, &mut routers, arrivals, 120, None).unwrap();
            assert_eq!(run.completed, stepped.completed);
            assert_eq!(run.sojourns, stepped.sojourns, "same sojourns, same order");
            assert_eq!(run.faults, stepped.faults);
            assert!(
                run.depth.mean() > stepped.depth.mean(),
                "the stepped loop adds trailing zero-depth samples"
            );
        }
    }

    #[test]
    #[should_panic(expected = "run ended unsettled")]
    fn finish_rejects_an_unsettled_run() {
        let mut k: Backend = Backend::new(None);
        k.tally = drive(None, 5).tally;
        k.finish(6);
    }
}
