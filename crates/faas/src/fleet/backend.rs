//! The dispatch kernel: the one definition of an attempt, and the one
//! event loop that drives fleets, gateways and cluster nodes, one pool
//! at a time.
//!
//! Groundhog runs at most one request per container at a time and
//! buffers inputs until the container is provably clean (§4.5). The
//! fault layer ([`crate::fault`]) carries that discipline to failed
//! attempts: a container may die mid-request (crash, recovery cold
//! start, park, backoff, then retry or abandon) or fail its restore.
//! [`Backend`] holds those semantics once. The kernel owns the fault
//! plan, the park table, a queued counter and its runs' [`Tally`].
//!
//! Three steps over one event enum ([`Event`]), each on one pool and its
//! router:
//!
//! - [`Backend::admit`] routes a request, enqueues it and samples the
//!   queue depth;
//! - [`Backend::dispatch`] is the only fault-aware attempt: the clean
//!   slot's head either crashes (then is parked for a retry or
//!   abandoned) or is served (then may fail its restore). It schedules
//!   the slot's `Ready` edge and any `Retry`;
//! - [`Backend::retry`] unparks a request whose backoff elapsed and
//!   requeues it on the slot it died on or, under a rerouting
//!   [`RetryPolicy`](crate::fault::RetryPolicy), on another slot of the
//!   pool, then samples the queue depth.
//!
//! [`Backend::run`] is the loop over those steps for one pool, and the
//! only loop that admits, attempts and releases requests, so every
//! request executes in its event order. The body the fleet and the
//! gateway share (`Fleet::drive`, behind [`super::Fleet::run`] and
//! [`crate::gateway::GatewayFleet::run`]) runs it on the caller's
//! thread, and every cluster node ([`crate::cluster`]) runs it once per
//! pool through one reused kernel. Each run passes a [`Gate`], the
//! gateway's per-run policies (a fleet arms only its autoscaler, a node
//! none); a slot the gate grows announces its first readiness as
//! [`Event::Grown`]. Groundhog serves one request per container and
//! rolls it back between invocations (§3.1, §4), and a retry stays in
//! its pool, so two pools share no state and no loop ever runs two.
//! Each run ends at the first event after which it is
//! [`settled`](Backend::settled): a fleet and a one-node cluster fed the
//! same arrivals are the same machine. It then empties its timeline and
//! park table, so the next run starts as a fresh kernel does. The loop
//! holds its next arrival outside the heap under the insertion number
//! its `Arrival` event would have taken, so ties break as if it were
//! scheduled, and each arrival saves a heap push and pop.
//!
//! With no plan the kernel draws nothing and schedules no retry, so a
//! fault-free run is the fault-free reference bit for bit. The kernel
//! schedules in a fixed order — on a crash the `Retry` before the
//! `Ready`; on a completion the `Ready` before the gate's cache expiry —
//! because schedule order breaks ties on the virtual timeline.

use gh_isolation::StrategyError;
use gh_sim::event::EventQueue;
use gh_sim::{Nanos, QuantileSketch};

use crate::fault::{FaultPlan, FaultStats};
use crate::gateway::Gate;

use super::pool::{Dispatched, Pool};
use super::queue::{DepthTracker, Pending};
use super::router::Router;

/// Events on a run's virtual timeline.
pub(crate) enum Event {
    /// The run's next arrival is due.
    Arrival,
    /// The slot at this index finished its restore or recovery and is
    /// provably clean: an attempt ended, which releases the gate's
    /// concurrency ceiling.
    Ready(u32),
    /// The slot at this index, grown mid-run by the gate's pre-warmer or
    /// autoscaler, finished its cold start: its first readiness, which
    /// ends no attempt and so never releases the ceiling.
    Grown(u32),
    /// A killed request's backoff elapsed (its token in the park table).
    Retry(u32),
    /// A result-cache entry reached its TTL deadline.
    CacheExpire,
    /// The function was redeployed: the gate's cached results of the old
    /// deployment are dropped.
    Redeploy,
}

/// What one or more runs measured. Tallies merge exactly, so per-pool
/// and per-node tallies fold into a cluster-wide one independent of
/// execution order.
#[derive(Default)]
pub(crate) struct Tally {
    /// Sojourns of served requests, integer nanoseconds.
    pub sojourns: QuantileSketch,
    /// Queue depth of the run's pool, summed over its slots' admission
    /// queues and sampled at every admission, retry and `Ready` edge
    /// until the run settles. Merged over runs, it is the depth of a
    /// function's pool.
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

/// The dispatch state of one pool's run (see the module docs). A kernel
/// may run several pools one after another, adding each run to its
/// tally.
pub(crate) struct Backend {
    /// The run's timeline. Drivers may schedule `Redeploy` events here
    /// before a run; the run schedules everything else.
    pub events: EventQueue<Event>,
    /// What the kernel's runs have measured so far.
    pub tally: Tally,
    plan: Option<FaultPlan>,
    /// Killed requests waiting out their backoff, with the slot they died
    /// on; a `Retry` event carries the index.
    parked: Vec<Option<(Pending, u32)>>,
    parked_live: usize,
    /// Requests waiting across the pool's admission queues.
    queued: usize,
}

impl Backend {
    /// A kernel under `plan` (`None`: fault-free).
    pub fn new(plan: Option<FaultPlan>) -> Backend {
        Backend {
            events: EventQueue::new(),
            tally: Tally::default(),
            plan,
            parked: Vec::new(),
            parked_live: 0,
            queued: 0,
        }
    }

    /// Routes `p` to a slot of `pool`, enqueues it and samples the queue
    /// depth. Returns the slot.
    pub fn admit(&mut self, now: Nanos, pool: &mut Pool, router: &mut Router, p: Pending) -> usize {
        let slot = router.route(now, &p.principal, restore_cost(pool), &pool.slots);
        self.enqueue(pool, slot, p);
        slot
    }

    /// Unparks the request behind `token` and requeues it on the slot it
    /// died on, or on another slot of `pool` when the plan reroutes, then
    /// samples the queue depth. Returns the slot.
    pub fn retry(&mut self, now: Nanos, token: u32, pool: &mut Pool, router: &mut Router) -> usize {
        let (p, died) = self.parked[token as usize]
            .take()
            .expect("retry token fires once");
        self.parked_live -= 1;
        let died = died as usize;
        let slot = if self.plan.is_some_and(|pl| pl.config().retry.reroute) {
            let cost = restore_cost(pool);
            router.route_avoiding(now, &p.principal, cost, &pool.slots, Some(died))
        } else {
            died
        };
        self.enqueue(pool, slot, p);
        slot
    }

    fn enqueue(&mut self, pool: &mut Pool, slot: usize, p: Pending) {
        pool.slots[slot].queue.push(p);
        self.queued += 1;
        self.tally.depth.record(self.queued);
    }

    /// One attempt by slot `slot` of `pool` at `now`, if it is clean and
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
        pool: &mut Pool,
        slot: usize,
    ) -> Result<Option<Dispatched>, StrategyError> {
        let s = &mut pool.slots[slot];
        let ready_edge = Event::Ready(slot as u32);
        let head = match self.plan {
            Some(plan) if s.idle_at(now) => s.queue.peek().map(|p| (plan, p.id, p.attempt)),
            _ => None,
        };
        if let Some((plan, id, attempt)) = head {
            if let Some(frac) = plan.death(id, attempt) {
                let Some((mut p, ready)) = s.crash(now, frac) else {
                    return Ok(None);
                };
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
                    self.parked.push(Some((p, slot as u32)));
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
        pool: &mut Pool,
        slot: usize,
    ) -> Result<Option<Dispatched>, StrategyError> {
        let d = self.dispatch(now, pool, slot)?;
        self.tally.depth.record(self.queued);
        Ok(d)
    }

    /// The run's next event: its next arrival, held back outside the
    /// heap at `arrival` (its time and the insertion number its
    /// `Arrival` event would have taken), when it comes before every
    /// scheduled event; else the earliest scheduled one.
    fn next_event(&mut self, arrival: Option<(Nanos, u64)>) -> Option<(Nanos, Event)> {
        match (arrival, self.events.peek()) {
            (Some(due), next) if next.is_none_or(|n| due < n) => Some((due.0, Event::Arrival)),
            _ => self.events.pop(),
        }
    }

    /// True once each of `admitted` requests was served or abandoned and
    /// nothing waits in a queue or the park table.
    pub fn settled(&self, admitted: usize) -> bool {
        let t = &self.tally;
        t.completed + t.faults.abandoned as usize == admitted
            && self.queued == 0
            && self.parked_live == 0
    }

    /// Ends the kernel's runs and returns its tally. Conservation is
    /// checked in every build, since benchmarks run release builds only:
    /// nothing is queued or parked, and served + abandoned == `admitted`.
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

    /// One run of `pool` behind `gate`: passes each of `arrivals` (a
    /// principal index, the token-bucket key, and the request) through
    /// the gate at its arrival time to be answered, shed, deferred or
    /// admitted and attempted; retries what dies; and at every `Ready`
    /// edge releases the ceiling, admits and attempts each deferral that
    /// fits, then attempts the slot. Stops at the first event after which
    /// every arrival is resolved and nothing waits. The next arrival waits
    /// outside the heap under the insertion number its `Arrival` event
    /// would have taken, the first one's taken after any events already
    /// scheduled: a passed arrival is admitted, the next one takes its
    /// number, the slot attempts, then the gate may scale. A settled run
    /// leaves idle slots' `Ready` edges, so it ends by emptying the
    /// timeline and park table: the next run starts as a fresh kernel.
    pub fn run(
        &mut self,
        pool: &mut Pool,
        router: &mut Router,
        mut arrivals: impl Iterator<Item = (u64, Pending)>,
        gate: &mut Gate,
    ) -> Result<(), StrategyError> {
        let mut admitted = self.tally.completed + self.tally.faults.abandoned as usize;
        let mut upcoming = arrivals.next().map(|a| (self.events.reserve(), a));
        while let Some((now, ev)) =
            self.next_event(upcoming.as_ref().map(|(n, (_, p))| (p.arrival, *n)))
        {
            match ev {
                Event::Arrival => {
                    let (_, (principal, p)) = upcoming.take().expect("an arrival is due");
                    let passed = gate.arrive(now, principal, p, &mut self.tally.sojourns);
                    let slot = passed.map(|p| self.admit(now, pool, router, p));
                    if slot.is_some() {
                        admitted += 1;
                        gate.admitted(now);
                    }
                    upcoming = arrivals.next().map(|a| (self.events.reserve(), a));
                    if let Some(slot) = slot {
                        let d = self.dispatch(now, pool, slot)?;
                        gate.fill(&mut self.events, d);
                        if let Some((idx, ready)) = gate.scale(now, pool, self.queued)? {
                            self.events.schedule(ready, Event::Grown(idx as u32));
                        }
                    }
                }
                Event::Ready(slot) => {
                    gate.release();
                    while let Some(p) = gate.undefer() {
                        let slot = self.admit(now, pool, router, p);
                        admitted += 1;
                        gate.admitted(now);
                        let d = self.dispatch(now, pool, slot)?;
                        gate.fill(&mut self.events, d);
                    }
                    let d = self.ready(now, pool, slot as usize)?;
                    gate.fill(&mut self.events, d);
                }
                Event::Grown(slot) => {
                    let d = self.ready(now, pool, slot as usize)?;
                    gate.fill(&mut self.events, d);
                }
                Event::Retry(token) => {
                    let slot = self.retry(now, token, pool, router);
                    gate.requeued();
                    let d = self.dispatch(now, pool, slot)?;
                    gate.fill(&mut self.events, d);
                }
                Event::CacheExpire => gate.expire(now),
                Event::Redeploy => gate.redeploy(),
            }
            if upcoming.is_none() && gate.idle() && self.settled(admitted) {
                break;
            }
        }
        self.events.reset();
        self.parked.clear();
        Ok(())
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
    use crate::fleet::{Fleet, RoutePolicy};
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
        let mut pool = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 9).unwrap();
        let mut router = Router::new(RoutePolicy::LeastLoaded);
        let t0 = Fleet::span_start(&pool);
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
                    let slot = k.admit(now, &mut pool, &mut router, p);
                    if admitted < n {
                        k.events
                            .schedule(now + Nanos::from_millis(2), Event::Arrival);
                    }
                    k.dispatch(now, &mut pool, slot).unwrap();
                }
                Event::Ready(s) => {
                    k.ready(now, &mut pool, s as usize).unwrap();
                }
                Event::Retry(token) => {
                    let died = k.parked[token as usize].as_ref().unwrap().1 as usize;
                    let s = k.retry(now, token, &mut pool, &mut router);
                    requeued[usize::from(s != died)] += 1;
                    k.dispatch(now, &mut pool, s).unwrap();
                }
                Event::Grown(_) | Event::CacheExpire | Event::Redeploy => {
                    unreachable!("no gate policy schedules these")
                }
            }
            assert_eq!(k.queued, pool.queued(), "queued counter after every step");
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

    /// `n` requests for `spec` from principal 0, 2 ms apart from `t0`,
    /// with ids from `first`.
    fn arrivals(
        spec: &gh_functions::FunctionSpec,
        t0: Nanos,
        first: u64,
        n: u64,
    ) -> impl Iterator<Item = (u64, Pending)> + '_ {
        (0..n).map(move |i| {
            let p = Pending {
                id: first + i,
                principal: "client".into(),
                input_kb: spec.input_kb,
                arrival: t0 + Nanos::from_millis(2 * i),
                payload_hash: 0,
                idempotent: false,
                attempt: 1,
            };
            (0, p)
        })
    }

    /// A fresh kernel's run of `n` requests through a fresh 2-slot pool
    /// of `name` under `policy`.
    fn fresh_run(
        plan: Option<FaultPlan>,
        name: &str,
        policy: RoutePolicy,
        first: u64,
        n: u64,
    ) -> Tally {
        let spec = by_name(name).unwrap();
        let mut pool = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 9).unwrap();
        let t0 = Fleet::span_start(&pool);
        let mut k: Backend = Backend::new(plan);
        let feed = arrivals(&spec, t0, first, n);
        k.run(
            &mut pool,
            &mut Router::new(policy),
            feed,
            &mut Gate::default(),
        )
        .unwrap();
        k.finish(n as usize)
    }

    #[test]
    fn run_is_the_stepped_loop_ended_at_settled() {
        // `drive` steps the kernel until its queue is empty; `run` stops
        // once the run is settled, so the two agree on every served
        // request and fault, and `run` skips only the idle slots'
        // trailing zero-depth `Ready` samples.
        for plan in [
            None,
            faulty(RetryPolicy::bounded()),
            faulty(RetryPolicy::rerouting()),
        ] {
            let stepped = drive(plan, 120).tally;
            let run = fresh_run(plan, "fannkuch (p)", RoutePolicy::LeastLoaded, 1, 120);
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
    fn one_kernel_runs_two_pools_as_two_fresh_kernels() {
        // A cluster node runs its pools back to back through one kernel.
        // Each settled run leaves its idle slots' `Ready` edges behind,
        // naming its own pool's slots, so it must end by emptying the
        // timeline and park table: then the reused kernel's tally is the
        // merge of two fresh runs, bit for bit.
        let pools = [("fannkuch (p)", 1, 90), ("md2html (p)", 91, 70)];
        for plan in [
            None,
            faulty(RetryPolicy::bounded()),
            faulty(RetryPolicy::rerouting()),
        ] {
            let mut k: Backend = Backend::new(plan);
            let mut merged = Tally::default();
            for (name, first, n) in pools {
                let spec = by_name(name).unwrap();
                let mut pool =
                    Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, 9).unwrap();
                let t0 = Fleet::span_start(&pool);
                let mut router = Router::new(RoutePolicy::RoundRobin);
                let feed = arrivals(&spec, t0, first, n);
                k.run(&mut pool, &mut router, feed, &mut Gate::default())
                    .unwrap();
                assert!(
                    k.events.is_empty(),
                    "{name}: a run leaves an empty timeline"
                );
                merged.merge(&fresh_run(plan, name, RoutePolicy::RoundRobin, first, n));
            }
            let reused = k.finish(160);
            let label = format!("{plan:?}");
            assert_eq!(reused.sojourns, merged.sojourns, "{label}");
            assert_eq!(reused.completed, merged.completed, "{label}");
            assert_eq!(reused.faults, merged.faults, "{label}");
            assert_eq!(
                reused.depth.mean().to_bits(),
                merged.depth.mean().to_bits(),
                "{label}"
            );
            assert_eq!(reused.depth.len(), merged.depth.len(), "{label}");
            assert_eq!(
                reused.depth.percentile(99.0),
                merged.depth.percentile(99.0),
                "{label}"
            );
            if plan.is_some() {
                assert!(reused.faults.retries > 0, "{label}: {:?}", reused.faults);
            }
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
