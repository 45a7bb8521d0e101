//! The container pool: N containers of one function on interleaved
//! virtual timelines.
//!
//! Each [`Slot`] wraps a [`Container`] with the scheduling state the
//! fleet needs — its admission queue, the virtual times at which its
//! current response leaves and its restore completes, and the
//! accounting that yields per-container utilization and the
//! restore-overlap ratio (how much restoration hid in idle gaps rather
//! than delaying a request).
//!
//! The pool also owns the **shared snapshot store**
//! ([`gh_mem::SnapshotStore`]): every GH container's clean-state pages
//! are interned into it at cold start, so pool snapshot memory is one
//! deduplicated base image plus per-container deltas instead of
//! `pool_size ×` private copies. [`Pool::memory`] reports the dedup
//! ratio and the resident bytes per container that
//! [`FleetStats`](super::FleetStats) surfaces.

use gh_functions::FunctionSpec;
use gh_isolation::{StrategyError, StrategyKind};
use gh_mem::{SnapshotStore, StoreHandle};
use gh_sim::{DetRng, Nanos};
use groundhog_core::GroundhogConfig;

use crate::container::Container;
use crate::request::Request;

use super::queue::{AdmissionQueue, Pending};

/// What one dispatch produced, as the fleet's event loop sees it.
#[derive(Clone, Copy, Debug)]
pub struct Dispatched {
    /// Sojourn time (arrival at the router → response), queueing included.
    pub sojourn: Nanos,
    /// Virtual time the response left the container.
    pub resp_at: Nanos,
    /// Virtual time the container is provably clean again.
    pub ready_at: Nanos,
    /// Id of the request this dispatch served.
    pub id: u64,
    /// Payload hash carried from the [`Pending`]
    /// request — lets the gateway fill its result cache without a side
    /// table.
    pub payload_hash: u64,
    /// Idempotency flag carried from the request.
    pub idempotent: bool,
    /// Response payload size, KiB (what a result cache stores).
    pub output_kb: u64,
}

/// One pool slot: a container plus its scheduling state.
pub struct Slot {
    /// The warm container.
    pub container: Container,
    /// Requests assigned here, waiting for the container to be clean.
    pub queue: AdmissionQueue,
    /// Virtual time the in-flight response leaves (equals `ready_at` for
    /// strategies with no off-path work).
    pub resp_at: Nanos,
    /// Virtual time the container is clean and idle again.
    pub ready_at: Nanos,
    /// Accumulated busy time (execution + restore).
    pub busy: Nanos,
    /// Accumulated off-critical-path (restore/teardown) time.
    pub restore_total: Nanos,
    /// Portion of `restore_total` that overlapped idle gaps instead of
    /// delaying a request.
    pub restore_hidden: Nanos,
    /// Off-path span of the most recent invocation, not yet classified
    /// as hidden or exposed (resolved at the next dispatch).
    pending_restore: Nanos,
    /// Response time of the most recent invocation.
    prev_resp_at: Nanos,
    /// Requests served.
    pub served: u64,
    /// First-touch lazy-restore faults taken inside requests on this
    /// container (lazy restore mode; the amortized half of the restore
    /// work whose critical-path half `restore_total` no longer carries).
    pub lazy_faults: u64,
    /// Global virtual time this slot joined the pool.
    pub spawned_at: Nanos,
    /// A retired slot serves its queue dry but receives no new requests.
    pub retired: bool,
}

impl Slot {
    fn new(container: Container, spawned_at: Nanos) -> Slot {
        let ready_at = container.now();
        Slot {
            container,
            queue: AdmissionQueue::new(),
            resp_at: ready_at,
            ready_at,
            busy: Nanos::ZERO,
            restore_total: Nanos::ZERO,
            restore_hidden: Nanos::ZERO,
            pending_restore: Nanos::ZERO,
            prev_resp_at: Nanos::ZERO,
            served: 0,
            lazy_faults: 0,
            spawned_at,
            retired: false,
        }
    }

    /// True when the slot can start a request at `now`: its restore is
    /// complete (readiness event reached) and nothing is in flight.
    pub fn idle_at(&self, now: Nanos) -> bool {
        self.ready_at <= now
    }

    /// Load as a restore-*unaware* observer sees it: queued requests
    /// plus the one in flight. A slot that is mid-restore (response
    /// gone, restore running) looks idle from here — that blindness is
    /// exactly what [`RoutePolicy::RestoreAware`] fixes.
    ///
    /// [`RoutePolicy::RestoreAware`]: super::router::RoutePolicy::RestoreAware
    pub fn visible_load(&self, now: Nanos) -> usize {
        self.queue.len() + usize::from(self.resp_at > now)
    }

    /// Dispatches the head-of-queue request at `now` (which must be ≥
    /// `ready_at`). Advances this container's timeline through
    /// execution and off-path restore, and settles the restore-hiding
    /// accounting for the *previous* invocation.
    pub fn dispatch(&mut self, now: Nanos) -> Result<Option<Dispatched>, StrategyError> {
        if !self.idle_at(now) {
            return Ok(None);
        }
        let Some(pending) = self.queue.pop() else {
            return Ok(None);
        };
        self.settle_previous(&pending);
        self.container.kernel.clock.advance_to(now);
        let start = self.container.now();
        let req = Request::new(pending.id, &pending.principal, pending.input_kb);
        let out = self.container.invoke(&req)?;
        self.resp_at = out.response.completed_at;
        self.ready_at = out.ready_at;
        self.busy += out.invoker_latency + out.off_path;
        self.restore_total += out.off_path;
        self.pending_restore = out.off_path;
        self.prev_resp_at = self.resp_at;
        self.served += 1;
        self.lazy_faults += out.exec.faults.lazy;
        Ok(Some(Dispatched {
            sojourn: (start - pending.arrival) + out.invoker_latency,
            resp_at: self.resp_at,
            ready_at: self.ready_at,
            id: pending.id,
            payload_hash: pending.payload_hash,
            idempotent: pending.idempotent,
            output_kb: out.response.output_kb,
        }))
    }

    /// Settles the previous restore before the container takes
    /// `pending`: the part of it that finished before the request
    /// arrived hid in an idle gap; the rest delayed the request.
    fn settle_previous(&mut self, pending: &Pending) {
        if !self.pending_restore.is_zero() {
            let hidden_end = pending.arrival.max(self.prev_resp_at).min(self.ready_at);
            self.restore_hidden += hidden_end - self.prev_resp_at;
            self.pending_restore = Nanos::ZERO;
        }
    }

    /// Settles trailing restore time at end of run: a restore nothing
    /// ever waited on is fully hidden.
    pub fn settle(&mut self) {
        self.restore_hidden += self.pending_restore;
        self.pending_restore = Nanos::ZERO;
    }

    /// Fault injection: the container dies `frac` of the way through
    /// executing the head-of-queue request. The request produces no
    /// response; the container's timeline is charged the partial
    /// execution plus a full re-initialization (its cold-start time)
    /// before it can admit anything again. Returns the killed request
    /// and the recovery-complete time, or `None` when the slot is not
    /// idle or has nothing queued (same preconditions as
    /// [`Slot::dispatch`]).
    pub fn crash(&mut self, now: Nanos, frac: f64) -> Option<(Pending, Nanos)> {
        if !self.idle_at(now) {
            return None;
        }
        let pending = self.queue.pop()?;
        // The previous restore completed before the crash; classify it
        // exactly as a normal dispatch would.
        self.settle_previous(&pending);
        self.container.kernel.clock.advance_to(now);
        let nominal = Nanos::from_millis_f64(self.container.spec.base_invoker_ms);
        let partial = nominal.scale(frac.clamp(0.0, 1.0));
        let recovery = self.container.stats.init_time;
        self.container.kernel.charge(partial + recovery);
        let ready = self.container.now();
        self.busy += partial + recovery;
        self.resp_at = ready;
        self.prev_resp_at = ready;
        self.ready_at = ready;
        Some((pending, ready))
    }

    /// Fault injection: the off-path snapshot writeback of the dispatch
    /// that just completed aborts — the container must cold-start
    /// before admitting anything else. Charges the re-initialization on
    /// top of the (already charged) aborted restore and returns the new
    /// readiness time. The aborted restore counts as exposed (it never
    /// hid anything: the slot was down for the cold start anyway).
    pub fn fail_restore(&mut self) -> Nanos {
        let recovery = self.container.stats.init_time;
        self.container.kernel.charge(recovery);
        let ready = self.container.now();
        self.busy += recovery;
        self.pending_restore = Nanos::ZERO;
        self.ready_at = ready;
        ready
    }
}

/// Pool-level snapshot-memory figures (from the shared store).
#[derive(Clone, Copy, Debug)]
pub struct PoolMemory {
    /// Logical snapshot pages across all live container snapshots.
    pub logical_pages: u64,
    /// Unique frames resident in the shared store.
    pub unique_frames: u64,
    /// Deduplication ratio (logical pages per unique frame; 1.0 = no
    /// sharing or no store use).
    pub dedup_ratio: f64,
    /// Pages deduplicated through the store's content-hash index
    /// (identical content at another vpn / identical deltas across
    /// snapshots) — sharing the per-vpn base match alone would miss.
    pub hash_hits: u64,
    /// Bytes resident in the shared store plus every container's private
    /// reference table.
    pub resident_bytes: u64,
    /// `resident_bytes / pool size`.
    pub resident_bytes_per_container: f64,
}

/// A pool of containers serving one deployed function.
pub struct Pool {
    /// The deployed function.
    pub spec: FunctionSpec,
    /// Isolation strategy every container runs.
    pub kind: StrategyKind,
    gh: GroundhogConfig,
    /// Per-slot state. Retired slots stay (their stats matter); the
    /// router skips them.
    pub slots: Vec<Slot>,
    /// The pool-shared snapshot store every GH container interns its
    /// clean-state pages into.
    store: StoreHandle,
    /// Seed source for containers spawned after construction.
    spawn_rng: DetRng,
}

impl Pool {
    /// Cold-starts `size` containers of `spec` under `kind`, all sharing
    /// one snapshot store.
    ///
    /// Slot 0 uses `seed` directly — a pool of one is therefore
    /// timeline-identical to a single [`Container::cold_start`] with the
    /// same seed (the shared store charges eager-snapshot cost), which
    /// keeps the single-container open-loop semantics stable.
    ///
    /// Returns [`StrategyError::EmptyPool`] when `size` is 0.
    pub fn build(
        spec: &FunctionSpec,
        kind: StrategyKind,
        gh: GroundhogConfig,
        size: usize,
        seed: u64,
    ) -> Result<Pool, StrategyError> {
        if size == 0 {
            return Err(StrategyError::EmptyPool);
        }
        let store = SnapshotStore::new_handle();
        let mut spawn_rng = DetRng::new(seed ^ 0x9001_5EED_F1EE_7000);
        let mut slots = Vec::with_capacity(size);
        for i in 0..size {
            let s = if i == 0 { seed } else { spawn_rng.next_u64() };
            let c = Container::cold_start_pooled(spec, kind, gh.clone(), s, Some(store.clone()))?;
            slots.push(Slot::new(c, Nanos::ZERO));
        }
        Ok(Pool {
            spec: spec.clone(),
            kind,
            gh,
            slots,
            store,
            spawn_rng,
        })
    }

    /// The shared snapshot store.
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// Pool-level snapshot-memory accounting: dedup ratio and resident
    /// bytes per container. For strategies without a manager snapshot
    /// (BASE, FORK, FAASM, FRESH) the store is empty and the ratio is
    /// 1.0.
    pub fn memory(&self) -> PoolMemory {
        let st = self.store.lock().expect("store poisoned");
        let table_bytes: u64 = self
            .slots
            .iter()
            .filter_map(|s| match &s.container.strategy {
                gh_isolation::Strategy::Gh(m) => m.snapshot().map(|sn| sn.memory_bytes()),
                _ => None,
            })
            .sum();
        let resident_bytes = st.resident_bytes() + table_bytes;
        let size = self.slots.len().max(1) as f64;
        PoolMemory {
            logical_pages: st.stats().logical_pages,
            unique_frames: st.live_frames() as u64,
            dedup_ratio: st.dedup_ratio(),
            hash_hits: st.stats().hash_hits,
            resident_bytes,
            resident_bytes_per_container: resident_bytes as f64 / size,
        }
    }

    /// Number of routable (non-retired) slots.
    pub fn active(&self) -> usize {
        self.slots.iter().filter(|s| !s.retired).count()
    }

    /// Total requests waiting across all admission queues.
    pub fn queued(&self) -> usize {
        self.slots.iter().map(|s| s.queue.len()).sum()
    }

    /// Cold-starts one more container at global time `now`; it becomes
    /// ready after its full Fig. 1 initialization. Returns the new
    /// slot's index and its readiness time.
    pub fn grow(&mut self, now: Nanos) -> Result<(usize, Nanos), StrategyError> {
        let seed = self.spawn_rng.next_u64();
        let c = Container::cold_start_pooled(
            &self.spec,
            self.kind,
            self.gh.clone(),
            seed,
            Some(self.store.clone()),
        )?;
        let init = c.stats.init_time;
        let mut slot = Slot::new(c, now);
        // The new container's timeline starts at the global present; its
        // init time has already been charged on its own clock.
        let ready = now + init;
        slot.container.kernel.clock.advance_to(ready);
        slot.resp_at = ready;
        slot.ready_at = ready;
        let idx = self.slots.len();
        self.slots.push(slot);
        Ok((idx, ready))
    }

    /// Marks a slot retired (it drains its queue, then idles forever).
    /// Returns false when the slot is already retired.
    pub fn retire(&mut self, idx: usize) -> bool {
        let slot = &mut self.slots[idx];
        if slot.retired {
            return false;
        }
        slot.retired = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::queue::Pending;
    use gh_functions::catalog::by_name;

    fn pool(kind: StrategyKind, size: usize) -> Pool {
        let spec = by_name("fannkuch (p)").unwrap();
        Pool::build(&spec, kind, GroundhogConfig::gh(), size, 42).unwrap()
    }

    #[test]
    fn empty_pool_is_an_error() {
        let spec = by_name("fannkuch (p)").unwrap();
        for kind in [StrategyKind::Gh, StrategyKind::Base] {
            let built = Pool::build(&spec, kind, GroundhogConfig::gh(), 0, 42);
            assert!(matches!(built, Err(StrategyError::EmptyPool)), "{kind:?}");
        }
    }

    fn enqueue(slot: &mut Slot, id: u64, at: Nanos) {
        slot.queue.push(Pending {
            id,
            principal: "alice".into(),
            input_kb: 1,
            arrival: at,
            payload_hash: 0,
            idempotent: false,
            attempt: 1,
        });
    }

    #[test]
    fn pool_of_one_matches_single_cold_start() {
        let spec = by_name("fannkuch (p)").unwrap();
        let p = pool(StrategyKind::Gh, 1);
        let lone =
            Container::cold_start(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 42).unwrap();
        assert_eq!(p.slots[0].container.now(), lone.now(), "identical timeline");
    }

    #[test]
    fn dispatch_tracks_readiness_and_busy_time() {
        let mut p = pool(StrategyKind::Gh, 1);
        let t0 = p.slots[0].container.now();
        enqueue(&mut p.slots[0], 1, t0);
        let d = p.slots[0].dispatch(t0).unwrap().unwrap();
        assert!(d.resp_at > t0);
        assert!(
            d.ready_at > d.resp_at,
            "GH restore keeps the slot busy past the response"
        );
        assert_eq!(p.slots[0].ready_at, d.ready_at);
        assert!(p.slots[0].busy > Nanos::ZERO);
        assert!(p.slots[0].restore_total > Nanos::ZERO);
        assert_eq!(p.slots[0].served, 1);
        // Mid-restore the slot is not idle, but a restore-unaware
        // observer already sees it as free.
        let mid = d.resp_at + (d.ready_at - d.resp_at) / 2;
        assert!(!p.slots[0].idle_at(mid));
        assert_eq!(p.slots[0].visible_load(mid), 0);
    }

    #[test]
    fn dispatch_refuses_while_busy_or_empty() {
        let mut p = pool(StrategyKind::Gh, 1);
        let t0 = p.slots[0].container.now();
        assert!(p.slots[0].dispatch(t0).unwrap().is_none(), "empty queue");
        enqueue(&mut p.slots[0], 1, t0);
        let d = p.slots[0].dispatch(t0).unwrap().unwrap();
        enqueue(&mut p.slots[0], 2, t0);
        assert!(
            p.slots[0].dispatch(d.resp_at).unwrap().is_none(),
            "restoring"
        );
        assert!(
            p.slots[0].dispatch(d.ready_at).unwrap().is_some(),
            "clean again"
        );
    }

    #[test]
    fn crash_kills_request_and_charges_recovery() {
        let mut p = pool(StrategyKind::Gh, 1);
        let t0 = p.slots[0].container.now();
        enqueue(&mut p.slots[0], 1, t0);
        let (killed, ready) = p.slots[0].crash(t0, 0.5).unwrap();
        assert_eq!(killed.id, 1);
        assert_eq!(p.slots[0].served, 0, "a crashed attempt serves nothing");
        let init = p.slots[0].container.stats.init_time;
        assert!(
            ready >= t0 + init,
            "recovery re-pays the full cold-start init"
        );
        assert!(!p.slots[0].idle_at(ready - Nanos::from_nanos(1)));
        assert!(p.slots[0].idle_at(ready));
        // The recovered container serves normally afterwards.
        enqueue(&mut p.slots[0], 2, ready);
        let d = p.slots[0].dispatch(ready).unwrap().unwrap();
        assert_eq!(d.id, 2);
    }

    #[test]
    fn fail_restore_extends_readiness_by_init() {
        let mut p = pool(StrategyKind::Gh, 1);
        let t0 = p.slots[0].container.now();
        enqueue(&mut p.slots[0], 1, t0);
        let d = p.slots[0].dispatch(t0).unwrap().unwrap();
        let init = p.slots[0].container.stats.init_time;
        let ready = p.slots[0].fail_restore();
        assert_eq!(ready, d.ready_at + init);
        assert_eq!(p.slots[0].ready_at, ready);
    }

    #[test]
    fn restore_fully_hidden_when_next_arrival_is_late() {
        let mut p = pool(StrategyKind::Gh, 1);
        let t0 = p.slots[0].container.now();
        enqueue(&mut p.slots[0], 1, t0);
        let d = p.slots[0].dispatch(t0).unwrap().unwrap();
        // Next request arrives long after the restore completed.
        let late = d.ready_at + Nanos::from_millis(50);
        enqueue(&mut p.slots[0], 2, late);
        p.slots[0].dispatch(late).unwrap().unwrap();
        p.slots[0].settle();
        assert_eq!(
            p.slots[0].restore_hidden, p.slots[0].restore_total,
            "both restores hid in idle gaps"
        );
    }

    #[test]
    fn restore_exposed_when_request_waits_on_it() {
        let mut p = pool(StrategyKind::Gh, 1);
        let t0 = p.slots[0].container.now();
        enqueue(&mut p.slots[0], 1, t0);
        let d = p.slots[0].dispatch(t0).unwrap().unwrap();
        // Second request arrived while the first still executed: the whole
        // restore delays it.
        enqueue(&mut p.slots[0], 2, t0 + Nanos::from_micros(1));
        p.slots[0].dispatch(d.ready_at).unwrap().unwrap();
        p.slots[0].settle();
        let first_restore = d.ready_at - d.resp_at;
        assert_eq!(
            p.slots[0].restore_hidden,
            p.slots[0].restore_total - first_restore,
            "first restore fully exposed, trailing one hidden"
        );
    }

    #[test]
    fn grow_adds_container_after_cold_start_delay() {
        let mut p = pool(StrategyKind::Gh, 2);
        let now = Nanos::from_secs(10);
        let (idx, ready) = p.grow(now).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(p.slots.len(), 3);
        assert!(
            ready > now + Nanos::from_millis(500),
            "Fig. 1 init is 100s of ms"
        );
        assert!(!p.slots[idx].idle_at(now));
        assert!(p.slots[idx].idle_at(ready));
        assert_eq!(p.active(), 3);
    }

    #[test]
    fn retire_excludes_from_active() {
        let mut p = pool(StrategyKind::Base, 3);
        assert!(p.retire(1));
        assert!(!p.retire(1), "idempotent");
        assert_eq!(p.active(), 2);
    }

    #[test]
    fn pool_snapshots_dedup_in_shared_store() {
        let p = pool(StrategyKind::Gh, 4);
        let m = p.memory();
        let one_snapshot_bytes = p.slots[0]
            .container
            .stats
            .prepare
            .as_ref()
            .unwrap()
            .snapshot_pages
            .unwrap()
            * gh_mem::PAGE_SIZE;
        let per_container: u64 = p
            .slots
            .iter()
            .map(|s| {
                s.container
                    .stats
                    .prepare
                    .as_ref()
                    .unwrap()
                    .snapshot_pages
                    .unwrap()
            })
            .sum();
        assert_eq!(
            m.logical_pages, per_container,
            "every snapshot page accounted"
        );
        assert!(
            m.dedup_ratio > 3.5,
            "4 near-identical containers must share, got {:.2}",
            m.dedup_ratio
        );
        assert!(
            m.resident_bytes < one_snapshot_bytes * 3 / 2,
            "pool of 4 holds {} B vs one snapshot {} B",
            m.resident_bytes,
            one_snapshot_bytes
        );
        assert!(m.resident_bytes_per_container < one_snapshot_bytes as f64 / 2.0);
    }

    #[test]
    fn non_gh_pool_has_empty_store() {
        let p = pool(StrategyKind::Base, 3);
        let m = p.memory();
        assert_eq!(m.unique_frames, 0);
        assert_eq!(m.dedup_ratio, 1.0);
        assert_eq!(m.resident_bytes, 0);
    }

    #[test]
    fn grown_containers_join_the_shared_store() {
        let mut p = pool(StrategyKind::Gh, 2);
        let before = p.memory();
        p.grow(Nanos::from_secs(1)).unwrap();
        let after = p.memory();
        assert!(after.logical_pages > before.logical_pages);
        assert!(
            after.unique_frames < before.unique_frames + before.unique_frames / 4,
            "the grown container dedups against the base: {} vs {}",
            after.unique_frames,
            before.unique_frames
        );
    }
}
