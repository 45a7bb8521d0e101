//! Executing a benchmark's workload against a simulated process.
//!
//! One invocation performs, in order: the runtime's layout churn, a GC
//! check (for GC-sensitive functions), the memory-leak behaviour (for
//! leaky functions), the function's page writes and reads (tainted with
//! the request identity), and the function's compute time. All memory
//! activity runs through the kernel fault paths, so per-configuration
//! in-function overheads (soft-dirty faults under GH, CoW+dTLB faults
//! under FORK, nothing under BASE/GHNOP) *emerge* rather than being
//! scripted.
//!
//! # Batched execution
//!
//! The write/read sets are *batched*: a cached
//! [`WritePlan`](gh_runtime::WritePlan) per `(writes, reads,
//! stride-phase)` holds the pre-sorted vpn sets (built with one region
//! cursor, valid for the process's lifetime). Each invocation replays
//! the write set into the process's reusable [`gh_mem::TouchBatch`]
//! scratch, and `Kernel::touch_batch_charged` resolves the whole batch
//! in one extent-cursor walk, charging the aggregate fault counters.
//! The read set is not copied: `Kernel::read_span_charged` walks the
//! plan's vpn slice, counts the warm pages (at most one cursor step
//! each), and sends only the pages that fault or fail through the same
//! scratch batch. This is a host-side constant-factor win only: counters,
//! taint, contents and the simulated timeline are bit-identical to the
//! per-page `touch` loop it replaced (pinned by
//! `crates/mem/tests/batch_oracle.rs` and the `bench_smoke` +0.0% gate;
//! the `scaling_touch_*` metrics track the speedup).

use gh_mem::{FaultCounters, RequestId, Taint, Touch, Vpn};
use gh_proc::Kernel;
use gh_runtime::FunctionProcess;
use gh_sim::Nanos;

use crate::spec::FunctionSpec;

/// Identity and payload of one request.
#[derive(Clone, Debug)]
pub struct RequestCtx {
    /// Taint label for everything this request writes.
    pub id: RequestId,
    /// The caller (access-control principal).
    pub principal: String,
    /// Monotonic sequence number within the container (varies placement).
    pub seq: u64,
    /// `true` for the deployer's dummy warm-up request (§4.1), whose
    /// arguments are secret-free: its writes are `Taint::Clean`.
    pub dummy: bool,
}

impl RequestCtx {
    /// A real request.
    pub fn new(id: u64, principal: &str, seq: u64) -> Self {
        RequestCtx {
            id: RequestId(id),
            principal: principal.into(),
            seq,
            dummy: false,
        }
    }

    /// The dummy warm-up request (§4.1).
    pub fn dummy(seq: u64) -> Self {
        RequestCtx {
            id: RequestId(0),
            principal: "<deployer-dummy>".into(),
            seq,
            dummy: true,
        }
    }

    fn taint(&self) -> Taint {
        if self.dummy {
            Taint::Clean
        } else {
            Taint::One(self.id)
        }
    }
}

/// What one invocation did and cost (in-function only; platform and
/// restore costs are accounted elsewhere).
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Total in-function virtual time (compute + faults + churn + GC).
    pub duration: Nanos,
    /// GC pause included in `duration`, if a collection ran.
    pub gc_pause: Option<Nanos>,
    /// Fault counts taken during the invocation.
    pub faults: FaultCounters,
    /// Pages the function wrote.
    pub pages_written: u64,
    /// Leak level observed (0 for non-leaky functions).
    pub leak_level: u64,
}

/// Word index on the runtime-state page holding the leak counter.
const LEAK_COUNTER_WORD: usize = 2;
/// Extra latency per accumulated leak unit (logging(p): baseline mean
/// 1249 ms over 1200 invocations vs. 228 ms clean implies ~1.7 ms/inv).
const LEAK_SLOPE: Nanos = Nanos::from_micros(1_700);
/// Heap pages leaked per invocation.
const LEAK_PAGES_PER_INV: u64 = 50;
/// Per-page cost of the function's own read/write loop bodies, beyond
/// the fault accounting (§5.2 microbenchmark calibration).
const WORK_PER_WRITE: Nanos = Nanos::from_nanos(25);
const WORK_PER_READ: Nanos = Nanos::from_nanos(12);

/// Executes catalog functions.
pub struct Executor;

impl Executor {
    /// Runs one invocation of `spec` inside `fproc`.
    pub fn invoke(
        kernel: &mut Kernel,
        fproc: &mut FunctionProcess,
        spec: &FunctionSpec,
        req: &RequestCtx,
    ) -> ExecReport {
        let t0 = kernel.clock.now();
        kernel.take_fault_accum(); // isolate this invocation's counts
        fproc.invocations += 1;

        // 1. Runtime layout churn (Node.js aggressive, Python light, C none).
        fproc.churn_layout(kernel);

        // 2. Time-driven GC for functions that allocate enough to trigger
        //    it (§5.3.1: img-resize). Restoration rewinds the in-memory GC
        //    clock, so post-restore invocations re-collect.
        let gc_pause = if spec.behavior.gc_sensitive {
            fproc.maybe_gc(kernel)
        } else {
            None
        };

        // 3. Memory leak (logging(p)): the leak counter lives in process
        //    memory, so rollback erases it — GH "fixes" the leak (§5.3.1).
        let mut leak_level = 0;
        if spec.behavior.leak {
            leak_level = Self::leak_step(kernel, fproc, req);
        }

        // 4. The write set: `written_kpages` pages spread over the managed
        //    regions, plus a read set (~2x), all through the fault paths.
        //    Steady-state invocations replay a cached `WritePlan`: the
        //    write set goes through the reusable batch scratch and
        //    `touch_batch` — one cursor walk over the extent map instead
        //    of a page-table probe per page — and the read set is read
        //    as a span straight from the plan, with the scratch as its
        //    slow path. Faults, taint and contents are bit-identical to
        //    the per-page loop (`crates/mem/tests/batch_oracle.rs`).
        let taint = req.taint();
        let writes = spec.written_pages();
        let total = fproc.regions().dirtyable_pages().max(1);
        let writes = writes.min(total);
        let reads = (2 * writes + 256).min(total);
        let seq = req.seq;
        let pid = fproc.pid;
        let wstride = (total / writes.max(1)).max(1);
        let phase = seq % wstride;
        let (plan, batch) = fproc.plan_for(writes, reads, phase);
        batch.clear();
        for (i, &vpn) in plan.write_vpns.iter().enumerate() {
            batch.push(vpn, Touch::WriteWord(0x1000 ^ seq ^ i as u64), taint);
        }
        kernel
            .touch_batch_charged(pid, batch)
            .expect("invocation write set");
        kernel
            .read_span_charged(pid, plan.read_vpns, batch)
            .expect("invocation read set");

        // The loop-body work around those touches.
        kernel.charge(WORK_PER_WRITE * writes + WORK_PER_READ * reads);

        // 5. Compute time: the benchmark's intrinsic work, plus leak-induced
        //    slowdown for leaky functions.
        let compute = Nanos::from_millis_f64(spec.base_invoker_ms)
            .saturating_sub(WORK_PER_WRITE * writes + WORK_PER_READ * reads);
        kernel.charge(compute + LEAK_SLOPE * leak_level);

        // 6. Computation leaves request data in registers.
        if !req.dummy {
            let proc = kernel.process_mut(pid).expect("live process");
            proc.main_thread_mut().regs.scramble(req.id.0 ^ seq, taint);
        }

        let faults = kernel.take_fault_accum();
        ExecReport {
            duration: kernel.clock.now() - t0,
            gc_pause,
            faults,
            pages_written: writes,
            leak_level,
        }
    }

    /// One leak step: read the in-memory leak counter, grow the heap,
    /// store the incremented counter. Returns the level *before* this
    /// invocation (what slows this invocation down).
    fn leak_step(kernel: &mut Kernel, fproc: &mut FunctionProcess, req: &RequestCtx) -> u64 {
        let state = fproc.regions().state_page();
        let pid = fproc.pid;
        let taint = req.taint();
        let level = {
            let proc = kernel.process(pid).expect("live process");
            proc.mem
                .peek_word(state, LEAK_COUNTER_WORD, kernel.frames())
                .unwrap_or(0)
        };
        let batch = fproc.scratch_batch();
        kernel
            .run_charged(pid, |p, frames| {
                // Leak: allocate and dirty heap pages that are never freed,
                // as one ascending batch in the process's scratch (a page
                // that errors is skipped).
                let brk = p.mem.brk();
                if p.mem
                    .set_brk(Vpn(brk.0 + LEAK_PAGES_PER_INV), frames)
                    .is_ok()
                {
                    batch.clear();
                    for i in 0..LEAK_PAGES_PER_INV {
                        batch.push(Vpn(brk.0 + i), Touch::WriteWord(0x1EAC ^ level), taint);
                    }
                    p.mem.touch_batch(batch, frames);
                }
            })
            .expect("leak body");
        // Store the incremented counter in memory (word write, bypassing
        // word index 1 used by data writes).
        let (proc, frames) = kernel.mem_ctx(pid).expect("live process");
        if let Some(pte) = proc.mem.pte(state) {
            if !frames.is_shared(pte.frame) {
                let (data, t) = frames.data_mut(pte.frame);
                data.write_word(LEAK_COUNTER_WORD, level + 1);
                *t = t.merge(taint);
            }
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::by_name;
    use gh_runtime::RuntimeProfile;

    fn build(name: &str) -> (Kernel, FunctionProcess, FunctionSpec) {
        let spec = by_name(name).unwrap();
        let mut kernel = Kernel::boot();
        let fproc = FunctionProcess::build(
            &mut kernel,
            spec.name,
            RuntimeProfile::for_kind(spec.runtime),
            spec.total_pages(),
        );
        (kernel, fproc, spec)
    }

    #[test]
    fn invocation_writes_the_specified_pages() {
        let (mut k, mut fp, spec) = build("telco (p)");
        let req = RequestCtx::new(1, "alice", 0);
        let report = Executor::invoke(&mut k, &mut fp, &spec, &req);
        assert_eq!(report.pages_written, spec.written_pages());
        // Taint present on the written pages.
        let proc = k.process(fp.pid).unwrap();
        let tainted = proc.mem.tainted_pages(RequestId(1), k.frames());
        assert!(tainted.len() as u64 >= spec.written_pages());
    }

    #[test]
    fn duration_tracks_base_invoker_latency() {
        let (mut k, mut fp, spec) = build("pickle (p)");
        let req = RequestCtx::new(1, "a", 0);
        let report = Executor::invoke(&mut k, &mut fp, &spec, &req);
        let ms = report.duration.as_millis_f64();
        assert!(
            (spec.base_invoker_ms * 0.9..spec.base_invoker_ms * 1.6).contains(&ms),
            "duration {ms:.2}ms vs base {:.2}ms",
            spec.base_invoker_ms
        );
    }

    #[test]
    fn dummy_request_leaves_no_taint() {
        let (mut k, mut fp, spec) = build("md2html (p)");
        let req = RequestCtx::dummy(0);
        Executor::invoke(&mut k, &mut fp, &spec, &req);
        let proc = k.process(fp.pid).unwrap();
        assert!(proc.mem.tainted_pages(RequestId(0), k.frames()).is_empty());
        assert_eq!(proc.main_thread().regs.taint, Taint::Clean);
    }

    #[test]
    fn requests_scramble_registers_with_taint() {
        let (mut k, mut fp, spec) = build("md2html (p)");
        Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(9, "a", 0));
        let proc = k.process(fp.pid).unwrap();
        assert!(proc.main_thread().regs.taint.may_contain(RequestId(9)));
    }

    #[test]
    fn leaky_function_slows_down_across_invocations() {
        let (mut k, mut fp, spec) = build("logging (p)");
        assert!(spec.behavior.leak);
        let first = Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(1, "a", 0));
        let mut last = first.clone();
        for i in 2..6 {
            last = Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(i, "a", i));
        }
        assert_eq!(first.leak_level, 0);
        assert_eq!(last.leak_level, 4, "leak accumulates without restore");
        assert!(last.duration > first.duration + Nanos::from_millis(5));
    }

    #[test]
    fn a_leak_step_taints_every_page_it_leaks() {
        let (mut k, mut fp, spec) = build("logging (p)");
        Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(7, "a", 0));
        let proc = k.process(fp.pid).unwrap();
        let brk = proc.mem.brk().0;
        let tainted = proc.mem.tainted_pages(RequestId(7), k.frames());
        assert!(
            (brk - LEAK_PAGES_PER_INV..brk).all(|v| tainted.contains(&Vpn(v))),
            "every leaked heap page holds the request's write"
        );
    }

    #[test]
    fn second_invocation_is_warm_without_tracking() {
        // Without an SD clear between invocations (BASE/GHNOP), the second
        // run takes no tracking faults.
        let (mut k, mut fp, spec) = build("float (p)");
        Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(1, "a", 0));
        let second = Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(2, "a", 0));
        assert_eq!(second.faults.sd_wp, 0);
        assert_eq!(second.faults.cow, 0);
    }

    #[test]
    fn plan_cache_reuses_across_invocations_without_churn() {
        // C runtimes don't churn the layout, so the write/read plans
        // persist across invocations (same stride-phase ⇒ same plan).
        let (mut k, mut fp, spec) = build("atax (c)");
        Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(1, "a", 0));
        let plans_after_first = fp.plans().len();
        assert!(plans_after_first >= 1, "invocation populated the cache");
        Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(2, "a", 0));
        assert_eq!(fp.plans().len(), plans_after_first, "same phase: cache hit");
    }

    #[test]
    fn node_plans_survive_layout_churn() {
        // Node churns the layout on every request, but only outside the
        // image's regions: a repeat of the same request shape replays
        // its cached plans instead of rebuilding them.
        let (mut k, mut fp, spec) = build("json (n)");
        Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(1, "a", 0));
        let builds = fp.plans().builds();
        assert!(
            builds >= 2,
            "the first request built its write and read sets"
        );
        let cached = fp.plans().len();
        assert!(fp.churn_layout(&mut k) > 0, "Node.js churns its layout");
        assert_eq!(fp.plans().len(), cached, "churn keeps every cached plan");
        Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(1, "a", 0));
        assert_eq!(fp.plans().builds(), builds, "same shape: no rebuild");
    }

    #[test]
    fn node_churn_changes_layout_every_request() {
        let (mut k, mut fp, spec) = build("json (n)");
        let vmas0 = k.process(fp.pid).unwrap().mem.vma_count();
        Executor::invoke(&mut k, &mut fp, &spec, &RequestCtx::new(1, "a", 0));
        let vmas1 = k.process(fp.pid).unwrap().mem.vma_count();
        assert_ne!(vmas0, vmas1, "Node.js churns the memory map");
    }
}
