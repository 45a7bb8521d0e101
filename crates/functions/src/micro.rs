//! The §5.2 microbenchmark.
//!
//! "We implement a simple function in C that pre-allocates an address
//! space of a fixed size. Each invocation (a) dirties a subset of the
//! pages by writing a word to each page of that subset, then (b) reads
//! one word from each mapped page, even those that were not dirtied."

use gh_mem::{PageRange, Perms, RequestId, Taint, Touch, TouchBatch, VmaKind, Vpn};
use gh_proc::{Kernel, Pid};
use gh_sim::Nanos;

/// Per-page work of the benchmark's own loops (beyond fault costs):
/// a strided word write/read over a multi-hundred-MB region is dTLB-walk
/// bound at roughly these rates.
const WORK_PER_WRITE: Nanos = Nanos::from_nanos(25);
const WORK_PER_READ: Nanos = Nanos::from_nanos(18);

/// The pre-allocated microbenchmark function.
pub struct MicroFunction {
    /// The function process.
    pub pid: Pid,
    /// The pre-allocated region.
    pub region: PageRange,
    /// The full-region read sweep's pages, ascending and invariant for
    /// the function's lifetime — read as one span every invocation.
    read_vpns: Vec<Vpn>,
}

/// Timing summary of one microbenchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct MicroReport {
    /// In-function duration.
    pub duration: Nanos,
    /// Pages written.
    pub dirtied: u64,
}

impl MicroFunction {
    /// Builds the function with `mapped_pages` pre-allocated pages and
    /// pages everything in (the dummy invocation of §4.1 would do this).
    pub fn build(kernel: &mut Kernel, mapped_pages: u64) -> MicroFunction {
        let pid = kernel.spawn("microbench (c)");
        let (region, read_vpns) = kernel
            .run_charged(pid, |p, frames| {
                let r = p
                    .mem
                    .mmap(mapped_pages, Perms::RW, VmaKind::Anon)
                    .expect("fits");
                let vpns: Vec<Vpn> = r.iter().collect();
                let d = p.mem.read_span(&vpns, frames, &mut TouchBatch::new());
                assert_eq!(d.failed, 0, "page-in touched all");
                (r, vpns)
            })
            .expect("build")
            .0;
        MicroFunction {
            pid,
            region,
            read_vpns,
        }
    }

    /// One invocation: write a word to each page of an evenly spread
    /// subset covering `dirty_fraction` of the region, then read one word
    /// from every mapped page.
    pub fn invoke(&self, kernel: &mut Kernel, dirty_fraction: f64, req: RequestId) -> MicroReport {
        self.invoke_on(kernel, self.pid, dirty_fraction, req)
    }

    /// Like [`MicroFunction::invoke`], but executed inside `pid` — the
    /// fork-isolation path runs the invocation in a CoW child whose
    /// layout mirrors this function's, reading the same cached sweep.
    pub fn invoke_on(
        &self,
        kernel: &mut Kernel,
        pid: Pid,
        dirty_fraction: f64,
        req: RequestId,
    ) -> MicroReport {
        let t0 = kernel.clock.now();
        let total = self.region.len();
        let dirty = ((total as f64) * dirty_fraction.clamp(0.0, 1.0)).round() as u64;
        let region = self.region;
        // Both the evenly spread write subset and the full read sweep
        // are ascending — the writes batched through the cursor-walk
        // fault path, the reads as one span (bit-identical counters to
        // the per-page loops). The write batch carries per-request taint
        // and values so it is rebuilt per invocation; once applied, it
        // is the read span's slow-path scratch.
        let mut batch = TouchBatch::with_capacity(dirty as usize);
        if dirty > 0 {
            // Evenly spread subset (deterministic; density drives
            // the run structure the restorer sees).
            for i in 0..dirty {
                let off = (i as u128 * total as u128 / dirty as u128) as u64;
                let vpn = Vpn(region.start.0 + off);
                batch.push(vpn, Touch::WriteWord(0xD17 ^ i), Taint::One(req));
            }
        }
        let reads = &self.read_vpns;
        kernel
            .run_charged(pid, |p, frames| {
                let d = p.mem.touch_batch(&batch, frames);
                assert_eq!(d.failed, 0, "every write landed");
                let d = p.mem.read_span(reads, frames, &mut batch);
                assert_eq!(d.failed, 0, "every read landed");
            })
            .expect("invoke");
        kernel.charge(WORK_PER_WRITE * dirty + WORK_PER_READ * total);
        MicroReport {
            duration: kernel.clock.now() - t0,
            dirtied: dirty,
        }
    }

    /// Number of pages the next invocation would dirty for a fraction.
    pub fn dirty_count(&self, fraction: f64) -> u64 {
        ((self.region.len() as f64) * fraction.clamp(0.0, 1.0)).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_pages_everything_in() {
        let mut k = Kernel::boot();
        let m = MicroFunction::build(&mut k, 512);
        let proc = k.process(m.pid).unwrap();
        assert_eq!(proc.mem.present_pages(), 512);
        assert_eq!(m.region.len(), 512);
    }

    #[test]
    fn invocation_dirties_the_requested_fraction() {
        let mut k = Kernel::boot();
        let m = MicroFunction::build(&mut k, 1000);
        // Clear tracking so the dirty set is exactly this invocation's.
        k.process_mut(m.pid).unwrap().mem.clear_soft_dirty();
        let r = m.invoke(&mut k, 0.25, RequestId(1));
        assert_eq!(r.dirtied, 250);
        let dirty = k.process(m.pid).unwrap().mem.soft_dirty_pages().len();
        assert_eq!(dirty, 250);
    }

    #[test]
    fn the_read_sweep_is_one_warm_span() {
        // Paged in at build, the region reads warm: every page counts
        // once, and nothing faults.
        let mut k = Kernel::boot();
        let m = MicroFunction::build(&mut k, 700);
        k.take_fault_accum();
        m.invoke(&mut k, 0.0, RequestId(1));
        let reads = k.take_fault_accum();
        assert_eq!(reads.warm, 700);
        assert_eq!(reads.total_faults(), 0);
    }

    #[test]
    fn zero_and_full_fractions() {
        let mut k = Kernel::boot();
        let m = MicroFunction::build(&mut k, 100);
        k.process_mut(m.pid).unwrap().mem.clear_soft_dirty();
        let r0 = m.invoke(&mut k, 0.0, RequestId(1));
        assert_eq!(r0.dirtied, 0);
        assert!(k.process(m.pid).unwrap().mem.soft_dirty_pages().is_empty());
        let r1 = m.invoke(&mut k, 1.0, RequestId(2));
        assert_eq!(r1.dirtied, 100);
        assert_eq!(m.dirty_count(1.5), 100, "fraction clamps");
    }

    #[test]
    fn duration_grows_with_dirty_fraction_under_tracking() {
        let mut k = Kernel::boot();
        let m = MicroFunction::build(&mut k, 4096);
        k.process_mut(m.pid).unwrap().mem.clear_soft_dirty();
        let low = m.invoke(&mut k, 0.1, RequestId(1));
        k.process_mut(m.pid).unwrap().mem.clear_soft_dirty();
        let high = m.invoke(&mut k, 0.9, RequestId(2));
        assert!(
            high.duration > low.duration,
            "SD faults scale with dirtied pages: {} vs {}",
            high.duration,
            low.duration
        );
    }
}
