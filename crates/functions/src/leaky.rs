//! A deliberately buggy function for security testing.
//!
//! §1's motivating scenario: "if the same function container is first
//! invoked to service Alice's request and then invoked again to service
//! Bob's request, there is a possibility that a bug ... causes some of
//! Alice's data from the first request to be retained and later leaked
//! into the response returned to Bob."
//!
//! [`BuggyCache`] is that bug, made concrete: it keeps an in-process
//! "cache" page where it stores each request's secret, and every response
//! includes whatever the cache held on entry. Under BASE/GHNOP the
//! previous caller's secret escapes; under GH the restore guarantees the
//! cache holds only snapshot-time (dummy) contents.

use gh_mem::{RequestId, Taint, Touch, Vpn};
use gh_proc::Kernel;
use gh_runtime::FunctionProcess;

/// Word index of the "cache" slot on the page.
const CACHE_WORD: usize = 4;
/// Marker stored by initialization (no secret).
pub const INIT_MARKER: u64 = 0x0707_0707_0707_0707;

/// What one buggy invocation returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuggyResponse {
    /// The value found in the cache on entry — leaked into the response.
    pub leaked_value: u64,
    /// Taint of the cache frame on entry (who the leak belongs to).
    pub leaked_from: Taint,
}

/// The buggy caching function.
pub struct BuggyCache {
    /// The cache page (first anon region page).
    pub cache_page: Vpn,
}

impl BuggyCache {
    /// Prepares the cache page during initialization (dummy phase): the
    /// marker is written with clean taint.
    pub fn init(kernel: &mut Kernel, fproc: &FunctionProcess) -> BuggyCache {
        let page = fproc
            .regions()
            .anon
            .first()
            .map_or(fproc.regions().data.start, |r| r.start);
        kernel
            .run_charged(fproc.pid, |p, frames| {
                p.mem
                    .touch(page, Touch::Read, Taint::Clean, frames)
                    .expect("cache page mapped");
                let pte = p.mem.pte(page).expect("present");
                let _ = pte;
            })
            .expect("init");
        let (proc, frames) = kernel.mem_ctx(fproc.pid).expect("live");
        let pte = proc.mem.pte(page).expect("present");
        let (data, _) = frames.data_mut(pte.frame);
        data.write_word(CACHE_WORD, INIT_MARKER);
        BuggyCache { cache_page: page }
    }

    /// Services a request carrying `secret`: returns what the cache held
    /// (the bug), then stores this request's secret in the cache.
    pub fn invoke(
        &self,
        kernel: &mut Kernel,
        fproc: &FunctionProcess,
        req: RequestId,
        secret: u64,
    ) -> BuggyResponse {
        let page = self.cache_page;
        // Read the stale cache (leak) and its taint.
        let (leaked_value, leaked_from) = {
            let proc = kernel.process(fproc.pid).expect("live");
            let pte = proc.mem.pte(page).expect("cache resident");
            let frames = kernel.frames();
            (
                frames.data(pte.frame).read_word(CACHE_WORD),
                frames.taint(pte.frame),
            )
        };
        // Store this request's secret (tainted write).
        kernel
            .run_charged(fproc.pid, |p, frames| {
                p.mem
                    .touch(page, Touch::WriteWord(0), Taint::One(req), frames)
                    .expect("cache write");
                let pte = p.mem.pte(page).expect("present");
                let (data, _) = frames.data_mut(pte.frame);
                data.write_word(CACHE_WORD, secret);
            })
            .expect("invoke");
        BuggyResponse {
            leaked_value,
            leaked_from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_runtime::{RuntimeKind, RuntimeProfile};

    fn build() -> (Kernel, FunctionProcess, BuggyCache) {
        let mut k = Kernel::boot();
        let fp = FunctionProcess::build(
            &mut k,
            "buggy",
            RuntimeProfile::for_kind(RuntimeKind::Python),
            2_000,
        );
        let cache = BuggyCache::init(&mut k, &fp);
        (k, fp, cache)
    }

    #[test]
    fn init_leaves_marker_with_clean_taint() {
        let (mut k, fp, cache) = build();
        let r = cache.invoke(&mut k, &fp, RequestId(1), 0xA11CE);
        assert_eq!(r.leaked_value, INIT_MARKER);
        assert_eq!(r.leaked_from, Taint::Clean);
    }

    #[test]
    fn without_restore_the_secret_leaks_to_the_next_caller() {
        let (mut k, fp, cache) = build();
        cache.invoke(&mut k, &fp, RequestId(1), 0xA11CE);
        let bob = cache.invoke(&mut k, &fp, RequestId(2), 0xB0B);
        assert_eq!(bob.leaked_value, 0xA11CE, "Alice's secret reaches Bob");
        assert!(bob.leaked_from.may_contain(RequestId(1)));
    }
}
