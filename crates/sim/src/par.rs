//! Host parallelism for independent simulation units.
//!
//! Sweep cells and cluster nodes are pure functions of their own inputs
//! (each has its own kernel, seeds and event queue), so they can run on
//! OS threads with no effect on results — provided the results are
//! merged in input order. A single fleet run is never split: it is one
//! event loop on one thread. [`ordered_map`] is that one discipline:
//! workers claim indices from a shared cursor (dynamic load balancing,
//! since units differ wildly in cost) and the merge places each result
//! at its index, so the output is byte-identical to a serial run.
//! Nothing beyond `std` is used.
//!
//! Knobs, shared by every parallel layer: `--serial` or `GH_SERIAL=1`
//! forces one worker ([`serial_requested`]); `GH_THREADS=n` pins the
//! worker count, defaulting to the host's available parallelism
//! ([`configured_threads`]).

use std::sync::atomic::{AtomicUsize, Ordering};

/// True when the caller asked for the serial fallback (`--serial` on
/// the command line, or `GH_SERIAL` set to anything but `0`).
pub fn serial_requested() -> bool {
    std::env::args().any(|a| a == "--serial") || std::env::var("GH_SERIAL").is_ok_and(|v| v != "0")
}

/// Worker count for a parallel run: `GH_THREADS=n` when set to some
/// `n ≥ 1`, else the host's available parallelism.
pub fn configured_threads() -> usize {
    match std::env::var("GH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Evaluates `f` over `0..n` on up to `workers` scoped threads and
/// collects the results **in index order**, whatever order they
/// finished in.
///
/// With one worker (or one index) this is exactly
/// `(0..n).map(f).collect()` on the caller's thread: it spawns nothing
/// and allocates nothing beyond what the collection does, and a
/// collection that short-circuits (`Result`, `Option`) stops at the
/// first failure. The parallel path evaluates every index before
/// collecting. A panic in `f` propagates to the caller with its
/// original payload.
pub fn ordered_map<R, C, F>(n: usize, workers: usize, f: F) -> C
where
    R: Send,
    C: FromIterator<R>,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // The cursor only hands out indices (`Relaxed` suffices); results
    // come back through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break claimed;
                        }
                        claimed.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            let claimed = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, r) in claimed {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uneven per-index cost, to scramble completion order.
    fn uneven(i: usize) -> (usize, u64) {
        let mut acc = i as u64;
        for k in 0..(i as u64 % 7) * 1000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        (i, acc)
    }

    #[test]
    fn parallel_results_come_back_in_index_order() {
        let serial: Vec<_> = ordered_map(257, 1, uneven);
        for workers in [2, 3, 8] {
            let parallel: Vec<_> = ordered_map(257, workers, uneven);
            assert_eq!(serial, parallel, "{workers} workers");
        }
        assert!(serial.iter().enumerate().all(|(i, &(j, _))| i == j));
    }

    #[test]
    fn empty_and_single_index_runs() {
        let empty: Vec<usize> = ordered_map(0, 4, |i| i);
        assert!(empty.is_empty());
        let one: Vec<usize> = ordered_map(1, 4, |i| i + 7);
        assert_eq!(one, [7]);
    }

    #[test]
    fn results_collect_into_a_short_circuiting_collection() {
        let ok: Result<Vec<usize>, usize> = ordered_map(5, 2, Ok);
        assert_eq!(ok, Ok(vec![0, 1, 2, 3, 4]));
        for workers in [1, 2] {
            let err: Result<Vec<usize>, usize> =
                ordered_map(5, workers, |i| if i >= 3 { Err(i) } else { Ok(i) });
            assert_eq!(err, Err(3), "the lowest failing index wins");
        }
    }

    #[test]
    #[should_panic(expected = "unit 3 failed")]
    fn a_worker_panic_reaches_the_caller() {
        let _: Vec<()> = ordered_map(6, 2, |i| assert!(i != 3, "unit {i} failed"));
    }
}
