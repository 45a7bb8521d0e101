//! Parallel sweep harness for the figure/table binaries.
//!
//! Sweep binaries evaluate grids of independent cells (pool size ×
//! offered load × routing policy, write-set densities, …) where each
//! cell builds its own `Kernel` and seeds its own `DetRng` — no state is
//! shared, so cells can run on OS threads with no effect on results.
//! [`run_cells`] shards the cells through [`gh_sim::par::ordered_map`],
//! the work-stealing map with a **deterministic ordered merge** that
//! cluster nodes use too: results come back in input order regardless
//! of scheduling, so the rendered tables and CSVs are byte-identical to
//! a serial run. The CI determinism job asserts exactly that by diffing
//! `--serial` against parallel output, across a `GH_THREADS` matrix.
//!
//! Knobs (shared with `gh_faas`'s fleet and cluster execution):
//! `--serial` or `GH_SERIAL=1` forces one worker ([`serial_requested`]);
//! `GH_THREADS=n` pins the worker count, defaulting to the host's
//! available parallelism.

use gh_sim::par::{configured_threads, ordered_map};

pub use gh_sim::par::serial_requested;

/// Evaluates `f` over every cell, in parallel unless `serial`, and
/// returns the results **in input order**. Determinism requires only
/// that `f` itself is a pure function of its cell — which every sweep
/// cell is, by construction (own kernel, own seed).
pub fn run_cells<C, R, F>(cells: &[C], serial: bool, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let workers = if serial { 1 } else { configured_threads() };
    ordered_map(cells.len(), workers, |i| f(&cells[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_merge_preserves_input_order() {
        let cells: Vec<u64> = (0..257).collect();
        let f = |&c: &u64| {
            // Uneven per-cell cost to scramble completion order.
            let mut acc = c;
            for i in 0..(c % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (c, acc)
        };
        let serial = run_cells(&cells, true, f);
        let parallel = run_cells(&cells, false, f);
        assert_eq!(serial, parallel, "ordered merge must hide scheduling");
        assert_eq!(serial.len(), cells.len());
        assert!(serial.iter().enumerate().all(|(i, &(c, _))| c == i as u64));
    }

    #[test]
    fn empty_and_single_cell_grids() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_cells(&empty, false, |&c: &u32| c).is_empty());
        assert_eq!(run_cells(&[7u32], false, |&c| c * 2), vec![14]);
    }
}
