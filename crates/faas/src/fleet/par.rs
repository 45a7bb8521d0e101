//! How many host threads a run may use.
//!
//! Host parallelism lives only in [`gh_sim::par::ordered_map`], over
//! runs that share no state: sweep cells and cluster nodes. A fleet run,
//! like a gateway run, is the dispatch kernel's one event loop on the
//! caller's thread, and a cluster node runs that loop once per pool on
//! the thread that claimed the node, so every request executes in the
//! kernel's event order.

use gh_sim::par::{configured_threads, serial_requested};

/// How a cluster spreads its nodes over host threads.
///
/// A cluster runs its nodes on the mode's worker threads
/// ([`crate::cluster`]); each node runs its pools one at a time on the
/// worker that claimed it. Results are bit-identical in every mode. A
/// fleet run ignores the mode: it is one loop on the caller's thread
/// ([`Fleet::run_with`](super::Fleet::run_with)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Honors `--serial` / `GH_SERIAL=1` (one worker) and
    /// `GH_THREADS=n` (worker count; defaults to the host's available
    /// parallelism).
    #[default]
    Auto,
    /// The bit-exact reference: a cluster's nodes run one after another
    /// on the caller's thread.
    Serial,
    /// Up to `threads` workers claim a cluster's nodes.
    Parallel {
        /// Worker threads to spread the nodes across.
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
