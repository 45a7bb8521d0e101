//! Groundhog's primary contribution: a language- and runtime-independent,
//! in-memory, lightweight process snapshot/restore mechanism for
//! sequential request isolation in FaaS (Alzayat et al., EuroSys 2023).
//!
//! The design goals of §4 map onto the modules here:
//!
//! - **Generality** — everything operates on a generic multi-threaded
//!   process through ptrace + `/proc` ([`snapshot`], [`restore`]); no
//!   assumption about the function inside.
//! - **Restore cost proportional to modified pages** — soft-dirty-bit
//!   tracking ([`track::SoftDirtyTracker`]), with a userfaultfd
//!   alternative ([`track::UffdTracker`]) kept for the §4.3 comparison.
//! - **Restore off the critical path** — the [`manager::Manager`] restores
//!   *between* activations and buffers incoming requests until the process
//!   is provably clean, never using copy-on-write during execution.
//!
//! # The restore pipeline
//!
//! The §4.4 restore sequence is a two-stage engine — a pure **planner**
//! that compiles the collected state into typed passes, and an
//! **executor** that runs them under the virtual-clock cost model:
//!
//! ```text
//!   attach → interrupt → read maps → scan pagemap → diff layouts
//!      │                                                │
//!      │      DirtyReport + Snapshot + LayoutDiff       ▼
//!      └────────────────▶ RestorePlanner::build ─▶ RestorePlan
//!                                                      │ typed passes
//!        ┌─────────────────────────────────────────────┘
//!        ▼
//!   LayoutFixup ─▶ Madvise ─▶ StackZero ─▶ PageWriteback ─▶ TrackerRearm ─▶ RegsReset
//!   (batched        (evict      (zero        (coalesced runs,   (clear_refs)   (SETREGS)
//!    syscall         newly       fresh        N parallel copy
//!    injection)      paged)      stack)       lanes)
//!        │
//!        └─▶ detach ─▶ [`RestoreReport`] + Fig. 8 [`Breakdown`]
//! ```
//!
//! Every pass is timed phase-by-phase ([`breakdown::RestorePhase`]) so the
//! Fig. 8 decomposition can be regenerated. With
//! [`GroundhogConfig::restore_lanes`]` = 1` the executor is bit-for-bit
//! identical to the paper's serial loop; more lanes parallelize only the
//! page-writeback pass (the ptrace-serialized passes stay serial).
//!
//! # Lazy (on-demand) restoration
//!
//! With [`RestoreMode::Lazy`] the planner swaps the `PageWriteback` pass
//! for `DeferArm`: the restore set is registered with the fault handler
//! (write-protected/unmapped against the snapshot image) instead of
//! being copied, and each page is installed from the snapshot by a
//! single first-touch fault during the *next* request
//! (`gh_mem`'s lazy fault path, charged per
//! [`CostModel::lazy_fault`](gh_sim::CostModel::lazy_fault)). The
//! critical-path restore shrinks to a per-run registration walk at
//! every write-set density; untouched pages keep their obligation
//! across epochs, and the optional background drain
//! ([`RestoreMode::Lazy`]`{ drain: true }`) writes them back during
//! idle gaps, off every request's path. Isolation is preserved — every
//! access of a pending page is intercepted — and a differential oracle
//! (`tests/lazy_oracle.rs`) pins observation equivalence, post-drain
//! bit-exactness, and page-work conservation against the eager engine.
//!
//! # The pool-shared snapshot store
//!
//! A fleet pool holds one near-identical clean-state snapshot per
//! container. [`SnapshotMode::Shared`]
//! interns those pages into a pool-level
//! [`SnapshotStore`](gh_mem::SnapshotStore): the first container's pages
//! become a refcounted base image, subsequent containers dedup against it
//! page-by-page by logical content, and pool memory scales with
//! `base + Σ per-container deltas` instead of `pool_size × snapshot`
//! (§5.5 taken fleet-wide). Deduplication is a *space* optimization only:
//! the shared snapshot charges exactly the eager snapshot's virtual time,
//! so pool timelines are unchanged.

pub mod breakdown;
pub mod config;
pub mod diff;
pub mod error;
pub mod manager;
pub mod plan;
pub mod restore;
pub mod snapshot;
pub mod track;

pub use breakdown::{Breakdown, RestorePhase};
pub use config::{GroundhogConfig, RestoreMode, TrackerKind};
pub use diff::LayoutDiff;
pub use error::GhError;
pub use manager::{Manager, ManagerState, ManagerStats};
pub use plan::{RestorePass, RestorePlan, RestorePlanner, SyscallBatch};
pub use restore::{RestoreReport, Restorer};
pub use snapshot::{Snapshot, SnapshotMode, SnapshotReport, Snapshotter};
pub use track::{DirtyReport, MemoryTracker, SoftDirtyTracker, UffdTracker};
