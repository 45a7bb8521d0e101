//! Simulated Linux virtual memory: pages, frames, PTEs, VMAs.
//!
//! This crate is the kernel-memory substrate that Groundhog's
//! snapshot/restore engine operates on. It models, at page granularity and
//! with real byte contents, exactly the mechanisms the paper's C
//! implementation drives through `/proc` and `ptrace`:
//!
//! - a per-process **address space** of non-overlapping VMAs
//!   ([`space::AddressSpace`]), with `mmap`/`munmap`/`mprotect`/`brk`/
//!   `madvise` semantics including VMA splitting and merging;
//! - an **extent-based page table** (`extent`, internal): maximal runs
//!   of contiguous present pages sharing one flag value
//!   ([`pte::PteFlags`]: present, copy-on-write, **soft-dirty**,
//!   soft-dirty write-protection — the `clear_refs` arming that makes
//!   the next write fault — userfaultfd write-protection, TLB-cold),
//!   kept in one sorted vector, with per-page frames in flat chunks.
//!   Whole-table flag transforms (`clear_refs`, uffd arm, CoW marking)
//!   compact the vector in place in `O(extents)`; every per-page edit is
//!   a decision over the table's **one page walk**, which resolves an
//!   ascending sequence of page visits and folds their edits once (a
//!   merge over the edited window plus one `splice`), and range
//!   removal is one more fold; snapshot capture hands out refcounted
//!   **frame runs** ([`frame::FrameRuns`]) without copying contents;
//!   restore planning consumes run lists via the [`runs`] set algebra;
//! - a **hierarchical dirty index** ([`index::VpnIndex`], a sparse
//!   two-level 64-ary bitmap) over the soft-dirty set, the uffd log and
//!   the taint-carrying pages, making `soft_dirty_pages`, `disarm_uffd`
//!   and `tainted_pages` `O(interesting pages)` scans instead of
//!   page-table walks — the bookkeeping obeys Groundhog's own law that
//!   cost scales with the *dirtied* state, not the *mapped* state. Two
//!   more are the **change indices** — present pages the last snapshot
//!   did not capture, and captured pages no longer present — from which
//!   the restore planner works in `O(dirty + changed)`;
//! - a shared **frame table** ([`frame::FrameTable`]) with reference counts
//!   so `fork` produces genuine CoW sharing;
//! - a pool-shared **snapshot store** ([`store::SnapshotStore`]): one
//!   deduplicating frame table per container pool, so N near-identical
//!   clean-state snapshots cost one base image plus per-container deltas
//!   instead of N full copies;
//! - one **fault decision** per page touch, lazy fault-in included,
//!   made over that walk by the **batched fault path**
//!   ([`batch::TouchBatch`], [`space::AddressSpace::touch_batch`]): a
//!   pre-sorted plan of page touches resolved in one ordered cursor walk
//!   over the extents and frame chunks — `O(batch + touched
//!   extents/chunks)` plus one edit fold, instead of a search and a
//!   split per page — of which the single-page
//!   [`space::AddressSpace::touch`] is a one-item walk (pinned against
//!   the per-page loop by the `batch_oracle` test, and against a
//!   retained per-page address space by `legacy_oracle`);
//! - **read spans** ([`space::AddressSpace::read_span`]): an ascending
//!   read set walked by extent, VMA and lazy-pending cursors, where a
//!   warm page costs at most one cursor step (a run of them inside one
//!   extent and VMA costs one step, then a comparison per page) and
//!   every other page is handed, in order, to `touch_batch` — the
//!   executor's read path, pinned by the same oracle;
//! - **batched restore passes** ([`space::AddressSpace::restore_runs`],
//!   [`space::AddressSpace::evict_runs`]): the writeback, stack-zero and
//!   madvise passes each mutate the page table in one ordered walk and
//!   one edit fold — one frame-chunk probe per 512-page window, one VMA
//!   lookup per VMA crossed, one forward index pass
//!   ([`index::VpnIndex::clear_runs`]); `restore_page`, `zero_page` and
//!   `evict_page` are one-page passes (pinned by `legacy_oracle`);
//! - **fault accounting** ([`space::FaultCounters`]): every minor, CoW,
//!   soft-dirty, userfaultfd and lazy-restore fault is counted so the
//!   cost model can charge it to the virtual clock — the in-function
//!   overheads of §5.2.1 *emerge* from these counts rather than being
//!   scripted;
//! - an **on-demand restore path** ([`space::LazyPageSource`],
//!   [`space::AddressSpace::arm_lazy`]): the restorer can register the
//!   restore set against the snapshot image instead of writing it back;
//!   the first touch of a pending page takes one lazy fault that
//!   installs the snapshot contents (by value, as a shared CoW frame,
//!   or copied out of the pool [`store::SnapshotStore`]) before the
//!   access proceeds, inside the touch's walk, and a background drain
//!   can write back the rest during idle time in one walk per call;
//! - **taint tracking** ([`taint::Taint`]): every byte written on behalf of
//!   a request is labelled with the request's identity, which lets the test
//!   suite prove (not assume) the paper's isolation property: after a
//!   Groundhog restore, no byte of the previous request survives.
//!
//! Page contents are stored compactly ([`frame::FrameData`]): zero pages,
//! deterministic pattern pages, sparsely patched pages (the first two
//! word patches inline, so a lightly written page never touches the
//! heap) and fully materialized literal pages, so processes with
//! hundreds of thousands of mapped pages (Node.js maps ~156K pages in
//! Table 3) stay cheap to simulate while remaining *logically
//! byte-exact*.

pub mod addr;
pub mod batch;
mod extent;
pub mod frame;
pub mod index;
pub mod pte;
pub mod runs;
pub mod space;
pub mod store;
pub mod taint;
pub mod vma;

pub use addr::{PageRange, VirtAddr, Vpn, PAGE_SIZE};
pub use batch::{BatchOutcome, TouchBatch, TouchItem};
pub use frame::{FrameData, FrameId, FrameRuns, FrameRunsCursor, FrameTable, WordPatches};
pub use index::VpnIndex;
pub use pte::{Pte, PteFlags};
pub use runs::{
    runs_from_sorted, runs_from_sorted_into, runs_intersect, runs_intersect_into, runs_len,
    runs_subtract, runs_subtract_into, runs_union, runs_union_into,
};
pub use space::{AccessError, AddressSpace, FaultCounters, LazyPageSource, SpaceConfig, Touch};
pub use store::{SnapshotStore, StoreHandle, StoreStats};
pub use taint::{RequestId, Taint};
pub use vma::{Perms, Vma, VmaKind};
