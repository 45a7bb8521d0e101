//! Simulation substrate: virtual time, calibrated cost model, statistics.
//!
//! The Groundhog paper ([Alzayat et al., EuroSys 2023]) measures a real
//! system: a Linux kernel, OpenWhisk, and language runtimes on a physical
//! cluster. This reproduction replaces wall-clock time with a *virtual
//! clock* and a *cost model* whose constants are calibrated against the
//! paper's own measurements (Table 3, Fig. 8, §5.2). Every simulated kernel
//! operation — page fault, PTE scan, page copy, syscall injection, ptrace
//! stop — charges its cost to the virtual clock, so latency/throughput
//! *shapes* (linear trends, crossovers, slope changes) are reproduced from
//! first principles rather than replayed.
//!
//! This crate is dependency-free and is used by every other crate in the
//! workspace. It also holds the one ordered work-stealing map
//! ([`par::ordered_map`]) behind every host-parallel layer — sweep
//! cells and cluster nodes — and the `GH_SERIAL`/`GH_THREADS` knobs.
//!
//! [Alzayat et al., EuroSys 2023]: https://arxiv.org/abs/2205.11458

pub mod clock;
pub mod cost;
pub mod event;
pub mod par;
pub mod report;
pub mod rng;
pub mod sketch;
pub mod stats;
pub mod time;

pub use clock::VirtualClock;
pub use cost::{ChargeModel, CostModel, ScanShape};
pub use rng::DetRng;
pub use sketch::QuantileSketch;
pub use stats::Summary;
pub use time::Nanos;
