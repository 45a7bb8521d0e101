//! Groundhog: efficient sequential request isolation for FaaS.
//!
//! This is the facade crate of the `groundhog-rs` workspace, a from-scratch
//! Rust reproduction of *Groundhog: Efficient Request Isolation in FaaS*
//! (Alzayat, Mace, Druschel, Garg — EuroSys 2023, arXiv:2205.11458). It
//! re-exports the workspace crates under stable module names:
//!
//! - [`sim`] — virtual clock, calibrated cost model, statistics.
//! - [`mem`] — simulated virtual memory: pages, PTEs, soft-dirty bits, VMAs.
//! - [`proc`] — simulated processes, threads, ptrace, fork/CoW, /proc.
//! - [`runtime`] — language-runtime models (C, Python, Node.js, wasm).
//! - [`functions`] — the 58-benchmark catalog and the §5.2 microbenchmark.
//! - [`core`] — the paper's contribution: snapshot / track / diff / restore
//!   and the Groundhog manager.
//! - [`isolation`] — request-isolation strategies (BASE, GH, GHNOP, FORK,
//!   FAASM, fresh-container).
//! - [`faas`] — an OpenWhisk-like platform model (invoker, containers,
//!   proxy, clients) and the event-driven fleet scheduler.
//! - [`gateway`] — front-end policies: content-addressed result
//!   caching, per-principal admission control, predictive pre-warming.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use groundhog::faas::platform::{Platform, PlatformConfig};
//! use groundhog::isolation::StrategyKind;
//!
//! let mut platform = Platform::new(PlatformConfig::default());
//! let f = groundhog::functions::catalog::by_name("json (p)").unwrap();
//! let container = platform.deploy(&f, StrategyKind::Gh).unwrap();
//! let outcome = platform.invoke_simple(container, "alice").unwrap();
//! assert!(outcome.response.ok);
//! ```
//!
//! # Fleet scheduling
//!
//! [`faas::fleet`] lifts the reproduction from one container to a
//! served pool: N containers advance on interleaved virtual timelines
//! through one [`sim::event::EventQueue`]; a router admits open-loop
//! Poisson arrivals under a pluggable [`faas::fleet::RoutePolicy`]
//! (round-robin, least-loaded, or the Groundhog-specific restore-aware
//! policy that routes on restore-completion readiness events); an
//! optional autoscaler grows and shrinks the pool on queue depth.
//!
//! ```
//! use groundhog::faas::fleet::{run_fleet, FleetConfig, RoutePolicy};
//! use groundhog::core::GroundhogConfig;
//! use groundhog::isolation::StrategyKind;
//!
//! let f = groundhog::functions::catalog::by_name("fannkuch (p)").unwrap();
//! let cfg = FleetConfig::fixed(RoutePolicy::RestoreAware, 60.0, 7);
//! let run = run_fleet(&f, StrategyKind::Gh, GroundhogConfig::gh(), 4, cfg, 60).unwrap();
//! assert_eq!(run.completed, 60);
//! assert!(run.stats.restore_overlap_ratio > 0.5); // restores hide in idle gaps
//! ```

pub use gh_faas as faas;
pub use gh_functions as functions;
pub use gh_gateway as gateway;
pub use gh_isolation as isolation;
pub use gh_mem as mem;
pub use gh_proc as proc;
pub use gh_runtime as runtime;
pub use gh_sim as sim;
pub use groundhog_core as core;
