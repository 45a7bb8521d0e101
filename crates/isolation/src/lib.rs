//! Request-isolation strategies.
//!
//! The paper's experiment configurations (§5.1) plus the trivial
//! fresh-container baseline of §2, behind one dispatch type:
//!
//! | Strategy | Paper name | Mechanism |
//! |---|---|---|
//! | [`StrategyKind::Base`]  | `BASE`  | insecure container reuse, nothing restored |
//! | [`StrategyKind::Gh`]    | `GH`    | Groundhog snapshot/restore between requests |
//! | [`StrategyKind::GhNop`] | `GHNOP` | Groundhog tracking without restore |
//! | [`StrategyKind::Fork`]  | `FORK`  | fork-per-request CoW isolation (single-threaded only, §5.2.3) |
//! | [`StrategyKind::Faasm`] | `FAASM` | WebAssembly Faaslet with CoW heap remap (§5.3.3) |
//! | [`StrategyKind::Fresh`] | —       | cold-start a new container per request (§2's trivial solution) |
//!
//! A [`Strategy`] owns per-container state (the Groundhog manager, the
//! Faasm heap checkpoint, ...) and is driven by the platform through
//! `prepare` → (`admit` → execute → `conclude`)*.

pub mod strategy;

pub use strategy::{PostReport, PrepareReport, RunTarget, Strategy, StrategyError, StrategyKind};
