//! Batched page touches.
//!
//! A [`TouchBatch`] is a reusable, pre-sorted plan of page touches —
//! the unit [`AddressSpace::touch_batch`](crate::AddressSpace::touch_batch)
//! resolves in one ordered cursor walk over the extents and frame
//! chunks instead of one extent search per page. Callers (function
//! behaviours replaying a cached write plan) fill the batch once per
//! invocation and keep the allocation alive across invocations.
//!
//! Read sets need no batch of their own:
//! [`AddressSpace::read_span`](crate::AddressSpace::read_span) walks a
//! sorted `Vpn` slice directly, counts warm pages in place, and puts
//! only the pages that fault or fail into a scratch batch, so the same
//! reused batch serves as the slow path of both.
//!
//! Semantics are defined by equivalence: applying a batch is
//! bit-identical — same fault counters, same dirty/taint state, same
//! page contents — to calling `touch` once per item in item order,
//! ignoring per-item errors (the hot loops do `let _ = touch(...)`).
//! The differential oracle in `crates/mem/tests/batch_oracle.rs` pins
//! this equivalence over seeded patterns.

use crate::addr::Vpn;
use crate::space::{FaultCounters, Touch};
use crate::taint::Taint;

/// What applying a batch did: the aggregate fault counters (identical
/// to the per-page loop's) and how many items errored — the touches a
/// `let _ = touch(..)` loop would have silently skipped. Callers that
/// used to `expect` every touch assert `failed == 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Fault counters charged by this batch.
    pub faults: FaultCounters,
    /// Items skipped with an access error (unmapped, permission).
    pub failed: u64,
}

/// One page touch of a batch: where, what, and whose data.
#[derive(Clone, Copy, Debug)]
pub struct TouchItem {
    /// The page to touch.
    pub vpn: Vpn,
    /// Read or write-word.
    pub touch: Touch,
    /// Taint label merged into the frame on writes (ignored for reads,
    /// matching `touch`'s signature where reads pass `Taint::Clean`).
    pub taint: Taint,
}

/// A reusable batch of page touches, applied in item order.
///
/// The fast cursor walk requires items sorted by `vpn` (duplicates
/// allowed — they are processed in order, so a write followed by a read
/// of the same page behaves exactly like the equivalent `touch` calls).
/// An unsorted batch is still *correct*: `touch_batch` detects it in one
/// pass and falls back to the per-item path.
#[derive(Clone, Debug, Default)]
pub struct TouchBatch {
    items: Vec<TouchItem>,
    /// Tracks sortedness incrementally so `push`-built batches don't
    /// need a verification pass.
    sorted: bool,
}

impl TouchBatch {
    /// An empty batch.
    pub fn new() -> TouchBatch {
        TouchBatch {
            items: Vec::new(),
            sorted: true,
        }
    }

    /// An empty batch with room for `cap` items.
    pub fn with_capacity(cap: usize) -> TouchBatch {
        TouchBatch {
            items: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    /// Appends one touch. Sortedness is tracked incrementally.
    #[inline]
    pub fn push(&mut self, vpn: Vpn, touch: Touch, taint: Taint) {
        if let Some(last) = self.items.last() {
            if last.vpn.0 > vpn.0 {
                self.sorted = false;
            }
        }
        self.items.push(TouchItem { vpn, touch, taint });
    }

    /// Clears the batch, keeping its allocation (the scratch-reuse path).
    pub fn clear(&mut self) {
        self.items.clear();
        self.sorted = true;
    }

    /// The items in application order.
    pub fn items(&self) -> &[TouchItem] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the batch holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when items are sorted by vpn (ties allowed) and the cursor
    /// walk applies.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_tracks_sortedness() {
        let mut b = TouchBatch::new();
        assert!(b.is_sorted() && b.is_empty());
        b.push(Vpn(5), Touch::Read, Taint::Clean);
        b.push(Vpn(5), Touch::WriteWord(1), Taint::Clean);
        b.push(Vpn(9), Touch::Read, Taint::Clean);
        assert!(b.is_sorted());
        assert_eq!(b.len(), 3);
        b.push(Vpn(2), Touch::Read, Taint::Clean);
        assert!(!b.is_sorted());
        b.clear();
        assert!(b.is_sorted() && b.is_empty());
    }
}
