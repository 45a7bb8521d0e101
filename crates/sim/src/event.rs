//! A minimal discrete-event queue.
//!
//! Most experiments in the paper run containers on dedicated cores with
//! sequential request streams, which this reproduction simulates directly.
//! The event queue exists for the open-loop / multi-container cases (the
//! saturating-throughput workload of §5.3 and the core-scaling experiment
//! of §5.3.4), where multiple container timelines and a client interleave.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// An event scheduled at a virtual time, carrying a payload.
#[derive(Clone, Debug)]
struct Scheduled<T> {
    at: Nanos,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest-first.
        // Ties break by insertion order for determinism.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic earliest-first event queue.
///
/// # Examples
///
/// ```
/// use gh_sim::event::EventQueue;
/// use gh_sim::Nanos;
///
/// let mut q = EventQueue::new();
/// q.schedule(Nanos::from_millis(5), "b");
/// q.schedule(Nanos::from_millis(1), "a");
/// assert_eq!(q.pop().unwrap(), (Nanos::from_millis(1), "a"));
/// assert_eq!(q.pop().unwrap(), (Nanos::from_millis(5), "b"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` at virtual time `at`.
    pub fn schedule(&mut self, at: Nanos, payload: T) {
        let seq = self.reserve();
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Takes the next insertion number without scheduling anything. An
    /// event a caller holds back under it comes before every scheduled
    /// event whose [`EventQueue::peek`] key is greater, ties included:
    /// the order it would have popped in had it been scheduled now.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Drops every pending event and restarts insertion numbers from
    /// zero, keeping the heap's allocation: the queue then orders ties
    /// exactly as a fresh one does.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// Time and insertion number of the earliest event, if any: the key
    /// events pop in, which a held-back event's `(time, reserved
    /// number)` compares against.
    pub fn peek(&self) -> Option<(Nanos, u64)> {
        self.heap.peek().map(|s| (s.at, s.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(30), 3);
        q.schedule(Nanos::from_nanos(10), 1);
        q.schedule(Nanos::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Nanos::from_nanos(5);
        q.schedule(t, "first");
        q.schedule(t, "second");
        q.schedule(t, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn a_held_back_event_pops_where_it_was_reserved() {
        // Each case schedules events at these times, holding back the
        // one at index `held` under a reserved number: merged through
        // `peek`, the held event pops exactly where it pops when it is
        // scheduled in its turn, ties included.
        let times = [7u64, 5, 7, 3, 7, 5, 9];
        for held in 0..times.len() {
            let mut scheduled = EventQueue::new();
            let mut split = EventQueue::new();
            let mut key = None;
            for (i, &t) in times.iter().enumerate() {
                let at = Nanos::from_nanos(t);
                scheduled.schedule(at, i);
                if i == held {
                    key = Some((at, split.reserve()));
                } else {
                    split.schedule(at, i);
                }
            }
            let reference: Vec<usize> =
                std::iter::from_fn(|| scheduled.pop().map(|(_, i)| i)).collect();
            let merged: Vec<usize> = std::iter::from_fn(|| match (key, split.peek()) {
                (Some(k), next) if next.is_none_or(|n| k < n) => {
                    key = None;
                    Some(held)
                }
                _ => split.pop().map(|(_, i)| i),
            })
            .collect();
            assert_eq!(merged, reference, "held back: event {held}");
        }
    }

    #[test]
    fn a_reset_queue_is_a_fresh_queue() {
        let t = Nanos::from_nanos(5);
        let mut reused = EventQueue::new();
        reused.schedule(Nanos::from_nanos(9), "stale");
        reused.schedule(t, "stale");
        reused.reserve();
        reused.reset();
        assert!(
            reused.is_empty() && reused.peek().is_none(),
            "pending events drop"
        );
        let mut fresh = EventQueue::new();
        for q in [&mut reused, &mut fresh] {
            q.schedule(t, "first");
            assert_eq!(q.reserve(), 1, "insertion numbers restart");
            q.schedule(Nanos::from_nanos(3), "early");
            q.schedule(t, "second");
        }
        let order = |q: &mut EventQueue<&'static str>| -> Vec<(Nanos, &str)> {
            std::iter::from_fn(|| q.pop()).collect()
        };
        assert_eq!(order(&mut reused), order(&mut fresh));
        assert!(reused.is_empty());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        q.schedule(Nanos::from_nanos(9), ());
        q.schedule(Nanos::from_nanos(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some((Nanos::from_nanos(4), 1)));
        assert_eq!(q.reserve(), 2, "a reservation takes the next number");
        q.schedule(Nanos::from_nanos(4), ());
        q.pop();
        assert_eq!(q.peek(), Some((Nanos::from_nanos(4), 3)));
    }
}
