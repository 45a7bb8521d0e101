//! The virtual clock that all simulated components charge time to.
//!
//! A [`VirtualClock`] is shared (cheaply, via [`VirtualClock::clone`])
//! between the simulated kernel, the Groundhog manager and the FaaS
//! platform. Components *advance* the clock when they perform work; readers
//! observe a monotonically non-decreasing `now`.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::time::Nanos;

/// A shared, monotonically advancing virtual clock.
///
/// Cloning produces a handle to the *same* underlying clock. The clock
/// is `Send`/`Sync` (`Arc<AtomicU64>`) so independent per-container
/// timelines can be driven from different host threads (sweep cells and
/// cluster nodes run on worker threads; §5.3.4 of the paper shows
/// containers scale independently per core) — but any *one* timeline is
/// still advanced by exactly one thread at a time, so relaxed ordering
/// suffices and the simulation stays deterministic.
///
/// # Examples
///
/// ```
/// use gh_sim::{Nanos, VirtualClock};
///
/// let clock = VirtualClock::new();
/// let observer = clock.clone();
/// clock.advance(Nanos::from_micros(10));
/// assert_eq!(observer.now(), Nanos::from_micros(10));
/// ```
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock at the epoch (t = 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a clock starting at `start`.
    pub fn starting_at(start: Nanos) -> Self {
        let c = Self::new();
        c.now.store(start.as_nanos(), Ordering::Relaxed);
        c
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Nanos {
        Nanos::from_nanos(self.now.load(Ordering::Relaxed))
    }

    /// Advances the clock by `dt` and returns the new time.
    ///
    /// A timeline is advanced by exactly one thread at a time (the
    /// worker that owns the container), so a plain load/store — rather
    /// than an RMW — is sufficient.
    #[inline]
    pub fn advance(&self, dt: Nanos) -> Nanos {
        let t = self
            .now
            .load(Ordering::Relaxed)
            .saturating_add(dt.as_nanos());
        self.now.store(t, Ordering::Relaxed);
        Nanos::from_nanos(t)
    }

    /// Moves the clock forward *to* `t` if `t` is in the future; a no-op
    /// otherwise (the clock never goes backwards).
    #[inline]
    pub fn advance_to(&self, t: Nanos) -> Nanos {
        self.now.fetch_max(t.as_nanos(), Ordering::Relaxed);
        self.now()
    }

    /// Measures the virtual time consumed by `f`.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, Nanos) {
        let t0 = self.now();
        let r = f();
        (r, self.now() - t0)
    }
}

/// A stopwatch over a [`VirtualClock`], for phase-by-phase breakdowns
/// (e.g. the thirteen restore phases of Fig. 8).
#[derive(Clone, Debug)]
pub struct Stopwatch {
    clock: VirtualClock,
    last: Nanos,
}

impl Stopwatch {
    /// Starts a stopwatch at the clock's current time.
    pub fn start(clock: &VirtualClock) -> Self {
        Self {
            clock: clock.clone(),
            last: clock.now(),
        }
    }

    /// Returns the time elapsed since start or the previous `lap`, and
    /// resets the lap origin.
    pub fn lap(&mut self) -> Nanos {
        let now = self.clock.now();
        let dt = now - self.last;
        self.last = now;
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(Nanos::from_nanos(7));
        b.advance(Nanos::from_nanos(3));
        assert_eq!(a.now().as_nanos(), 10);
        assert_eq!(b.now().as_nanos(), 10);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = VirtualClock::new();
        c.advance_to(Nanos::from_nanos(100));
        assert_eq!(c.now().as_nanos(), 100);
        c.advance_to(Nanos::from_nanos(50)); // must not go backwards
        assert_eq!(c.now().as_nanos(), 100);
    }

    #[test]
    fn starting_at_offsets_epoch() {
        let c = VirtualClock::starting_at(Nanos::from_secs(5));
        assert_eq!(c.now(), Nanos::from_secs(5));
    }

    #[test]
    fn measure_captures_elapsed() {
        let c = VirtualClock::new();
        let (val, dt) = c.measure(|| {
            c.advance(Nanos::from_micros(42));
            "done"
        });
        assert_eq!(val, "done");
        assert_eq!(dt, Nanos::from_micros(42));
    }

    #[test]
    fn stopwatch_laps() {
        let c = VirtualClock::new();
        let mut sw = Stopwatch::start(&c);
        c.advance(Nanos::from_nanos(10));
        assert_eq!(sw.lap().as_nanos(), 10);
        c.advance(Nanos::from_nanos(5));
        assert_eq!(sw.lap().as_nanos(), 5);
        assert_eq!(sw.lap().as_nanos(), 0);
    }
}
