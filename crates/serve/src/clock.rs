//! Injected time for the batching window.
//!
//! The micro-batcher never reads the system clock directly: every
//! "what time is it" and "how long may I park" question goes through a
//! [`Clock`]. Production uses [`SystemClock`]; the concurrency test
//! harness uses [`FakeClock`], whose time only moves when the test
//! calls [`FakeClock::advance`] — so a test can pile requests into a
//! window behind a peer that is mid-send, prove nothing flushes, then
//! advance past the deadline (or let the peer finish) and prove
//! exactly one batch forms. Flush decisions depend only on `now_ns()`,
//! queue state and the batcher's inbound-session count, never on how
//! often a thread waiting on a window woke up, which is what makes the
//! fake-clock runs outcome-deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock the batcher's window waiters poll.
pub trait Clock: Send + Sync + 'static {
    /// Monotonic nanoseconds since an arbitrary (per-clock) epoch.
    fn now_ns(&self) -> u64;

    /// Longest a thread waiting on a window may block on the batcher's
    /// condvar before re-checking state, given that the window's
    /// deadline is `wait_ns` away. Submissions, windows being taken,
    /// and the last mid-send session going quiet always wake it early,
    /// so this is an upper bound, not a schedule.
    fn max_park(&self, wait_ns: u64) -> Duration;
}

/// Real time: parks until the window's deadline.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock with its epoch at construction time.
    pub fn new() -> SystemClock {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn max_park(&self, wait_ns: u64) -> Duration {
        // +1 ns so a park never wakes just *before* its deadline and
        // burns a spin iteration on rounding.
        Duration::from_nanos(wait_ns.saturating_add(1))
    }
}

/// Test time: an atomic counter that only moves on [`FakeClock::advance`].
///
/// `max_park` returns a short real-time poll interval (fake time can
/// move between any two polls, and the advancing thread cannot notify
/// the batcher's condvar), so fake-clock runs trade a little idle
/// polling for fully controlled deadlines.
#[derive(Debug, Default)]
pub struct FakeClock {
    now: AtomicU64,
}

impl FakeClock {
    /// A fake clock at t=0.
    pub fn new() -> FakeClock {
        FakeClock::default()
    }

    /// Moves time forward by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    fn max_park(&self, _wait_ns: u64) -> Duration {
        Duration::from_millis(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        assert_eq!(c.max_park(5), Duration::from_nanos(6));
    }

    #[test]
    fn fake_clock_moves_only_on_advance() {
        let c = FakeClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.advance(1_000);
        assert_eq!(c.now_ns(), 1_000);
        c.advance(u64::from(u32::MAX));
        assert_eq!(c.now_ns(), 1_000 + u64::from(u32::MAX));
        assert_eq!(c.max_park(1 << 40), Duration::from_millis(1));
    }
}
