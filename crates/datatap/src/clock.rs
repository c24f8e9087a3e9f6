//! Injectable time source for the transport's timeout paths.
//!
//! The channel's deadline arithmetic is done in the simulation time domain
//! ([`SimTime`]/[`SimDuration`]) against a [`Clock`] chosen at
//! construction, instead of raw `std::time::Instant` math scattered
//! through the wait loops. Production code uses [`WallClock`] (the only
//! sanctioned wall-clock read in the crate); tests and deterministic
//! harnesses use [`ManualClock`], which only moves when told to — so a
//! timeout can be driven, and asserted on, without real sleeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sim_core::{SimDuration, SimTime};

/// A monotonic time source on the simulation time axis.
pub trait Clock: Send + Sync {
    /// The current instant. Must be monotonically non-decreasing.
    fn now(&self) -> SimTime;

    /// How a blocked timeout wait should pass `remaining` virtual time:
    /// the returned std duration is handed to the condvar wait. The wall
    /// clock blocks for the full remainder; a manual clock jumps virtual
    /// time to the deadline and returns zero — virtual sleeping, as in a
    /// discrete-event simulation, so timeout paths never really block.
    fn block_slice(&self, remaining: SimDuration) -> Duration;
}

/// The process wall clock mapped onto the [`SimTime`] axis: nanoseconds
/// since this clock was created.
#[derive(Debug)]
pub struct WallClock {
    epoch: std::time::Instant,
}

impl WallClock {
    /// Creates a wall clock whose epoch is "now".
    // Everything else derives from this epoch through Clock::now().
    #[expect(
        clippy::disallowed_methods,
        reason = "the transport epoch is the one sanctioned wall-clock read"
    )]
    pub fn new() -> WallClock {
        WallClock { epoch: std::time::Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(clamp_u64(self.epoch.elapsed().as_nanos()))
    }

    fn block_slice(&self, remaining: SimDuration) -> Duration {
        to_std(remaining)
    }
}

/// A clock that advances only when told to. Thread-safe, so a test can
/// drive time from one thread while another blocks on a timeout.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ns: AtomicU64,
}

impl ManualClock {
    /// Creates a manual clock at the epoch (t = 0).
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Creates a manual clock already at `t`.
    pub fn at(t: SimTime) -> ManualClock {
        let c = ManualClock::new();
        c.set(t);
        c
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: SimDuration) {
        self.now_ns.fetch_add(d.as_nanos(), Ordering::SeqCst);
    }

    /// Jumps the clock to `t` (must not move it backwards).
    pub fn set(&self, t: SimTime) {
        self.now_ns.fetch_max(t.as_nanos(), Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::SeqCst))
    }

    fn block_slice(&self, remaining: SimDuration) -> Duration {
        self.advance(remaining);
        Duration::ZERO
    }
}

fn clamp_u64(ns: u128) -> u64 {
    ns.min(u64::MAX as u128) as u64
}

/// Converts a std timeout into the simulation time domain.
pub(crate) fn to_sim(d: Duration) -> SimDuration {
    SimDuration::from_nanos(clamp_u64(d.as_nanos()))
}

/// Converts a simulation-domain remainder back into a std wait.
pub(crate) fn to_std(d: SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_from_its_epoch() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(a <= b);
    }

    #[test]
    fn manual_clock_moves_only_when_driven() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_millis(5));
        assert_eq!(c.now(), SimTime::from_millis(5));
        c.set(SimTime::from_millis(3)); // backwards jumps are ignored
        assert_eq!(c.now(), SimTime::from_millis(5));
        c.set(SimTime::from_secs(1));
        assert_eq!(c.now(), SimTime::from_secs(1));
    }

    #[test]
    fn domain_conversions_round_trip() {
        let d = Duration::from_micros(1234);
        assert_eq!(to_std(to_sim(d)), d);
    }
}
