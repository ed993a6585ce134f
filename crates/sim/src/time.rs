//! Virtual time: integer nanoseconds for exact, deterministic ordering.

use serde::Serialize;

/// One mebibyte, the unit the cluster specs quote bandwidth in (MiB/s).
const MIB: f64 = 1024.0 * 1024.0;

/// An instant in virtual time, in nanoseconds since simulation start.
///
/// Integer-backed so comparisons, maxima and accumulation are exact: two
/// simulations that issue the same operations in the same order produce the
/// same timelines bit-for-bit, regardless of host or thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since the simulation epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time elapsed since `earlier` (zero if `earlier` is later).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Converts from seconds, rounding to the nearest nanosecond. NaN and
    /// non-positive seconds are zero; anything past `u64::MAX` ns, +∞
    /// included, saturates at `u64::MAX` (the `as` cast saturates).
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The duration in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to move `bytes` through a pipe of `bandwidth_mib_s` MiB/s.
    ///
    /// A non-positive bandwidth models an infinitely fast resource (zero
    /// duration); see [`crate::Resource::new`] for who still reaches it.
    pub(crate) fn for_bytes(bytes: u64, bandwidth_mib_s: f64) -> SimDuration {
        if bandwidth_mib_s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / (bandwidth_mib_s * MIB))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

/// The clock a simulation advances as it executes timed operations.
///
/// Operations are *issued* at `now()`; the issuing layer decides when to
/// advance, which is what lets independently-issued repair and degraded-read
/// work overlap: both are issued at the same instant and only the shared
/// [`crate::Resource`]s serialise them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: SimTime,
}

impl VirtualClock {
    /// A clock at the simulation epoch.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Moves the clock forward to `t`; never moves it backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ordering() {
        let t = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
        assert_eq!(t, SimTime(1_500_000_000));
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(t.max(SimTime(7)), t);
        assert_eq!(t.since(SimTime(500_000_000)), SimDuration(1_000_000_000));
        assert_eq!(SimTime(3).since(t), SimDuration::ZERO);
        assert_eq!(t.to_string(), "1.500s");
    }

    #[test]
    fn bytes_to_duration() {
        // 100 MiB at 100 MiB/s is one second.
        let d = SimDuration::for_bytes(100 * 1024 * 1024, 100.0);
        assert_eq!(d, SimDuration(1_000_000_000));
        assert_eq!(SimDuration::for_bytes(1 << 30, 0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        // Overflow saturates, +∞ included: never a free transfer.
        let never_free = SimDuration(u64::MAX);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), never_free);
        assert_eq!(SimDuration::for_bytes(1 << 20, 1e-310), never_free);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut clock = VirtualClock::new();
        clock.advance_to(SimTime(10));
        clock.advance_to(SimTime(5));
        assert_eq!(clock.now(), SimTime(10));
    }
}
