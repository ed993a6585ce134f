//! Virtual time: integer nanoseconds for exact, deterministic ordering.
//!
//! Defined here, at the bottom of the stack, so that a [`crate::FailureEvent`]
//! carries the same instant type the simulation substrate (`drc_sim`, which
//! re-exports both types) reserves resources in, and seconds become
//! nanoseconds through one cast: [`SimDuration::from_secs_f64`].

/// An instant in virtual time, in nanoseconds since simulation start.
///
/// Integer-backed so comparisons, maxima and accumulation are exact: two
/// simulations that issue the same operations in the same order produce the
/// same timelines bit-for-bit, regardless of host or thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
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
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
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
    fn seconds_round_clamp_and_saturate() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        // Overflow saturates, +∞ included: never a free transfer.
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY),
            SimDuration(u64::MAX)
        );
        assert_eq!(SimDuration::from_secs_f64(2.4e-9), SimDuration(2));
    }
}
