//! Bandwidth servers: the contention model for disks, NICs and links.

use std::cell::Cell;

use drc_cluster::{Positive, SimDuration, SimTime};

/// One mebibyte, the unit the cluster specs quote bandwidth in (MiB/s).
const MIB: f64 = 1024.0 * 1024.0;

/// The virtual-time window a resource granted to one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reservation {
    /// When the operation starts occupying the resource.
    pub start: SimTime,
    /// When the resource becomes free again.
    pub end: SimTime,
}

impl Reservation {
    /// The reserved span.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// A unit-capacity bandwidth server in virtual time.
///
/// A resource (a disk, a NIC, the shared LAN fabric) serves one
/// operation at a time; an operation issued at `now` starts at
/// `max(now, next_free)` and occupies the resource for its duration. That
/// single rule is what makes contention visible: transfers on *different*
/// resources overlap, transfers on the *same* resource queue behind each
/// other.
///
/// The free-time cursor and the slowdown are plain `Cell`s: a resource
/// belongs to one simulation, which issues its operations on one thread, so
/// a resource is `!Sync` and reserving through `&self` needs no lock.
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<drc_sim::Resource>();
/// ```
///
/// A resource can be **slowed down** ([`Resource::set_slowdown`]): a factor
/// of 2.0 halves the effective bandwidth from that point on, 1.0 restores
/// nominal speed. Failure traces use this for degraded-but-alive nodes
/// (a failing disk, a congested uplink).
///
/// # Example
///
/// ```
/// use drc_sim::{Resource, SimTime};
///
/// let disk = Resource::new(100.0); // 100 MiB/s
/// let a = disk.reserve_bytes(SimTime::ZERO, 100 << 20);
/// let b = disk.reserve_bytes(SimTime::ZERO, 100 << 20);
/// assert_eq!(a.end.as_secs_f64(), 1.0);
/// assert_eq!(b.start, a.end); // queued behind the first read
/// ```
#[derive(Debug)]
pub struct Resource {
    bandwidth_mib_s: f64,
    next_free: Cell<SimTime>,
    /// Bandwidth divisor: 1.0 = nominal, 2.0 = half speed.
    slowdown: Cell<f64>,
}

impl Resource {
    /// Creates a free resource with the given bandwidth in MiB/s.
    ///
    /// A non-positive bandwidth models an infinitely fast resource. No
    /// cluster resource reaches that rule ([`crate::ClusterNet`] builds them
    /// from a spec's `Positive` bandwidths); only unit and property tests and
    /// the benchmark's single-resource probe pass such a value.
    pub fn new(bandwidth_mib_s: f64) -> Self {
        Resource {
            bandwidth_mib_s,
            next_free: Cell::new(SimTime::ZERO),
            slowdown: Cell::new(1.0),
        }
    }

    /// The modeled nominal bandwidth in MiB/s (before any slowdown).
    pub(crate) fn bandwidth_mib_s(&self) -> f64 {
        self.bandwidth_mib_s
    }

    /// The current slowdown factor (1.0 when running at nominal speed).
    pub fn slowdown(&self) -> f64 {
        self.slowdown.get()
    }

    /// Divides the effective bandwidth by `factor` for every reservation
    /// made from now on (already-granted windows are unchanged). A factor
    /// of 1.0 restores nominal speed.
    pub fn set_slowdown(&self, factor: Positive) {
        self.slowdown.set(factor.get());
    }

    /// The service time for `bytes` at this resource's effective (slowdown-
    /// adjusted) bandwidth; zero on an infinitely fast resource (see
    /// [`Resource::new`]).
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        let bandwidth_mib_s = self.bandwidth_mib_s / self.slowdown();
        if bandwidth_mib_s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / (bandwidth_mib_s * MIB))
    }

    /// When the resource is next idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free.get()
    }

    /// Reserves the resource for `duration`, starting no earlier than `now`.
    pub fn reserve_for(&self, now: SimTime, duration: SimDuration) -> Reservation {
        let start = now.max(self.next_free.get());
        let end = start + duration;
        self.next_free.set(end);
        Reservation { start, end }
    }

    /// Reserves the time to move `bytes` through the resource, starting no
    /// earlier than `now`.
    pub fn reserve_bytes(&self, now: SimTime, bytes: u64) -> Reservation {
        self.reserve_for(now, self.service_time(bytes))
    }

    /// Marks the resource busy through `end` without changing when earlier
    /// reservations finish (used when one operation must hold several
    /// resources over the same window).
    pub fn occupy_until(&self, end: SimTime) {
        self.next_free.set(self.next_free.get().max(end));
    }

    /// Forgets all reservations and any slowdown (a fresh resource at the
    /// epoch, at nominal speed).
    pub fn reset(&self) {
        self.next_free.set(SimTime::ZERO);
        self.slowdown.set(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_serialise() {
        let r = Resource::new(50.0);
        let a = r.reserve_bytes(SimTime::ZERO, 50 << 20);
        let b = r.reserve_bytes(SimTime::ZERO, 25 << 20);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.duration().as_secs_f64(), 1.0);
        assert_eq!(b.start, a.end);
        assert_eq!(b.duration().as_secs_f64(), 0.5);
        assert_eq!(r.next_free(), b.end);
    }

    #[test]
    fn idle_gaps_are_respected() {
        let r = Resource::new(100.0);
        let late = r.reserve_bytes(SimTime(5_000_000_000), 100 << 20);
        assert_eq!(late.start, SimTime(5_000_000_000));
    }

    #[test]
    fn occupy_and_reset() {
        let r = Resource::new(1.0);
        r.occupy_until(SimTime(42));
        assert_eq!(r.next_free(), SimTime(42));
        r.occupy_until(SimTime(7));
        assert_eq!(r.next_free(), SimTime(42));
        r.reset();
        assert_eq!(r.next_free(), SimTime::ZERO);
    }

    #[test]
    fn slowdown_scales_service_time_and_reset_clears_it() {
        let factor = |f: f64| Positive::new(f).unwrap();
        let r = Resource::new(100.0);
        assert_eq!(r.slowdown(), 1.0);
        r.set_slowdown(factor(2.0));
        assert_eq!(r.slowdown(), 2.0);
        // 100 MiB at an effective 50 MiB/s take two seconds.
        let res = r.reserve_bytes(SimTime::ZERO, 100 << 20);
        assert_eq!(res.duration().as_secs_f64(), 2.0);
        // Restoring nominal speed only affects future reservations.
        r.set_slowdown(factor(1.0));
        let healthy = r.reserve_bytes(SimTime::ZERO, 100 << 20);
        assert_eq!(healthy.duration().as_secs_f64(), 1.0);
        assert_eq!(healthy.start, res.end);
        r.set_slowdown(factor(4.0));
        r.reset();
        assert_eq!(r.slowdown(), 1.0);
    }

    #[test]
    fn bytes_to_duration() {
        // 100 MiB at 100 MiB/s is one second.
        let second = Resource::new(100.0).service_time(100 << 20);
        assert_eq!(second, SimDuration(1_000_000_000));
        // Overflow saturates: never a free transfer.
        let never = Resource::new(1e-310).service_time(1 << 20);
        assert_eq!(never, SimDuration(u64::MAX));
    }

    #[test]
    fn infinite_bandwidth_is_instant() {
        let r = Resource::new(0.0);
        let res = r.reserve_bytes(SimTime(9), u64::MAX);
        assert_eq!(res.start, res.end);
    }
}
