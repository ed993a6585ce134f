//! Property tests for `Resource`, the unit-capacity bandwidth server every
//! disk, NIC and fabric is built from. Random operation sequences
//! hold its contract:
//!
//! * **FIFO, no backfill** — a grant issued at `now` starts exactly at
//!   `max(now, next_free)`, never in an idle gap left before an earlier
//!   grant, and lasts the service time at the current slowdown;
//! * the cursor never moves backwards under `reserve_bytes`, `reserve_for`
//!   or `occupy_until`, and ends exactly where the last grant ends;
//! * `occupy_until` an instant at or before the cursor changes nothing;
//! * `reset` returns to the epoch at nominal speed: the next grant equals
//!   a fresh resource's.
//!
//! A degenerate slowdown factor (zero, negative, NaN) cannot reach a
//! resource at all: `Positive::new` rejects it.

use drc_cluster::Positive;
use drc_sim::{Resource, SimDuration, SimTime};
use proptest::prelude::*;

/// One operation on a resource, decoded from a random word.
#[derive(Debug, Clone, Copy)]
enum Op {
    ReserveBytes { now: SimTime, bytes: u64 },
    ReserveFor { now: SimTime, duration: SimDuration },
    Occupy { end: SimTime },
    Slowdown { factor: Positive },
    Reset,
}

/// Instants within ~17 s of the epoch, so grants collide often.
fn instant(bits: u64) -> SimTime {
    SimTime(bits % 17_000_000_000)
}

fn op(word: u64) -> Op {
    let arg = word >> 4;
    match word % 16 {
        0..=5 => Op::ReserveBytes {
            now: instant(arg),
            bytes: (arg >> 20) % (64 << 20),
        },
        6..=9 => Op::ReserveFor {
            now: instant(arg),
            duration: SimDuration((arg >> 24) % 3_000_000_000),
        },
        10..=12 => Op::Occupy { end: instant(arg) },
        13 | 14 => Op::Slowdown {
            factor: Positive::new([0.5, 1.0, 2.0, 3.5][(arg % 4) as usize]).unwrap(),
        },
        _ => Op::Reset,
    }
}

fn bandwidth(pick: u64) -> f64 {
    [0.0, 1.0, 45.0, 60.0, 100.0, 1500.0][(pick % 6) as usize]
}

#[test]
fn degenerate_slowdown_factors_are_rejected_by_the_type() {
    for factor in [0.0, -1.0, f64::NAN] {
        assert_eq!(Positive::new(factor), None, "{factor}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn grants_are_fifo_and_the_cursor_never_goes_back(
        pick in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 1..48),
    ) {
        let r = Resource::new(bandwidth(pick));
        // Every window granted since the last reset.
        let mut granted: Vec<(SimTime, SimTime)> = Vec::new();
        for word in words {
            let before = r.next_free();
            match op(word) {
                Op::ReserveBytes { now, bytes } => {
                    let service = r.service_time(bytes);
                    let g = r.reserve_bytes(now, bytes);
                    prop_assert_eq!(g.start, now.max(before), "FIFO start, {:?}", op(word));
                    prop_assert_eq!(g.end, g.start + service);
                    prop_assert!(granted.iter().all(|&(_, end)| g.start >= end), "backfilled");
                    prop_assert_eq!(r.next_free(), g.end);
                    granted.push((g.start, g.end));
                }
                Op::ReserveFor { now, duration } => {
                    let g = r.reserve_for(now, duration);
                    prop_assert_eq!(g.start, now.max(before));
                    prop_assert_eq!(g.end, g.start + duration);
                    prop_assert!(granted.iter().all(|&(_, end)| g.start >= end), "backfilled");
                    prop_assert_eq!(r.next_free(), g.end);
                    granted.push((g.start, g.end));
                }
                Op::Occupy { end } => {
                    r.occupy_until(end);
                    prop_assert_eq!(r.next_free(), before.max(end));
                    if end <= before {
                        prop_assert_eq!(r.next_free(), before, "an earlier occupy moved the cursor");
                    }
                }
                Op::Slowdown { factor } => {
                    r.set_slowdown(factor);
                    prop_assert_eq!(r.next_free(), before);
                }
                Op::Reset => {
                    r.reset();
                    granted.clear();
                    prop_assert_eq!(r.next_free(), SimTime::ZERO);
                    prop_assert_eq!(r.slowdown(), 1.0);
                    continue;
                }
            }
            prop_assert!(r.next_free() >= before, "cursor went back");
        }
    }

    #[test]
    fn reset_returns_to_the_epoch_at_nominal_speed(
        pick in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 0..32),
        now in 0u64..5_000_000_000,
        bytes in 0u64..(256 << 20),
    ) {
        let used = Resource::new(bandwidth(pick));
        for word in words {
            match op(word) {
                Op::ReserveBytes { now, bytes } => {
                    used.reserve_bytes(now, bytes);
                }
                Op::ReserveFor { now, duration } => {
                    used.reserve_for(now, duration);
                }
                Op::Occupy { end } => used.occupy_until(end),
                Op::Slowdown { factor } => used.set_slowdown(factor),
                Op::Reset => used.reset(),
            }
        }
        used.reset();
        let fresh = Resource::new(bandwidth(pick));
        prop_assert_eq!(used.next_free(), SimTime::ZERO);
        prop_assert_eq!(used.slowdown(), 1.0);
        prop_assert_eq!(used.service_time(bytes), fresh.service_time(bytes));
        prop_assert_eq!(
            used.reserve_bytes(SimTime(now), bytes),
            fresh.reserve_bytes(SimTime(now), bytes)
        );
        prop_assert_eq!(used.next_free(), fresh.next_free());
    }
}
