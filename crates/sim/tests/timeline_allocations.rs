//! Recording a phase allocates nothing: a `PhaseKind` is `Copy`, so
//! `Timeline::record` into reserved capacity is one push of a plain value
//! (a `String` label allocated once per phase).
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! does not leak into other tests; only the measured thread's allocations
//! count (`drc_testalloc::Threads::Current`).

use drc_cluster::NodeId;
use drc_sim::{PhaseKind, SimTime, Timeline};
use drc_testalloc::{close_window, open_window, CountingAlloc, Threads};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn recording_into_reserved_capacity_allocates_nothing() {
    const PHASES: usize = 4_096;
    let mut timeline = Timeline {
        phases: Vec::with_capacity(PHASES + 1),
    };
    open_window(Threads::Current, 0);
    for i in 0..PHASES {
        let at = SimTime(i as u64);
        let kind = match i % 4 {
            0 => PhaseKind::Repair { file: 1, stripe: i },
            1 => PhaseKind::DegradedRead {
                file: 1,
                stripe: i,
                block: 3,
            },
            2 => PhaseKind::MapWave(i),
            _ => PhaseKind::Shuffle,
        };
        timeline.record(kind, at, SimTime(i as u64 + 1), 1);
    }
    timeline.record_detection_lag(NodeId(4), SimTime(0), SimTime(7));
    let tally = close_window();
    assert_eq!(tally.allocs, 0, "record allocated: {tally:?}");
    assert_eq!(timeline.phases.len(), PHASES + 1);
}
