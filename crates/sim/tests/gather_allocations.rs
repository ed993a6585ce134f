//! `ClusterNet::gather` allocates nothing: a reducer's 119-source fan-in on
//! `datacenter(120)` — the benchmark's shuffle shape — runs on the stack,
//! on busy cursors, with slowed sources, a source naming the destination
//! and duplicates.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! does not leak into other tests; only the measured thread's allocations
//! count (`drc_testalloc::Threads::Current`).

use drc_cluster::{ClusterSpec, NodeId, Positive};
use drc_sim::{ClusterNet, SimDuration, SimTime};
use drc_testalloc::{close_window, open_window, CountingAlloc, Threads};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn a_119_source_gather_allocates_nothing() {
    let mut net = ClusterNet::new(&ClusterSpec::datacenter(120));
    let dest = NodeId(17);
    let remote: Vec<NodeId> = (0..120).map(NodeId).filter(|&n| n != dest).collect();
    assert_eq!(remote.len(), 119);
    let mut messy = remote.clone();
    messy.extend([dest, NodeId(3), NodeId(3)]);
    net.set_node_slowdown(NodeId(40), Positive::new(2.5).unwrap());
    net.fabric().occupy_until(SimTime(1_000_000));

    let mut fetches = 0usize;
    let mut waited = SimDuration::ZERO;
    open_window(Threads::Current, 0);
    for (i, sources) in [&remote, &messy, &remote].into_iter().enumerate() {
        net.gather(SimTime(i as u64), dest, sources, 1 << 20, |_, out| {
            fetches += 1;
            waited = waited + out.pipe_waits()[1];
        });
    }
    let tally = close_window();
    assert_eq!(tally.allocs, 0, "gather allocated: {tally:?}");
    assert_eq!(fetches, 119 + 122 + 119);
    assert!(
        waited > SimDuration::ZERO,
        "the fan-ins queued on the destination"
    );
}
