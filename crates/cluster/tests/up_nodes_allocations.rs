//! Allocation shape of `Cluster::up_nodes`, measured with the counting
//! global allocator: the list is sized once from the down set, so a
//! 1000-node cluster makes as many allocations as a 25-node one (one), where
//! a collect through `filter` regrows its `Vec` about log2(n) times.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! does not leak into other tests; only the measured thread's allocations
//! count (`drc_testalloc::Threads::Current`).

use drc_cluster::{Cluster, ClusterSpec, NodeId};
use drc_testalloc::{close_window, open_window, CountingAlloc, Threads};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `up_nodes` on `spec` with nodes 0 and 3 down: how many allocations it
/// made, and the list it returned.
fn up_nodes_tally(spec: ClusterSpec) -> (usize, Vec<NodeId>) {
    let mut cluster = Cluster::new(spec);
    cluster.set_down(NodeId(0));
    cluster.set_down(NodeId(3));
    open_window(Threads::Current, 0);
    let up = cluster.up_nodes();
    let tally = close_window();
    (tally.allocs, up)
}

#[test]
fn up_nodes_allocates_once_whatever_the_cluster_size() {
    let (small, small_up) = up_nodes_tally(ClusterSpec::simulation_25(4));
    let (large, large_up) = up_nodes_tally(ClusterSpec::datacenter(1000));
    assert_eq!(small_up.len(), 23);
    assert_eq!(large_up.len(), 998);
    assert!(!large_up.contains(&NodeId(3)) && large_up.contains(&NodeId(999)));
    assert_eq!(large_up.capacity(), large_up.len(), "sized exactly");
    assert_eq!(small, 1, "25 nodes");
    assert_eq!(large, small, "1000 nodes allocate as often as 25");
}
