//! The task–node graph's allocation shape, measured with the counting
//! global allocator at the benchmark's locality shape (`datacenter(120)`,
//! 400 % load: 1 920 map tasks over 120 nodes): once a graph's buffers have
//! grown to a shape, rebuilding it — for the same tasks, for fewer, or
//! with nodes down — allocates nothing, and neither does
//! `PlacementMap::for_each_location`.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! does not leak into other tests; only the measured thread's allocations
//! count (`drc_testalloc::Threads::Current`).

use drc_cluster::{Cluster, ClusterSpec, NodeId, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_mapreduce::{MapTask, TaskId, TaskNodeGraph};
use drc_testalloc::{close_window, open_window, CountingAlloc, Threads};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serialised entry point: one `#[test]` drives every case so the single
/// measurement window is never contended.
#[test]
fn a_warm_rebuild_and_the_location_scan_allocate_nothing() {
    let spec = ClusterSpec::datacenter(120);
    let load_tasks = spec.tasks_for_load(400.0);
    assert_eq!(load_tasks, 1920, "the benchmark's shape");
    let mut cluster = Cluster::new(spec);
    for code in [CodeKind::THREE_REP, CodeKind::Pentagon, CodeKind::Heptagon] {
        let built = code.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2014);
        let placement = PlacementMap::place(
            built.as_ref(),
            &cluster,
            load_tasks.div_ceil(built.data_blocks()),
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let tasks: Vec<MapTask> = placement
            .data_blocks()
            .into_iter()
            .take(load_tasks)
            .enumerate()
            .map(|(i, block)| MapTask {
                id: TaskId(i),
                block,
            })
            .collect();
        let mut graph = TaskNodeGraph::build(&tasks, &placement, &cluster);

        open_window(Threads::Current, 0);
        graph.rebuild(&tasks, &placement, &cluster);
        let tally = close_window();
        assert_eq!(tally.allocs, 0, "{code}: second rebuild: {tally:?}");

        // A later wave: fewer pending tasks, two nodes declared dead.
        cluster.set_down(NodeId(3));
        cluster.set_down(NodeId(77));
        open_window(Threads::Current, 0);
        graph.rebuild(&tasks[..load_tasks / 4], &placement, &cluster);
        let tally = close_window();
        cluster.set_up(NodeId(3));
        cluster.set_up(NodeId(77));
        assert_eq!(tally.allocs, 0, "{code}: smaller rebuild: {tally:?}");
        assert_eq!(graph.task_count(), load_tasks / 4);

        let mut edges = 0usize;
        open_window(Threads::Current, 0);
        for task in &tasks {
            placement
                .for_each_location(task.block, |_| edges += 1)
                .unwrap();
        }
        let tally = close_window();
        assert_eq!(tally.allocs, 0, "{code}: for_each_location: {tally:?}");
        let expected: usize = tasks
            .iter()
            .map(|t| placement.locations(t.block).unwrap().len())
            .sum();
        assert_eq!(edges, expected, "{code}");
    }
}
