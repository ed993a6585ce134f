//! Differential test of the CSR `TaskNodeGraph` against the graph it
//! replaced (`support/old_graph.rs`: a `TaskVertex` with an inline
//! `NodeList` per task, a growing `Vec<TaskId>` per node position). For
//! every code × liveness shape × task list — each list with a block the
//! placement does not know — the two must agree on the up nodes, every
//! node id's position (ids past the cluster included), every task's edges
//! in replica order and every position's task list in task order. A graph
//! rebuilt in place over whatever it held before must equal a fresh build.

#[path = "support/old_graph.rs"]
mod old_graph;

use drc_cluster::{Cluster, ClusterSpec, GlobalBlockId, NodeId, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_mapreduce::{MapTask, TaskId, TaskNodeGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every code family the registry builds.
const EVERY_CODE: [CodeKind; 9] = [
    CodeKind::TWO_REP,
    CodeKind::THREE_REP,
    CodeKind::Pentagon,
    CodeKind::Heptagon,
    CodeKind::HeptagonLocal,
    CodeKind::Polygon { nodes: 6 },
    CodeKind::RAID_M_10_9,
    CodeKind::RAID_M_12_11,
    CodeKind::ReedSolomon {
        data: 10,
        parity: 4,
    },
];

/// Nodes the placement is made on; the "past the cluster" shape builds the
/// graph against a view this many nodes smaller.
const NODES: usize = 32;
const CUT: usize = 5;
const STRIPES: usize = 6;

/// Tasks reading blocks `(stripe, block)` for every stripe below `stripes`
/// and every distinct block (parity included), with a block the placement
/// does not know spliced in after the first task, ids in list order.
fn tasks(placement: &PlacementMap, stripes: usize) -> Vec<MapTask> {
    let mut blocks: Vec<GlobalBlockId> = (0..stripes)
        .flat_map(|s| {
            (0..placement.distinct_blocks_per_stripe()).map(move |b| GlobalBlockId::new(s, b))
        })
        .collect();
    let unknown = GlobalBlockId::new(placement.stripe_count() + 1, 0);
    blocks.insert(blocks.len().min(1), unknown);
    blocks
        .into_iter()
        .enumerate()
        .map(|(i, block)| MapTask {
            id: TaskId(i),
            block,
        })
        .collect()
}

/// The liveness views a graph is built against, by name.
fn views(placement: &PlacementMap) -> Vec<(&'static str, Cluster)> {
    let full = || Cluster::new(ClusterSpec::custom(NODES, 4, 2));
    let mut one_down = full();
    one_down.set_down(placement.stripe_hosts(0).unwrap()[0]);
    let mut stripe_down = full();
    for &n in placement.stripe_hosts(1).unwrap().iter() {
        stripe_down.set_down(n);
    }
    vec![
        ("all up", full()),
        ("one host down", one_down),
        ("a stripe's hosts down", stripe_down),
        (
            "hosts past the cluster",
            Cluster::new(ClusterSpec::custom(NODES - CUT, 4, 2)),
        ),
    ]
}

/// Requires `graph` to describe exactly what `old` does.
fn assert_same(graph: &TaskNodeGraph, old: &old_graph::TaskNodeGraph, what: &str) {
    assert_eq!(graph.nodes(), old.nodes(), "{what}: nodes");
    assert_eq!(graph.task_count(), old.task_count(), "{what}: task count");
    for id in (0..NODES + 2).chain([usize::MAX]) {
        let node = NodeId(id);
        assert_eq!(
            graph.position_of(node),
            old.position_of(node),
            "{what}: position of {node}"
        );
        assert_eq!(
            graph.tasks_local_to(node),
            old.tasks_local_to(node),
            "{what}: tasks local to {node}"
        );
    }
    for at in 0..old.nodes().len() {
        assert_eq!(
            graph.tasks_local_at(at),
            old.tasks_local_at(at),
            "{what}: tasks at position {at}"
        );
    }
    for vertex in old.tasks() {
        let t = vertex.task;
        let edges: Vec<NodeId> = graph
            .local_positions(t)
            .iter()
            .map(|&at| graph.nodes()[at as usize])
            .collect();
        assert_eq!(
            edges,
            vertex.local_nodes.as_slice(),
            "{what}: edges of {t:?}"
        );
        for (at, node) in old.nodes().iter().enumerate() {
            assert_eq!(
                graph.is_local_at(t, at),
                old.task(t).local_nodes.contains(node),
                "{what}: {t:?} local at {node}"
            );
        }
    }
}

#[test]
fn csr_graph_matches_the_node_list_graph() {
    for code in EVERY_CODE {
        let built = code.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::custom(NODES, 4, 2));
        let mut rng = ChaCha8Rng::seed_from_u64(2014);
        let placement = PlacementMap::place(
            built.as_ref(),
            &cluster,
            STRIPES,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        // One graph rebuilt through every case, so each rebuild lands on
        // buffers shaped by a larger or a smaller graph than its own.
        let mut reused = TaskNodeGraph::default();
        for (view_name, view) in views(&placement) {
            for stripes in [STRIPES, 0, 2] {
                let tasks = tasks(&placement, stripes);
                let what = format!("{code}, {view_name}, {} tasks", tasks.len());
                let old = old_graph::TaskNodeGraph::build(&tasks, &placement, &view);
                let graph = TaskNodeGraph::build(&tasks, &placement, &view);
                assert_same(&graph, &old, &what);
                reused.rebuild(&tasks, &placement, &view);
                assert_eq!(reused, graph, "{what}: rebuilt in place");
            }
        }
    }
}

#[test]
fn rebuild_leaves_nothing_of_the_previous_graph() {
    let code = CodeKind::Heptagon.build().unwrap();
    let cluster = Cluster::new(ClusterSpec::custom(NODES, 4, 2));
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let placement = PlacementMap::place(
        code.as_ref(),
        &cluster,
        STRIPES,
        PlacementPolicy::Random,
        &mut rng,
    )
    .unwrap();
    let views = views(&placement);
    let (large, small) = (tasks(&placement, STRIPES), tasks(&placement, 1));
    // Larger → smaller and back, across views with more and fewer nodes.
    for (from, to) in [(&large, &small), (&small, &large)] {
        for (from_view, to_view) in [(&views[0].1, &views[2].1), (&views[3].1, &views[0].1)] {
            let mut graph = TaskNodeGraph::build(from, &placement, from_view);
            graph.rebuild(to, &placement, to_view);
            let fresh = TaskNodeGraph::build(to, &placement, to_view);
            assert_eq!(graph, fresh);
            let old = old_graph::TaskNodeGraph::build(to, &placement, to_view);
            assert_same(&graph, &old, "rebuilt");
        }
    }
    // Down to nothing: no task and no up node.
    let mut dark = Cluster::new(ClusterSpec::custom(NODES, 4, 2));
    for n in 0..NODES {
        dark.set_down(NodeId(n));
    }
    let mut graph = TaskNodeGraph::build(&large, &placement, &views[0].1);
    graph.rebuild(&[], &placement, &dark);
    assert_eq!(graph, TaskNodeGraph::build(&[], &placement, &dark));
    assert_eq!(graph.task_count(), 0);
    assert!(graph.nodes().is_empty());
    assert!(graph.tasks_local_to(NodeId(0)).is_empty());
}
