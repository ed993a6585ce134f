//! Property-based tests on the task schedulers: every scheduler must produce
//! valid assignments, the three schedulers must respect their known quality
//! ordering in aggregate, and the dense node-indexed implementations must
//! reproduce the map-keyed ones they replaced — rng stream included — or,
//! for max-matching, the oracle's optimum (`support/matching_contract.rs`).

use std::collections::BTreeMap;

use drc_cluster::{Cluster, ClusterSpec, NodeId, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_mapreduce::{
    Assignment, DelayScheduler, MapTask, PeelingScheduler, SchedulerKind, TaskAssignment, TaskId,
    TaskNodeGraph, TaskScheduler,
};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[path = "support/oracle.rs"]
mod oracle;

#[path = "support/matching_contract.rs"]
mod matching_contract;

fn paper_code() -> impl Strategy<Value = CodeKind> {
    prop_oneof![
        Just(CodeKind::TWO_REP),
        Just(CodeKind::THREE_REP),
        Just(CodeKind::Pentagon),
        Just(CodeKind::Heptagon),
        Just(CodeKind::HeptagonLocal),
    ]
}

/// Every code family, including the ones whose tasks have a single local
/// node (1-rep, Reed–Solomon) or wide stripes (RAID+m spans 20–24 nodes).
fn any_code() -> impl Strategy<Value = CodeKind> {
    prop_oneof![
        paper_code(),
        Just(CodeKind::Replication { replicas: 1 }),
        Just(CodeKind::Polygon { nodes: 6 }),
        Just(CodeKind::RAID_M_10_9),
        Just(CodeKind::RAID_M_12_11),
        Just(CodeKind::ReedSolomon { data: 6, parity: 3 }),
        Just(CodeKind::ReedSolomon {
            data: 10,
            parity: 4
        }),
    ]
}

/// A random placement of `tasks` map tasks of `code` on a `nodes`-node
/// cluster with `down` taken out after placement; `None` if the code's
/// stripe does not fit.
fn build_graph(
    code: CodeKind,
    nodes: usize,
    slots: usize,
    tasks: usize,
    down: &[usize],
    seed: u64,
) -> Option<TaskNodeGraph> {
    let mut cluster = Cluster::new(ClusterSpec::custom(nodes, 3, slots));
    let built = code.build().unwrap();
    let stripes = tasks.div_ceil(built.data_blocks()).max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = PlacementMap::place(
        built.as_ref(),
        &cluster,
        stripes,
        PlacementPolicy::Random,
        &mut rng,
    )
    .ok()?;
    for &n in down {
        cluster.set_down(NodeId(n));
    }
    let map_tasks: Vec<MapTask> = placement
        .data_blocks()
        .into_iter()
        .take(tasks)
        .enumerate()
        .map(|(i, block)| MapTask {
            id: TaskId(i),
            block,
        })
        .collect();
    Some(TaskNodeGraph::build(&map_tasks, &placement, &cluster))
}

fn build_instance(
    code: CodeKind,
    nodes: usize,
    slots: usize,
    tasks: usize,
    seed: u64,
) -> (TaskNodeGraph, Vec<usize>) {
    let graph = build_graph(code, nodes, slots, tasks, &[], seed).expect("paper codes fit");
    let caps = vec![slots; graph.nodes().len()];
    (graph, caps)
}

/// `validate` holds each node to its own capacity, parallel to
/// `graph.nodes()` as `assign` takes it: two tasks on a node with one slot
/// are a violation even though another node has three.
#[test]
fn validate_holds_each_node_to_its_own_capacity() {
    let graph = build_graph(CodeKind::TWO_REP, 3, 3, 2, &[], 0).expect("2-rep fits");
    let first = graph.nodes()[0];
    let two_on_first: Assignment = (0..2)
        .map(|t| TaskAssignment {
            task: TaskId(t),
            node: first,
            local: graph.is_local_at(TaskId(t), 0),
        })
        .collect();
    assert_eq!(two_on_first.validate(&graph, &[2, 3, 3]), None);
    assert_eq!(
        two_on_first.validate(&graph, &[1, 3, 3]),
        Some(format!("node {first} over its capacity of 1"))
    );
    assert!(two_on_first.validate(&graph, &[2, 3]).is_some());
}

/// One scheduler, both ways: the library's `assign` and the oracle's body.
type Pair = (
    Box<dyn TaskScheduler>,
    fn(&TaskNodeGraph, &BTreeMap<NodeId, usize>, &mut dyn RngCore) -> Assignment,
);

fn scheduler_pairs() -> Vec<Pair> {
    vec![
        (Box::new(DelayScheduler::full_sweep()), |g, c, r| {
            oracle::delay(None, g, c, r)
        }),
        (Box::new(DelayScheduler::new(3)), |g, c, r| {
            oracle::delay(Some(3), g, c, r)
        }),
        (Box::new(PeelingScheduler), oracle::peeling),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every scheduler produces a valid assignment: no duplicate tasks, no
    /// over-capacity nodes, correct locality flags, and full coverage when
    /// capacity allows.
    #[test]
    fn schedulers_produce_valid_assignments(
        code in paper_code(),
        slots in 1usize..5,
        tasks in 1usize..120,
        seed in any::<u64>(),
    ) {
        // A cluster large enough for every paper code's stripe (>= 15 nodes).
        let (graph, caps) = build_instance(code, 25, slots, tasks, seed);
        let capacity_total: usize = caps.iter().sum();
        for kind in SchedulerKind::all() {
            let scheduler = kind.build();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
            let assignment = scheduler.assign(&graph, &caps, &mut rng);
            prop_assert!(assignment.validate(&graph, &caps).is_none(), "{kind} invalid");
            prop_assert_eq!(assignment.len(), tasks.min(capacity_total), "{} wrong size", kind);
            prop_assert!(assignment.locality_percent() >= 0.0);
            prop_assert!(assignment.locality_percent() <= 100.0);
        }
    }

    /// Maximum matching never places fewer tasks locally than the heuristics,
    /// on any instance.
    #[test]
    fn matching_is_an_upper_bound(
        code in paper_code(),
        slots in 1usize..5,
        tasks in 1usize..100,
        seed in any::<u64>(),
    ) {
        let (graph, caps) = build_instance(code, 25, slots, tasks, seed);
        let mut rng_m = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_d = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_p = ChaCha8Rng::seed_from_u64(seed);
        let mm = SchedulerKind::MaxMatching.build().assign(&graph, &caps, &mut rng_m);
        let ds = SchedulerKind::Delay.build().assign(&graph, &caps, &mut rng_d);
        let peel = SchedulerKind::Peeling.build().assign(&graph, &caps, &mut rng_p);
        prop_assert!(mm.local_tasks() >= ds.local_tasks());
        prop_assert!(mm.local_tasks() >= peel.local_tasks());
    }

    /// With ample slots (capacity >= tasks on every replica holder) every
    /// 2-replica code instance can be scheduled fully locally by matching.
    #[test]
    fn matching_achieves_full_locality_with_ample_capacity(
        tasks in 1usize..40,
        seed in any::<u64>(),
    ) {
        let (graph, caps) = build_instance(CodeKind::TWO_REP, 25, 8, tasks, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mm = SchedulerKind::MaxMatching.build().assign(&graph, &caps, &mut rng);
        // 8 slots x 25 nodes = 200 >> tasks, and every task has 2 candidates:
        // by Hall's theorem a perfect local matching exists.
        prop_assert_eq!(mm.local_tasks(), tasks);
    }
}

proptest! {
    // 11 code families × 4 loads × {uniform, ragged}: enough cases to land
    // on every combination a few times.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense schedulers against the map-keyed bodies they replaced: the
    /// same assignments in the same order, and the generator left in the
    /// same state; max-matching to the oracle's optimum, with no draw —
    /// over every code family that fits, under- and over-load, down nodes,
    /// and capacities that are uniform or ragged (zeros included).
    #[test]
    fn dense_schedulers_match_the_map_keyed_oracle(
        code in any_code(),
        slots in 1usize..5,
        load in prop_oneof![Just(50usize), Just(100), Just(250), Just(400)],
        down in prop::collection::vec(0usize..25, 0..4),
        ragged in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let tasks = (25 * slots * load / 100).max(1);
        let Some(graph) = build_graph(code, 25, slots, tasks, &down, seed) else {
            return Ok(()); // the stripe is wider than the cluster
        };
        let mut cap_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCA95);
        let caps: Vec<usize> = graph
            .nodes()
            .iter()
            .map(|_| if ragged { cap_rng.next_u64() as usize % (slots + 2) } else { slots })
            .collect();
        let keyed: BTreeMap<NodeId, usize> =
            graph.nodes().iter().copied().zip(caps.iter().copied()).collect();
        for (scheduler, oracle) in scheduler_pairs() {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
            let mut oracle_rng = rng.clone();
            let got = scheduler.assign(&graph, &caps, &mut rng);
            let want = oracle(&graph, &keyed, &mut oracle_rng);
            prop_assert_eq!(&got, &want, "{} on {}", scheduler.name(), code);
            prop_assert_eq!(
                rng.next_u64(),
                oracle_rng.next_u64(),
                "{} on {}: rng streams diverged",
                scheduler.name(),
                code
            );
        }
        let rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let case = || format!("{code}, down {down:?}, ragged {ragged}, seed {seed}");
        matching_contract::assert_max_matching_contract(&graph, &caps, &rng, &case);
    }
}
