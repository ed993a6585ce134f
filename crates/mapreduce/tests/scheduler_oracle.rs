//! The two schedulers that skip repeated work — max-matching keeps a failed
//! augmenting search's marks until the next success, peeling squeezes a full
//! node only out of the windows that hold it — against the map-keyed oracle
//! (`support/oracle.rs`) at the two ends of the scale the proptest in
//! `scheduler_proptests.rs` samples between: every instance of a small scope,
//! and the benchmark's locality shape. Each case requires the same
//! `Assignment` in the same order and the same `rng.next_u64()` afterwards.
//!
//! Every case also holds `MaxMatchingScheduler::max_local`, the count the
//! locality simulation samples instead of an assignment, to max-matching's
//! local tasks, and `min(tasks, Σ capacities)` to its assigned tasks.
//! Mutants of the count made on a copy, and the first case that fails:
//!
//! - the generation never advances: `blocks [2, 2, 0, 0]`, caps `[0, 2, 2]`;
//! - the greedy pass does not decrement `free`: `blocks [0, 0]`, caps
//!   `[1, 0, 1]`, and heptagon seed 7;
//! - a holder is taken without checking it sits on the node: `blocks
//!   [1, 0]`, caps `[0, 2, 0]`;
//! - the early stop fires one slot short: `blocks [2, 0]`, caps `[0, 1, 1]`.
//!
//! Two mutants pass here. Stopping at `local == tasks` instead of at every
//! slot held, or never stopping early, is equivalent: the stop only saves
//! searches that cannot succeed. An augmenting search that ends on a spare
//! slot without decrementing `free` needs two such paths into one node;
//! this scope and these cases never make them. `locality_differential.rs`
//! catches it (2-rep, µ 2, 100 %), and so does the debug cross-check in
//! `simulate_locality_each` under the library's unit tests.

use std::collections::BTreeMap;

use drc_cluster::{Cluster, ClusterSpec, GlobalBlockId, NodeId, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_mapreduce::{
    Assignment, MapTask, MaxMatchingScheduler, PeelingScheduler, TaskId, TaskNodeGraph,
    TaskScheduler,
};
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

// Delay scheduling's oracle body is exercised by `scheduler_proptests.rs`.
#[allow(dead_code)]
#[path = "support/oracle.rs"]
mod oracle;

type Oracle = fn(&TaskNodeGraph, &BTreeMap<NodeId, usize>, &mut dyn RngCore) -> Assignment;

const SCHEDULERS: [(&dyn TaskScheduler, Oracle); 2] = [
    (&MaxMatchingScheduler, oracle::max_matching),
    (&PeelingScheduler, oracle::peeling),
];

/// Runs both schedulers and their oracles from the same generator state and
/// requires identical output and rng state, and max-matching's local and
/// assigned task counts to be what `max_local` and the capacities say
/// without an assignment; returns max-matching's result.
fn assert_matches_oracle(
    graph: &TaskNodeGraph,
    caps: &[usize],
    rng: &ChaCha8Rng,
    case: &dyn Fn() -> String,
) -> Assignment {
    let keyed: BTreeMap<NodeId, usize> = graph
        .nodes()
        .iter()
        .copied()
        .zip(caps.iter().copied())
        .collect();
    let results: Vec<Assignment> = SCHEDULERS
        .iter()
        .map(|&(scheduler, oracle)| {
            let mut got_rng = rng.clone();
            let mut want_rng = rng.clone();
            let got = scheduler.assign(graph, caps, &mut got_rng);
            let want = oracle(graph, &keyed, &mut want_rng);
            assert_eq!(got, want, "{} on {}", scheduler.name(), case());
            assert_eq!(
                got_rng.next_u64(),
                want_rng.next_u64(),
                "{} on {}: rng streams diverged",
                scheduler.name(),
                case()
            );
            got
        })
        .collect();
    let matching = results.into_iter().next().expect("max-matching runs first");
    assert_eq!(
        MaxMatchingScheduler::max_local(graph, caps),
        matching.local_tasks(),
        "max_local on {}",
        case()
    );
    assert_eq!(
        graph.task_count().min(caps.iter().sum()),
        matching.len(),
        "assigned tasks on {}",
        case()
    );
    matching
}

/// Whether each of max-matching's augmenting searches succeeded, in the
/// order it ran them. A matched task never becomes unmatched again, so a
/// search failed iff its task ended up remote; the order is the last of the
/// scheduler's documented draws (one shuffle per task's candidate-slot list,
/// then one of the task order), replayed on a copy of its generator.
fn search_outcomes(
    graph: &TaskNodeGraph,
    caps: &[usize],
    rng: &ChaCha8Rng,
    matching: &Assignment,
) -> Vec<bool> {
    let mut rng = rng.clone();
    for t in (0..graph.task_count()).map(TaskId) {
        let slots: usize = graph
            .local_positions(t)
            .iter()
            .map(|&at| caps[at as usize])
            .sum();
        vec![0u32; slots].shuffle(&mut rng);
    }
    let mut order: Vec<usize> = (0..graph.task_count()).collect();
    order.shuffle(&mut rng);
    let mut local = vec![false; graph.task_count()];
    for a in matching.iter() {
        local[a.task.0] = a.local;
    }
    order.into_iter().map(|t| local[t]).collect()
}

/// Every sequence of `len` digits in `0..base`.
fn words(len: u32, base: usize) -> impl Iterator<Item = Vec<usize>> {
    (0..base.pow(len)).map(move |w| (0..len).map(|i| w / base.pow(i) % base).collect())
}

/// Every instance on 3 nodes with at most 5 tasks: each task reads one of
/// three 2-rep blocks that sit on the three node pairs (tasks may share a
/// block), under every set of down nodes (which turns pairs into singletons
/// or nothing), every capacity vector in {0, 1, 2}³ over the up nodes, and
/// two rng seeds.
#[test]
fn every_small_instance_matches_the_map_keyed_oracle() {
    let cluster = Cluster::new(ClusterSpec::custom(3, 1, 2));
    let code = CodeKind::TWO_REP.build().unwrap();
    // Round-robin puts stripe `s` on ring cells `2s, 2s + 1` mod 3.
    let placement = PlacementMap::place(
        code.as_ref(),
        &cluster,
        3,
        PlacementPolicy::RoundRobin,
        &mut ChaCha8Rng::seed_from_u64(0),
    )
    .unwrap();
    let mut pairs: Vec<Vec<usize>> = (0..3)
        .map(|s| {
            let mut hosts: Vec<usize> = placement
                .locations(GlobalBlockId::new(s, 0))
                .unwrap()
                .iter()
                .map(|n| n.0)
                .collect();
            hosts.sort_unstable();
            hosts
        })
        .collect();
    pairs.sort_unstable();
    assert_eq!(pairs, [vec![0, 1], vec![0, 2], vec![1, 2]]);

    let (mut instances, mut success_after_failures, mut success_after_success) = (0, 0, 0);
    for down in 0..8usize {
        let mut view = cluster.clone();
        for n in (0..3).filter(|n| down >> n & 1 == 1) {
            view.set_down(NodeId(n));
        }
        for len in 0..=5 {
            for blocks in words(len, 3) {
                let tasks: Vec<MapTask> = blocks
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| MapTask {
                        id: TaskId(i),
                        block: GlobalBlockId::new(s, 0),
                    })
                    .collect();
                let graph = TaskNodeGraph::build(&tasks, &placement, &view);
                for caps in words(graph.nodes().len() as u32, 3) {
                    for seed in [3u64, 0x5EED] {
                        let rng = ChaCha8Rng::seed_from_u64(seed);
                        let case = || {
                            format!(
                                "blocks {blocks:?}, down {down:03b}, caps {caps:?}, seed {seed}"
                            )
                        };
                        let matching = assert_matches_oracle(&graph, &caps, &rng, &case);
                        let outcomes = search_outcomes(&graph, &caps, &rng, &matching);
                        instances += 1;
                        // A success that ran on the marks of two failures.
                        if outcomes.windows(3).any(|w| w == [false, false, true]) {
                            success_after_failures += 1;
                        }
                        // A failure, a success on its marks, then a search
                        // that must start from fresh marks and succeed.
                        if let Some(f) = outcomes.iter().position(|&ok| !ok) {
                            if outcomes[f..].iter().filter(|&&ok| ok).count() >= 2 {
                                success_after_success += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(instances, 64 * 364 * 2);
    assert!(success_after_failures > 0 && success_after_success > 0);
}

/// The `mr_sweep` locality shape: `datacenter(120)`, 4 slots, 400 % load —
/// 1 920 tasks on 480 slots, so at least 1 440 of every instance's searches
/// fail, in long runs that share their marks. 3-rep, pentagon and heptagon
/// on three seeds each, plus one case with three down nodes and ragged
/// capacities (zeros included). Placement and assignment draw from one
/// generator, as in `simulate_locality`.
#[test]
fn benchmark_scale_instances_match_the_map_keyed_oracle() {
    let spec = ClusterSpec::datacenter(120);
    let tasks = spec.tasks_for_load(400.0);
    assert_eq!((tasks, spec.total_map_slots()), (1920, 480));
    let mut cases: Vec<(CodeKind, &[usize], bool, u64)> = Vec::new();
    for code in [CodeKind::THREE_REP, CodeKind::Pentagon, CodeKind::Heptagon] {
        for seed in [2014, 7, 0xD0C5] {
            cases.push((code, &[], false, seed));
        }
    }
    cases.push((CodeKind::Pentagon, &[5, 60, 119], true, 11));

    for (code, down, ragged, seed) in cases {
        let mut cluster = Cluster::new(spec.clone());
        let built = code.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let placement = PlacementMap::place(
            built.as_ref(),
            &cluster,
            tasks.div_ceil(built.data_blocks()),
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
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
        let graph = TaskNodeGraph::build(&map_tasks, &placement, &cluster);
        let mut cap_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCA95);
        let caps: Vec<usize> = graph
            .nodes()
            .iter()
            .map(|_| {
                if ragged {
                    cap_rng.next_u64() as usize % 6
                } else {
                    4
                }
            })
            .collect();
        let case = || format!("{code}, seed {seed}, down {down:?}");
        let matching = assert_matches_oracle(&graph, &caps, &rng, &case);
        let outcomes = search_outcomes(&graph, &caps, &rng, &matching);
        let failed = outcomes.iter().filter(|&&ok| !ok).count();
        let longest_failed_run = outcomes
            .split(|&ok| ok)
            .map(<[bool]>::len)
            .max()
            .unwrap_or(0);
        assert!(failed >= tasks - caps.iter().sum::<usize>(), "{}", case());
        assert!(
            longest_failed_run >= 100,
            "{}: {longest_failed_run}",
            case()
        );
    }
}
