//! The two schedulers that skip repeated work — max-matching keeps a failed
//! augmenting search's marks until the next success, peeling squeezes a full
//! node only out of the windows that hold it — against the map-keyed oracle
//! (`support/oracle.rs`) at the two ends of the scale the proptest in
//! `scheduler_proptests.rs` samples between: every instance of a small scope,
//! and the benchmark's locality shape. Peeling must return the same
//! `Assignment` in the same order and leave the same `rng.next_u64()`.
//! Max-matching is held to `support/matching_contract.rs`: a valid
//! assignment whose local tasks number the oracle's optimum and
//! `MaxMatchingScheduler::max_local`, the count the locality simulation
//! samples, with `min(tasks, Σ capacities)` tasks and no draw.
//!
//! `assign` and `max_local` run one search, so a mutant of it shows in
//! both. Mutants made on a copy, and the first case that fails here:
//!
//! - the generation never advances: `blocks [2, 2, 0, 0]`, caps `[0, 2, 2]`
//!   (3 local tasks, not 4);
//! - the greedy pass does not decrement `free`: `blocks [0, 0]`, caps
//!   `[1, 0, 0]` (node over capacity), and 3-rep seed 2014;
//! - a holder is taken without checking it sits on the node: `blocks
//!   [1, 0]`, caps `[0, 2, 0]` (over capacity);
//! - the early stop fires one slot short: `blocks [2, 0]`, caps `[0, 1, 1]`;
//! - an augmenting search that ends on a spare slot does not decrement
//!   `free`: `blocks [2, 0, 0]`, caps `[0, 1, 1]` (over capacity). The
//!   count alone never showed this one here; the assignment does.
//!
//! One mutant passes, and is equivalent: stopping at `local == tasks`
//! instead of at every slot held. The stop only saves searches that cannot
//! succeed. `locality_differential.rs` no longer sees a mutant of the
//! search: both of its loops read this one.

use std::collections::BTreeMap;

use drc_cluster::{Cluster, ClusterSpec, GlobalBlockId, NodeId, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_mapreduce::{Assignment, MapTask, PeelingScheduler, TaskId, TaskNodeGraph, TaskScheduler};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

// Delay scheduling's oracle body is exercised by `scheduler_proptests.rs`.
#[allow(dead_code)]
#[path = "support/oracle.rs"]
mod oracle;

#[path = "support/matching_contract.rs"]
mod matching_contract;

/// Runs peeling and its oracle from the same generator state and requires
/// identical output and rng state, then holds max-matching to its contract;
/// returns max-matching's result.
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
    let mut got_rng = rng.clone();
    let mut want_rng = rng.clone();
    let got = PeelingScheduler.assign(graph, caps, &mut got_rng);
    let want = oracle::peeling(graph, &keyed, &mut want_rng);
    assert_eq!(got, want, "peeling on {}", case());
    assert_eq!(
        got_rng.next_u64(),
        want_rng.next_u64(),
        "peeling on {}: rng streams diverged",
        case()
    );
    matching_contract::assert_max_matching_contract(graph, caps, rng, case)
}

/// Whether each of max-matching's augmenting searches succeeded, in the
/// order it ran them. The searches run in task order over the tasks the
/// greedy pass (replayed here) left without a slot, until every slot holds
/// a local task. A matched task never becomes unmatched again, so a search
/// succeeded iff its task ended up local.
fn search_outcomes(graph: &TaskNodeGraph, caps: &[usize], matching: &Assignment) -> Vec<bool> {
    let mut local = vec![false; graph.task_count()];
    for a in matching.iter() {
        local[a.task.0] = a.local;
    }
    let mut free = caps.to_vec();
    let mut outcomes = Vec::new();
    for t in (0..graph.task_count()).map(TaskId) {
        let positions = graph.local_positions(t);
        match positions.iter().find(|&&at| free[at as usize] > 0) {
            Some(&at) => free[at as usize] -= 1,
            None => outcomes.push(local[t.0]),
        }
    }
    // The early stop: no search runs after the success that fills the
    // last slot.
    if matching.local_tasks() == caps.iter().sum::<usize>() {
        outcomes.truncate(outcomes.iter().rposition(|&ok| ok).map_or(0, |i| i + 1));
    }
    outcomes
}

/// Every sequence of `len` digits in `0..base`.
fn words(len: u32, base: usize) -> impl Iterator<Item = Vec<usize>> {
    (0..base.pow(len)).map(move |w| (0..len).map(|i| w / base.pow(i) % base).collect())
}

/// Every instance on 3 nodes with at most 5 tasks: each task reads one of
/// three 2-rep blocks that sit on the three node pairs (tasks may share a
/// block), under every set of down nodes (which turns pairs into singletons
/// or nothing), and every capacity vector in {0, 1, 2}³ over the up nodes.
/// One rng seed: no scheduler checked here draws, which both checks hold
/// on every instance, so a second seed would repeat the first.
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

    let (mut instances, mut augmented, mut augmented_twice) = (0, 0, 0);
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
                    let rng = ChaCha8Rng::seed_from_u64(3);
                    let case = || format!("blocks {blocks:?}, down {down:03b}, caps {caps:?}");
                    let matching = assert_matches_oracle(&graph, &caps, &rng, &case);
                    let outcomes = search_outcomes(&graph, &caps, &matching);
                    instances += 1;
                    // The greedy pass was not maximum: a search moved a
                    // holder to free a slot.
                    let successes = outcomes.iter().filter(|&&ok| ok).count();
                    if successes >= 1 {
                        augmented += 1;
                    }
                    // A success, then a search that must start from fresh
                    // marks and succeed.
                    if successes >= 2 {
                        augmented_twice += 1;
                    }
                }
            }
        }
    }
    assert_eq!(instances, 64 * 364);
    assert_eq!((augmented, augmented_twice), (1029, 21));
}

/// The `mr_sweep` locality shape: `datacenter(120)`, 4 slots, 400 % load —
/// 1 920 tasks on 480 slots. 3-rep, pentagon and heptagon on three seeds
/// each, plus one case with three down nodes and ragged capacities (zeros
/// included). Placement and assignment draw from one generator, as in
/// `simulate_locality`. The greedy pass fills every slot in eight cases, so
/// no search runs. In heptagon seeds 7 and `0xD0C5` a node holds fewer
/// local tasks than it has slots: all 1 444 searches fail, each on the
/// marks of the ones before.
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

    let mut searches = Vec::new();
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
        let outcomes = search_outcomes(&graph, &caps, &matching);
        searches.push((outcomes.len(), outcomes.iter().filter(|&&ok| ok).count()));
    }
    // (searches run, searches that succeeded), case by case.
    let mut want = [(0, 0); 10];
    want[7] = (1444, 0);
    want[8] = (1444, 0);
    assert_eq!(searches, want);
}
