//! What `MaxMatchingScheduler::assign` owes, held against the map-keyed
//! oracle (`oracle.rs`): a valid assignment whose local task count is the
//! oracle's maximum and `max_local`'s, as many tasks as there are slots
//! for, and the generator left untouched. Which maximum matching it builds
//! is its own: no reported number reads the task → node pairs.

use std::collections::BTreeMap;

use drc_mapreduce::{Assignment, MaxMatchingScheduler, TaskNodeGraph, TaskScheduler};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

use super::oracle;

/// Runs max-matching on a copy of `rng` and checks it against the contract;
/// returns its assignment.
pub fn assert_max_matching_contract(
    graph: &TaskNodeGraph,
    caps: &[usize],
    rng: &ChaCha8Rng,
    case: &dyn Fn() -> String,
) -> Assignment {
    let keyed: BTreeMap<_, _> = graph
        .nodes()
        .iter()
        .copied()
        .zip(caps.iter().copied())
        .collect();
    let mut got_rng = rng.clone();
    let got = MaxMatchingScheduler.assign(graph, caps, &mut got_rng);
    let optimum = oracle::max_matching(graph, &keyed, &mut rng.clone()).local_tasks();
    assert_eq!(
        got_rng.next_u64(),
        rng.clone().next_u64(),
        "max-matching drew on {}",
        case()
    );
    assert_eq!(got.validate(graph, caps), None, "{}", case());
    assert_eq!(got.local_tasks(), optimum, "local tasks on {}", case());
    assert_eq!(
        MaxMatchingScheduler::max_local(graph, caps),
        optimum,
        "max_local on {}",
        case()
    );
    assert_eq!(
        got.len(),
        graph.task_count().min(caps.iter().sum()),
        "assigned tasks on {}",
        case()
    );
    got
}
