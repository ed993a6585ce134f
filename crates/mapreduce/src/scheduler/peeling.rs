//! The degree-guided peeling heuristic of Xie & Lu (ISIT 2012), modified for
//! array codes.
//!
//! The idea: tasks whose block survives on few candidate nodes are the ones
//! that lose locality when scheduled late, so they should be *peeled* first —
//! a task with a single remaining candidate is assigned there immediately;
//! otherwise the scheduler picks a most-constrained task and sends it to its
//! least-contended candidate node. The modification needed for the
//! pentagon/heptagon codes is to track per-node remaining slot capacity
//! rather than assuming one block per node, because these codes concentrate
//! several blocks of a stripe on the same node (Fig. 2); the capacity
//! bookkeeping below handles that directly.

use rand::RngCore;

use crate::assignment::{Assignment, TaskAssignment};
use crate::graph::TaskNodeGraph;
use crate::job::TaskId;
use crate::scheduler::{fill_remote, free_slots, TaskScheduler};

/// Degree-guided peeling task assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeelingScheduler;

impl TaskScheduler for PeelingScheduler {
    fn name(&self) -> &str {
        "peeling"
    }

    fn assign(
        &self,
        graph: &TaskNodeGraph,
        capacities: &[usize],
        rng: &mut dyn RngCore,
    ) -> Assignment {
        let _ = rng; // deterministic given the graph; kept for interface symmetry
        let nodes = graph.nodes();
        let mut free = free_slots(graph, capacities);
        let tasks = graph.task_count();
        let mut out: Vec<TaskAssignment> = Vec::with_capacity(tasks);
        // The candidate nodes (positions) of every task that still have
        // capacity, in one flat vector: task `t` owns
        // `candidates[base[t]..base[t] + degree[t]]`, and an exhausted node is
        // squeezed out of that window in place.
        let mut candidates: Vec<u32> = Vec::new();
        let mut base: Vec<usize> = Vec::with_capacity(tasks);
        let mut degree: Vec<usize> = Vec::with_capacity(tasks);
        // node position -> pending local demand (for picking the
        // least-contended node).
        let mut node_demand: Vec<usize> = vec![0; nodes.len()];
        for t in 0..tasks {
            base.push(candidates.len());
            for &at in graph.local_positions(TaskId(t)) {
                if free[at as usize] > 0 {
                    candidates.push(at);
                    node_demand[at as usize] += 1;
                }
            }
            degree.push(candidates.len() - base[base.len() - 1]);
        }
        // `open[t]`: task `t` has not been peeled yet.
        let mut open: Vec<bool> = vec![true; tasks];

        let mut leftovers: Vec<TaskId> = Vec::new();
        loop {
            // Find the unassigned task with the smallest positive degree.
            let mut best: Option<(usize, usize)> = None; // (degree, task index)
            for (idx, &d) in degree.iter().enumerate() {
                if !open[idx] || d == 0 {
                    continue;
                }
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, idx));
                    if d == 1 {
                        break; // cannot do better than a forced task
                    }
                }
            }
            let Some((d, task_idx)) = best else {
                break;
            };
            open[task_idx] = false;
            let window = &candidates[base[task_idx]..base[task_idx] + d];
            // Degree-guided choice: the candidate node with the fewest other
            // pending local tasks per unit of remaining capacity.
            let choice = window
                .iter()
                .map(|&at| at as usize)
                .filter(|&at| free[at] > 0)
                .min_by_key(|&at| {
                    // Scale to compare demand-per-slot without floating point.
                    (node_demand[at] * 1024 / free[at], at)
                });
            let Some(at) = choice else {
                // All candidates filled up in the meantime; defer to remote fill.
                leftovers.push(TaskId(task_idx));
                continue;
            };
            out.push(TaskAssignment {
                task: TaskId(task_idx),
                node: nodes[at],
                local: true,
            });
            // Update bookkeeping.
            for &c in window {
                let demand = &mut node_demand[c as usize];
                *demand = demand.saturating_sub(1);
            }
            free[at] -= 1;
            if free[at] == 0 {
                // Remove the exhausted node from every remaining candidate
                // list; only the tasks local to it can have it in theirs.
                let local = graph.tasks_local_at(at).iter().map(|t| t.0);
                for t in local.filter(|&t| open[t]) {
                    let window = &mut candidates[base[t]..base[t] + degree[t]];
                    let mut kept = 0;
                    for i in 0..window.len() {
                        if window[i] as usize != at {
                            window[kept] = window[i];
                            kept += 1;
                        }
                    }
                    degree[t] = kept;
                }
            }
        }
        // Tasks with no (remaining) local candidates are assigned remotely.
        leftovers.extend((0..tasks).filter(|&t| open[t]).map(TaskId));
        leftovers.sort_unstable();
        fill_remote(graph, &leftovers, &mut free, &mut out);
        Assignment::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MapTask;
    use crate::scheduler::{DelayScheduler, MaxMatchingScheduler};
    use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
    use drc_codes::CodeKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance(
        kind: CodeKind,
        tasks: usize,
        slots: usize,
        seed: u64,
    ) -> (TaskNodeGraph, Vec<usize>) {
        let cluster = Cluster::new(ClusterSpec::simulation_25(slots));
        let code = kind.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let stripes = tasks.div_ceil(code.data_blocks());
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            stripes,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
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
        let caps = vec![slots; graph.nodes().len()];
        (graph, caps)
    }

    #[test]
    fn produces_valid_assignments() {
        for kind in [CodeKind::Pentagon, CodeKind::Heptagon, CodeKind::TWO_REP] {
            let (graph, caps) = instance(kind, 100, 4, 31);
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let a = PeelingScheduler.assign(&graph, &caps, &mut rng);
            assert_eq!(a.len(), 100, "{kind}");
            assert!(a.validate(&graph, &caps).is_none(), "{kind}");
        }
    }

    #[test]
    fn peeling_sits_between_delay_and_matching_on_average() {
        // Fig. 3 (bottom-right): peeling improves on delay scheduling and is
        // bounded by maximum matching. Individual instances can tie, so check
        // the aggregate over several seeds.
        let mut delay_total = 0usize;
        let mut peel_total = 0usize;
        let mut match_total = 0usize;
        for seed in 0..10u64 {
            let (graph, caps) = instance(CodeKind::Pentagon, 100, 4, seed);
            let mut r1 = ChaCha8Rng::seed_from_u64(seed);
            let mut r2 = ChaCha8Rng::seed_from_u64(seed);
            let mut r3 = ChaCha8Rng::seed_from_u64(seed);
            delay_total += DelayScheduler::default()
                .assign(&graph, &caps, &mut r1)
                .local_tasks();
            peel_total += PeelingScheduler
                .assign(&graph, &caps, &mut r2)
                .local_tasks();
            match_total += MaxMatchingScheduler
                .assign(&graph, &caps, &mut r3)
                .local_tasks();
        }
        assert!(
            peel_total >= delay_total,
            "peeling {peel_total} < delay {delay_total}"
        );
        assert!(
            match_total >= peel_total,
            "matching {match_total} < peeling {peel_total}"
        );
    }

    #[test]
    fn forced_tasks_are_peeled_first() {
        // With a single slot per node, degree-1 tasks must keep their only
        // candidate; peeling guarantees that.
        let (graph, caps) = instance(CodeKind::TWO_REP, 25, 1, 17);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = PeelingScheduler.assign(&graph, &caps, &mut rng);
        assert_eq!(a.len(), 25);
        assert!(a.validate(&graph, &caps).is_none());
    }

    #[test]
    fn handles_overload_gracefully() {
        let (graph, caps) = instance(CodeKind::Heptagon, 140, 4, 19);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = PeelingScheduler.assign(&graph, &caps, &mut rng);
        assert_eq!(a.len(), 100);
        assert!(a.validate(&graph, &caps).is_none());
    }
}
