//! Hadoop's delay scheduling (Zaharia et al., EuroSys 2010).
//!
//! Nodes ask for work in heartbeat order. If the node sending a heartbeat
//! holds no replica of any pending task's block, the scheduler *skips* the
//! assignment; after a bounded number of consecutive skips it gives up on
//! locality and hands the node an arbitrary (remote) pending task. The paper
//! configures the delay "such that every node has a chance to assign two
//! (four) local map tasks" — i.e. on the order of a full sweep of the
//! cluster's heartbeats — which is the default here.

use rand::seq::SliceRandom;
use rand::RngCore;

use crate::assignment::{Assignment, TaskAssignment};
use crate::graph::TaskNodeGraph;
use crate::job::TaskId;
use crate::scheduler::{fill_remote, free_slots, TaskScheduler};

/// The delay-scheduling heuristic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DelayScheduler {
    /// Maximum number of consecutive heartbeats the job may be skipped before
    /// a remote task is launched. `None` uses one full sweep of the cluster.
    max_skips: Option<usize>,
}

impl DelayScheduler {
    /// Creates a delay scheduler with an explicit skip budget.
    pub fn new(max_skips: usize) -> Self {
        DelayScheduler {
            max_skips: Some(max_skips),
        }
    }

    /// Creates a delay scheduler whose skip budget equals the cluster size
    /// (one full heartbeat sweep), matching the paper's configuration.
    pub fn full_sweep() -> Self {
        DelayScheduler { max_skips: None }
    }
}

impl TaskScheduler for DelayScheduler {
    fn name(&self) -> &str {
        "delay-scheduling"
    }

    fn assign(
        &self,
        graph: &TaskNodeGraph,
        capacities: &[usize],
        rng: &mut dyn RngCore,
    ) -> Assignment {
        let nodes = graph.nodes();
        let mut free = free_slots(graph, capacities);
        let mut total_free: usize = free.iter().sum();
        let max_skips = self.max_skips.unwrap_or_else(|| nodes.len().max(1));
        let mut pending: Vec<bool> = vec![true; graph.task_count()];
        let mut pending_count = graph.task_count();
        // `pending` only ever flips to `false`, so "the first pending task
        // local to node i" and "the first pending task" never move backwards:
        // each is a cursor that skips settled entries once instead of a
        // rescan per heartbeat.
        let mut local_cursor: Vec<usize> = vec![0; nodes.len()];
        let mut first_pending = 0usize;
        let mut out: Vec<TaskAssignment> = Vec::with_capacity(graph.task_count());
        let mut skip_count = 0usize;

        // Heartbeat loop: repeatedly sweep the nodes (in random order per
        // sweep, as heartbeat arrival order is arbitrary) while there is both
        // pending work and free capacity. Exactly one `shuffle` of the
        // carried-over order per sweep — the draws are part of the output.
        let mut heartbeat_order: Vec<u32> = (0..nodes.len() as u32).collect();
        'outer: loop {
            if pending_count == 0 || total_free == 0 {
                break;
            }
            heartbeat_order.shuffle(rng);
            let mut progressed = false;
            for &at in &heartbeat_order {
                let at = at as usize;
                if pending_count == 0 {
                    break 'outer;
                }
                if free[at] == 0 {
                    continue;
                }
                // Look for a pending task with a replica on this node.
                let local = graph.tasks_local_at(at);
                let cursor = &mut local_cursor[at];
                while local.get(*cursor).is_some_and(|t| !pending[t.0]) {
                    *cursor += 1;
                }
                let (task, is_local) = match local.get(*cursor) {
                    Some(&task) => (task, true),
                    None => {
                        skip_count += 1;
                        if skip_count <= max_skips {
                            continue;
                        }
                        // Give up on locality for one task: the first
                        // pending one (`pending_count > 0` here, so the
                        // cursor stops inside the vector).
                        while !pending[first_pending] {
                            first_pending += 1;
                        }
                        let task = TaskId(first_pending);
                        (task, graph.is_local_at(task, at))
                    }
                };
                pending[task.0] = false;
                pending_count -= 1;
                free[at] -= 1;
                total_free -= 1;
                out.push(TaskAssignment {
                    task,
                    node: nodes[at],
                    local: is_local,
                });
                skip_count = 0;
                progressed = true;
            }
            if !progressed && skip_count == 0 {
                // Nothing could be scheduled at all this sweep (should not
                // happen, but guards against infinite loops).
                break;
            }
        }
        // Any tasks still pending once capacity is exhausted stay unassigned;
        // if capacity remains (only possible when every remaining task is
        // remote-only), spread them as remote tasks.
        if pending_count > 0 && total_free > 0 {
            let leftover: Vec<TaskId> = (first_pending..pending.len())
                .filter(|&i| pending[i])
                .map(TaskId)
                .collect();
            fill_remote(graph, &leftover, &mut free, &mut out);
        }
        Assignment::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MapTask;
    use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
    use drc_codes::CodeKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph_for(kind: CodeKind, stripes: usize, tasks: usize, seed: u64) -> TaskNodeGraph {
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let code = kind.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            stripes,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let blocks = placement.data_blocks();
        let map_tasks: Vec<MapTask> = blocks
            .into_iter()
            .take(tasks)
            .enumerate()
            .map(|(i, block)| MapTask {
                id: crate::job::TaskId(i),
                block,
            })
            .collect();
        TaskNodeGraph::build(&map_tasks, &placement, &cluster)
    }

    fn capacities(graph: &TaskNodeGraph, slots: usize) -> Vec<usize> {
        vec![slots; graph.nodes().len()]
    }

    #[test]
    fn assigns_every_task_within_capacity() {
        let graph = graph_for(CodeKind::TWO_REP, 80, 80, 3);
        let caps = capacities(&graph, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let assignment = DelayScheduler::default().assign(&graph, &caps, &mut rng);
        assert_eq!(assignment.len(), 80);
        assert!(assignment.validate(&graph, &caps).is_none());
    }

    #[test]
    fn respects_capacity_limit() {
        // 120 tasks but only 25 nodes x 2 slots = 50.
        let graph = graph_for(CodeKind::TWO_REP, 120, 120, 5);
        let caps = capacities(&graph, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let assignment = DelayScheduler::default().assign(&graph, &caps, &mut rng);
        assert_eq!(assignment.len(), 50);
        assert!(assignment.validate(&graph, &caps).is_none());
    }

    #[test]
    fn two_rep_at_low_load_is_mostly_local() {
        // At 50% load with 2 replicas, delay scheduling should find local
        // slots for almost every task.
        let graph = graph_for(CodeKind::TWO_REP, 50, 50, 7);
        let caps = capacities(&graph, 4); // load = 50/100
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let assignment = DelayScheduler::default().assign(&graph, &caps, &mut rng);
        assert!(assignment.locality_percent() > 90.0);
    }

    #[test]
    fn small_skip_budget_reduces_locality() {
        let graph = graph_for(CodeKind::Pentagon, 12, 100, 11);
        let caps = capacities(&graph, 4);
        let mut rng_a = ChaCha8Rng::seed_from_u64(4);
        let mut rng_b = ChaCha8Rng::seed_from_u64(4);
        let patient = DelayScheduler::full_sweep().assign(&graph, &caps, &mut rng_a);
        let impatient = DelayScheduler::new(0).assign(&graph, &caps, &mut rng_b);
        assert!(patient.locality_percent() >= impatient.locality_percent());
    }

    #[test]
    fn empty_graph_yields_empty_assignment() {
        let graph = graph_for(CodeKind::TWO_REP, 5, 0, 13);
        let caps = capacities(&graph, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let assignment = DelayScheduler::default().assign(&graph, &caps, &mut rng);
        assert!(assignment.is_empty());
    }
}
