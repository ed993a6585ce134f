//! Offline maximum matching between tasks and node slots: the locality
//! upper bound.
//!
//! §3.2 uses maximum matching as the locality benchmark: it is the largest
//! number of tasks that can possibly be placed on nodes holding their blocks,
//! given the slot capacities. "From a practical point of view,
//! maximum-matching algorithms are computationally intensive", which is why
//! Hadoop uses delay scheduling instead.
//!
//! One search builds the matching on the nodes themselves, each a
//! b-matching vertex with as many spare slots as its capacity. A greedy
//! pass gives each task a slot on its first local node that has one. Then
//! every task still unmatched runs one augmenting search (Kuhn's, over node
//! positions and the tasks holding them): a full node is entered through
//! one of its holders, which moves to another of its local nodes. The
//! positions a failed search visited stay marked until the next search
//! succeeds. A failed search leaves the matching alone and its visited set
//! is closed — every position in it is full, held by tasks whose whole
//! adjacency is in it — so a later search entering it could only fail
//! there; skipping it changes no decision. A generation ends at a success,
//! not at a task. The searches stop once every slot holds a local task.
//!
//! [`MaxMatchingScheduler::max_local`] is that search's size, the number
//! the locality simulation samples. [`assign`](TaskScheduler::assign)
//! turns the same search into an assignment: each matched task runs
//! locally on its node, in task order, and the rest are placed remote.
//! Nothing is drawn. Which maximum matching is built reaches no reported
//! number; see `INTERNALS.md`, "Max-matching's locality is a count".

use rand::RngCore;

use crate::assignment::{Assignment, TaskAssignment};
use crate::graph::TaskNodeGraph;
use crate::job::TaskId;
use crate::scheduler::{fill_remote, free_slots, TaskScheduler};

/// Maximum-matching task assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaxMatchingScheduler;

impl TaskScheduler for MaxMatchingScheduler {
    fn name(&self) -> &str {
        "max-matching"
    }

    /// Draws nothing from `rng`.
    fn assign(
        &self,
        graph: &TaskNodeGraph,
        capacities: &[usize],
        _rng: &mut dyn RngCore,
    ) -> Assignment {
        let NodeSearch {
            mut free, node_of, ..
        } = NodeSearch::run(graph, capacities);
        let mut out: Vec<TaskAssignment> = Vec::with_capacity(node_of.len());
        let mut unmatched: Vec<TaskId> = Vec::new();
        for (t, &at) in node_of.iter().enumerate() {
            let task = TaskId(t);
            if at == UNMATCHED {
                unmatched.push(task);
            } else {
                out.push(TaskAssignment {
                    task,
                    node: graph.nodes()[at as usize],
                    local: true,
                });
            }
        }
        // Whatever could not be matched locally is spread over the remaining slots.
        fill_remote(graph, &unmatched, &mut free, &mut out);
        Assignment::new(out)
    }
}

impl MaxMatchingScheduler {
    /// The number of tasks [`assign`](TaskScheduler::assign) places
    /// locally on `graph` under `capacities`: the size of a maximum
    /// task → node matching in which node `i` takes at most
    /// `capacities[i]` tasks. Nothing is drawn and no assignment is built.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != graph.nodes().len()`.
    pub fn max_local(graph: &TaskNodeGraph, capacities: &[usize]) -> usize {
        NodeSearch::run(graph, capacities).local
    }
}

/// `node_of` entry of a task with no local slot.
const UNMATCHED: u32 = u32::MAX;

/// A maximum task → node matching and the state of the search that built
/// it (module doc).
struct NodeSearch<'a> {
    graph: &'a TaskNodeGraph,
    /// `free[at]`: the slots of position `at` no task holds yet.
    free: Vec<usize>,
    /// `node_of[t]`: the position task `t` holds a slot on.
    node_of: Vec<u32>,
    /// The tasks holding a slot.
    local: usize,
    /// `visited[at] == generation` ⇔ position `at` was tried since the
    /// last successful search.
    visited: Vec<u32>,
    generation: u32,
}

impl<'a> NodeSearch<'a> {
    /// The greedy pass, then one augmenting search per task still
    /// unmatched, until every slot holds a local task.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != graph.nodes().len()`.
    fn run(graph: &'a TaskNodeGraph, capacities: &[usize]) -> Self {
        let free = free_slots(graph, capacities);
        let slots: usize = free.iter().sum();
        let tasks = graph.task_count();
        let mut search = NodeSearch {
            graph,
            visited: vec![0; free.len()],
            free,
            node_of: vec![UNMATCHED; tasks],
            local: 0,
            generation: 1,
        };
        // Greedy: each task takes a free slot on its first local node that
        // has one.
        for t in 0..tasks {
            if search.local == slots {
                return search;
            }
            let free = &mut search.free;
            if let Some(&at) = graph
                .local_positions(TaskId(t))
                .iter()
                .find(|&&at| free[at as usize] > 0)
            {
                free[at as usize] -= 1;
                search.node_of[t] = at;
                search.local += 1;
            }
        }
        for t in 0..tasks {
            if search.local == slots {
                break;
            }
            // A success changes the matching, so a fresh generation
            // un-visits every position without touching them. A failure
            // keeps its marks: those positions are a dead set.
            if search.node_of[t] == UNMATCHED && search.try_augment(t) {
                search.local += 1;
                search.generation += 1;
            }
        }
        search
    }

    /// Finds a slot for `task` on one of its local nodes, freeing one
    /// through an alternating path if need be; `true` on success.
    fn try_augment(&mut self, task: usize) -> bool {
        let graph = self.graph;
        for &at in graph.local_positions(TaskId(task)) {
            let p = at as usize;
            if self.visited[p] == self.generation {
                continue;
            }
            self.visited[p] = self.generation;
            if self.free[p] > 0 {
                self.free[p] -= 1;
            } else if !graph
                .tasks_local_at(p)
                .iter()
                .any(|&holder| self.node_of[holder.0] == at && self.try_augment(holder.0))
            {
                continue;
            }
            // Either a spare slot, or the one a holder just moved out of.
            self.node_of[task] = at;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MapTask;
    use crate::scheduler::DelayScheduler;
    use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
    use drc_codes::CodeKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph_for(
        kind: CodeKind,
        tasks: usize,
        seed: u64,
        slots: usize,
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
    fn matches_everything_when_capacity_is_ample() {
        let (graph, caps) = graph_for(CodeKind::TWO_REP, 40, 1, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let a = MaxMatchingScheduler.assign(&graph, &caps, &mut rng);
        assert_eq!(a.len(), 40);
        assert!(a.validate(&graph, &caps).is_none());
        // 2-rep at 20% load: the optimum is full locality.
        assert_eq!(a.locality_percent(), 100.0);
    }

    #[test]
    fn never_below_delay_scheduling() {
        // Maximum matching is the locality optimum; it must dominate the
        // delay heuristic on the same instance.
        for (kind, tasks) in [
            (CodeKind::Pentagon, 100),
            (CodeKind::Heptagon, 100),
            (CodeKind::TWO_REP, 100),
        ] {
            let (graph, caps) = graph_for(kind, tasks, 23, 4);
            let mut rng1 = ChaCha8Rng::seed_from_u64(5);
            let mut rng2 = ChaCha8Rng::seed_from_u64(5);
            let mm = MaxMatchingScheduler.assign(&graph, &caps, &mut rng1);
            let ds = DelayScheduler::default().assign(&graph, &caps, &mut rng2);
            assert!(
                mm.local_tasks() >= ds.local_tasks(),
                "{kind}: matching {} < delay {}",
                mm.local_tasks(),
                ds.local_tasks()
            );
            assert!(mm.validate(&graph, &caps).is_none());
        }
    }

    #[test]
    fn respects_capacities_under_overload() {
        let (graph, caps) = graph_for(CodeKind::Pentagon, 150, 3, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = MaxMatchingScheduler.assign(&graph, &caps, &mut rng);
        // 25 nodes x 4 slots = 100 assignments max.
        assert_eq!(a.len(), 100);
        assert!(a.validate(&graph, &caps).is_none());
    }

    #[test]
    fn exact_optimum_on_a_hand_built_instance() {
        // Two tasks share the only replica-holding node with one slot; the
        // optimum places exactly one of them locally.
        use drc_cluster::GlobalBlockId;
        let cluster = Cluster::new(ClusterSpec::custom(3, 1, 1));
        let code = CodeKind::Replication { replicas: 1 }.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            2,
            PlacementPolicy::RoundRobin,
            &mut rng,
        )
        .unwrap();
        // Both stripes land on node 0 and node 1 respectively under round-robin;
        // craft tasks referencing stripe 0's block twice to force contention.
        let block = GlobalBlockId::new(0, 0);
        let tasks = vec![
            MapTask {
                id: TaskId(0),
                block,
            },
            MapTask {
                id: TaskId(1),
                block,
            },
        ];
        let graph = TaskNodeGraph::build(&tasks, &placement, &cluster);
        let caps = vec![1; graph.nodes().len()];
        let a = MaxMatchingScheduler.assign(&graph, &caps, &mut rng);
        assert_eq!(a.len(), 2);
        assert_eq!(a.local_tasks(), 1);
    }
}
