//! Offline maximum bipartite matching between tasks and node slots.
//!
//! §3.2 uses maximum matching as the locality benchmark: it is the largest
//! number of tasks that can possibly be placed on nodes holding their blocks,
//! given the slot capacities. "From a practical point of view,
//! maximum-matching algorithms are computationally intensive", which is why
//! Hadoop uses delay scheduling instead.
//!
//! The implementation is Kuhn with dead-set marks: the classic
//! augmenting-path algorithm run on the capacity-expanded graph (each node
//! contributes as many right-hand vertices as it has free slots), where the
//! slots a failed search visited stay marked until the next search succeeds.
//! A failed search leaves the matching alone and its visited set is closed —
//! every slot in it is held, by a task whose whole adjacency is in it — so a
//! later search entering it could only fail there; skipping it changes no
//! decision. A generation ends at a success, not at a task.
//!
//! The locality simulation needs only the matching's size, which no draw
//! changes: [`MaxMatchingScheduler::max_local`] counts it on the nodes
//! themselves (greedy, then the same augmenting search over node positions
//! and their holders), without slots, shuffles or remote fill. See
//! `INTERNALS.md`, "Max-matching's locality is a count".

use rand::seq::SliceRandom;
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

    fn assign(
        &self,
        graph: &TaskNodeGraph,
        capacities: &[usize],
        rng: &mut dyn RngCore,
    ) -> Assignment {
        let nodes = graph.nodes();
        let mut free = free_slots(graph, capacities);
        let tasks = graph.task_count();

        // The capacity-expanded right-hand side: one vertex per free slot,
        // numbered node by node, so the slots of `nodes[i]` are the range
        // `slot_base[i]..slot_base[i + 1]` — no per-node slot lists.
        let mut slot_base: Vec<usize> = Vec::with_capacity(nodes.len() + 1);
        let mut slot_owner: Vec<u32> = Vec::new();
        for (at, &cap) in free.iter().enumerate() {
            slot_base.push(slot_owner.len());
            slot_owner.extend(std::iter::repeat_n(at as u32, cap));
        }
        slot_base.push(slot_owner.len());

        // Adjacency in one flat vector: task `t`'s candidate slots (all slots
        // of its local nodes, in replica order) are
        // `adjacency[adjacency_base[t]..adjacency_base[t + 1]]`.
        let mut adjacency: Vec<u32> = Vec::new();
        let mut adjacency_base: Vec<usize> = Vec::with_capacity(tasks + 1);
        for t in 0..tasks {
            let start = adjacency.len();
            adjacency_base.push(start);
            for &at in graph.local_positions(TaskId(t)) {
                let at = at as usize;
                adjacency.extend(slot_base[at] as u32..slot_base[at + 1] as u32);
            }
            // Randomising candidate order makes ties unbiased across trials.
            // One shuffle per task, empty lists included: the draws are part
            // of the output.
            adjacency[start..].shuffle(rng);
        }
        adjacency_base.push(adjacency.len());

        // Kuhn's algorithm.
        let mut matching = Matching {
            adjacency: &adjacency,
            adjacency_base: &adjacency_base,
            slot_match: vec![UNMATCHED; slot_owner.len()],
            task_match: vec![UNMATCHED; tasks],
            visited: vec![0; slot_owner.len()],
            generation: 1,
        };
        // Processing tasks in random order avoids systematic bias.
        let mut order: Vec<u32> = (0..tasks as u32).collect();
        order.shuffle(rng);
        for &task in &order {
            // A success changes the matching, so a fresh generation
            // un-visits every slot without touching them. A failure keeps
            // its marks: those slots are a dead set (module doc).
            if matching.try_augment(task) {
                matching.generation += 1;
            }
        }

        // Emit local assignments from the matching.
        let mut out: Vec<TaskAssignment> = Vec::with_capacity(tasks);
        let mut unmatched: Vec<TaskId> = Vec::new();
        for (task_idx, &slot) in matching.task_match.iter().enumerate() {
            let task = TaskId(task_idx);
            if slot == UNMATCHED {
                unmatched.push(task);
                continue;
            }
            let at = slot_owner[slot as usize] as usize;
            free[at] -= 1;
            out.push(TaskAssignment {
                task,
                node: nodes[at],
                local: true,
            });
        }
        // Whatever could not be matched locally is spread over the remaining slots.
        fill_remote(graph, &unmatched, &mut free, &mut out);
        Assignment::new(out)
    }
}

impl MaxMatchingScheduler {
    /// The number of tasks [`assign`](TaskScheduler::assign) places
    /// locally on `graph` under `capacities`, whatever generator it is
    /// given: the size of a maximum task → node matching in which node
    /// `i` takes at most `capacities[i]` tasks. Nothing is drawn and no
    /// assignment is built.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != graph.nodes().len()`.
    pub fn max_local(graph: &TaskNodeGraph, capacities: &[usize]) -> usize {
        let free = free_slots(graph, capacities);
        let slots: usize = free.iter().sum();
        let tasks = graph.task_count();
        let mut search = NodeSearch {
            graph,
            visited: vec![0; free.len()],
            free,
            node_of: vec![UNMATCHED; tasks],
            generation: 1,
        };
        let mut local = 0;
        // Greedy: each task takes a free slot on its first local node that
        // has one.
        for t in 0..tasks {
            if local == slots {
                return local;
            }
            let free = &mut search.free;
            if let Some(&at) = graph
                .local_positions(TaskId(t))
                .iter()
                .find(|&&at| free[at as usize] > 0)
            {
                free[at as usize] -= 1;
                search.node_of[t] = at;
                local += 1;
            }
        }
        // Then one augmenting search per task still unmatched, until every
        // slot holds a local task.
        for t in 0..tasks {
            if local == slots {
                break;
            }
            if search.node_of[t] == UNMATCHED && search.try_augment(t) {
                local += 1;
                search.generation += 1;
            }
        }
        local
    }
}

/// `slot_match` / `task_match` entry of a vertex with no partner.
const UNMATCHED: u32 = u32::MAX;

/// The state of one augmenting-path search.
struct Matching<'a> {
    adjacency: &'a [u32],
    adjacency_base: &'a [usize],
    /// `slot_match[s]`: the task holding slot `s`.
    slot_match: Vec<u32>,
    /// `task_match[t]`: the slot task `t` holds.
    task_match: Vec<u32>,
    /// `visited[s] == generation` ⇔ slot `s` was tried since the last
    /// successful search.
    visited: Vec<u32>,
    generation: u32,
}

impl Matching<'_> {
    /// Attempts to find an augmenting path from `task`; returns `true` on success.
    fn try_augment(&mut self, task: u32) -> bool {
        let t = task as usize;
        for i in self.adjacency_base[t]..self.adjacency_base[t + 1] {
            let slot = self.adjacency[i] as usize;
            if self.visited[slot] == self.generation {
                continue;
            }
            self.visited[slot] = self.generation;
            let holder = self.slot_match[slot];
            if holder == UNMATCHED || self.try_augment(holder) {
                self.slot_match[slot] = task;
                self.task_match[t] = slot as u32;
                return true;
            }
        }
        false
    }
}

/// The state of [`MaxMatchingScheduler::max_local`]'s augmenting searches
/// over node positions, each a b-matching vertex with `free` spare slots.
struct NodeSearch<'a> {
    graph: &'a TaskNodeGraph,
    /// `free[at]`: the slots of position `at` no task holds yet.
    free: Vec<usize>,
    /// `node_of[t]`: the position task `t` holds a slot on.
    node_of: Vec<u32>,
    /// `visited[at] == generation` ⇔ position `at` was tried since the
    /// last successful search: the same dead-set rule as [`Matching`].
    visited: Vec<u32>,
    generation: u32,
}

impl NodeSearch<'_> {
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
        assert!(a.validate(&graph, 8).is_none());
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
            assert!(mm.validate(&graph, 4).is_none());
        }
    }

    #[test]
    fn respects_capacities_under_overload() {
        let (graph, caps) = graph_for(CodeKind::Pentagon, 150, 3, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = MaxMatchingScheduler.assign(&graph, &caps, &mut rng);
        // 25 nodes x 4 slots = 100 assignments max.
        assert_eq!(a.len(), 100);
        assert!(a.validate(&graph, 4).is_none());
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
