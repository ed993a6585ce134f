//! The task–node bipartite graph of §3.2.
//!
//! "The map-task-assignment problem can be modeled as a maximum-matching
//! problem on a bipartite graph, with the tasks on one side and the nodes on
//! the other. The edges on this graph indicate the nodes where the replicas
//! of the blocks reside." The choice of code determines the right-hand degree
//! structure: with the pentagon code all blocks of one stripe-node map onto
//! one cluster node (Fig. 2), concentrating edges.
//!
//! Layout: the right-hand side is addressed by node **position** (index in
//! [`TaskNodeGraph::nodes`]), and both directions of the edge set are CSR
//! tables — an offsets vector plus one flat vector of entries:
//!
//! * task → positions: task `t`'s up-replica positions, in the code's replica
//!   order, are `task_nodes[task_base[t]..task_base[t + 1]]`;
//! * position → tasks: the tasks local to position `i`, ascending, are
//!   `node_tasks[node_base[i]..node_base[i + 1]]`.
//!
//! [`TaskNodeGraph::rebuild`] fills them straight from the placement arena
//! ([`PlacementMap::for_each_location`]) in three passes — count each
//! position's tasks while appending the task rows, prefix-sum the counts,
//! fill the node rows — into the vectors the graph already owns, so a warm
//! rebuild allocates nothing. `INTERNALS.md` ("One flat graph") has the
//! measurements.

use drc_cluster::{Cluster, NodeId, PlacementMap};

use crate::job::{MapTask, TaskId};

/// `position` entry of a node that is down or outside the cluster.
const ABSENT: u32 = u32::MAX;

/// The bipartite graph between map tasks and the cluster nodes that can run
/// them locally.
///
/// Only *up* nodes appear in the graph; a task whose every replica is on a
/// down node has no edges and can only run remotely (with a degraded read).
///
/// The right-hand side is dense: a node is addressed by its **position** in
/// [`nodes`](Self::nodes) (ascending id order), and everything per-node —
/// the local-task lists here, the schedulers' capacities and cursors — is a
/// `Vec` parallel to that slice. See `INTERNALS.md` for why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskNodeGraph {
    nodes: Vec<NodeId>,
    /// `position[n.0]`: where node `n` sits in `nodes`, or [`ABSENT`].
    position: Vec<u32>,
    /// Task `t`'s edges are `task_nodes[task_base[t]..task_base[t + 1]]`;
    /// `task_base[0] == 0`.
    task_base: Vec<usize>,
    /// Up-replica positions of every task, task by task, in replica order.
    task_nodes: Vec<u32>,
    /// Position `i`'s tasks are `node_tasks[node_base[i]..node_base[i + 1]]`.
    node_base: Vec<usize>,
    /// The tasks with a replica at each position, position by position,
    /// ascending.
    node_tasks: Vec<TaskId>,
}

/// Looks `node` up in an id → position table.
fn position_in(position: &[u32], node: NodeId) -> Option<usize> {
    position
        .get(node.0)
        .filter(|&&i| i != ABSENT)
        .map(|&i| i as usize)
}

impl Default for TaskNodeGraph {
    /// The graph of no tasks on no nodes.
    fn default() -> Self {
        TaskNodeGraph {
            nodes: Vec::new(),
            position: Vec::new(),
            task_base: vec![0],
            task_nodes: Vec::new(),
            node_base: vec![0],
            node_tasks: Vec::new(),
        }
    }
}

impl TaskNodeGraph {
    /// Builds the graph for `tasks` given the block placement and the current
    /// cluster liveness.
    pub fn build(tasks: &[MapTask], placement: &PlacementMap, cluster: &Cluster) -> Self {
        let mut graph = TaskNodeGraph::default();
        graph.rebuild(tasks, placement, cluster);
        graph
    }

    /// Replaces the graph with the one [`build`](Self::build) returns for
    /// the same arguments, reusing this graph's buffers: once they have
    /// grown to the shape, a rebuild allocates nothing.
    pub fn rebuild(&mut self, tasks: &[MapTask], placement: &PlacementMap, cluster: &Cluster) {
        self.nodes.clear();
        self.position.clear();
        self.position.resize(cluster.len(), ABSENT);
        for n in cluster.nodes().filter(|&n| cluster.is_up(n)) {
            self.position[n.0] = self.nodes.len() as u32;
            self.nodes.push(n);
        }

        // Pass 1: the task rows, counting each position's tasks in
        // `node_base[i]` on the way.
        self.node_base.clear();
        self.node_base.resize(self.nodes.len() + 1, 0);
        self.task_base.clear();
        self.task_base.push(0);
        self.task_nodes.clear();
        for task in tasks {
            // The engine validates every job block against the placement up
            // front, so an unknown block here (graphs are also built from
            // raw task lists in tests) simply gets no edges and runs remote.
            let _ = placement.for_each_location(task.block, |n| {
                if let Some(at) = position_in(&self.position, n) {
                    self.task_nodes.push(at as u32);
                    self.node_base[at] += 1;
                }
            });
            self.task_base.push(self.task_nodes.len());
        }

        // Pass 2: inclusive prefix sums — `node_base[i]` becomes the end of
        // position `i`'s row.
        let mut end = 0;
        for slot in &mut self.node_base {
            end += *slot;
            *slot = end;
        }

        // Pass 3: fill each row back to front from the last task down, so
        // the rows come out ascending and `node_base[i]` ends at the row's
        // start. Every entry is written, so the old contents need no reset.
        self.node_tasks.resize(self.task_nodes.len(), TaskId(0));
        for (t, task) in tasks.iter().enumerate().rev() {
            for &at in &self.task_nodes[self.task_base[t]..self.task_base[t + 1]] {
                let cursor = &mut self.node_base[at as usize];
                *cursor -= 1;
                self.node_tasks[*cursor] = task.id;
            }
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.task_base.len() - 1
    }

    /// The up nodes (right-hand vertices), in ascending id order. A node's
    /// index in this slice is its position for every per-node table.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The position of `node` in [`nodes`](Self::nodes), or `None` if it is
    /// down or not part of the cluster.
    pub fn position_of(&self, node: NodeId) -> Option<usize> {
        position_in(&self.position, node)
    }

    /// The positions of the up nodes holding a replica of task `task`'s
    /// block — the task's edges — in the code's replica order.
    ///
    /// # Panics
    ///
    /// Panics if the task id is out of range.
    pub fn local_positions(&self, task: TaskId) -> &[u32] {
        &self.task_nodes[self.task_base[task.0]..self.task_base[task.0 + 1]]
    }

    /// Whether task `task` can run locally on the node at position `at`.
    ///
    /// # Panics
    ///
    /// Panics if the task id is out of range.
    pub fn is_local_at(&self, task: TaskId, at: usize) -> bool {
        self.local_positions(task).iter().any(|&p| p as usize == at)
    }

    /// The tasks that could run locally on the node at `position`, in
    /// ascending task order.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not an index into [`nodes`](Self::nodes).
    pub fn tasks_local_at(&self, position: usize) -> &[TaskId] {
        &self.node_tasks[self.node_base[position]..self.node_base[position + 1]]
    }

    /// The tasks that could run locally on `node`.
    pub fn tasks_local_to(&self, node: NodeId) -> &[TaskId] {
        self.position_of(node)
            .map_or(&[], |i| self.tasks_local_at(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drc_cluster::{ClusterSpec, GlobalBlockId, PlacementPolicy};
    use drc_codes::CodeKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(kind: CodeKind, stripes: usize) -> (Cluster, PlacementMap, Vec<MapTask>) {
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let code = kind.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            stripes,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let tasks: Vec<MapTask> = placement
            .data_blocks()
            .into_iter()
            .enumerate()
            .map(|(i, block)| MapTask {
                id: TaskId(i),
                block,
            })
            .collect();
        (cluster, placement, tasks)
    }

    #[test]
    fn pentagon_graph_has_left_degree_two() {
        // Fig. 2: "left degree = 2" for the pentagon code.
        let (cluster, placement, tasks) = setup(CodeKind::Pentagon, 5);
        let graph = TaskNodeGraph::build(&tasks, &placement, &cluster);
        assert_eq!(graph.task_count(), 45);
        for t in 0..graph.task_count() {
            assert_eq!(graph.local_positions(TaskId(t)).len(), 2);
        }
    }

    #[test]
    fn node_degrees_reflect_block_concentration() {
        // Each pentagon stripe places 4 of its 9 data-block tasks... more
        // precisely: a node hosting a pentagon stripe-node can serve locally
        // every data block stored there (3 or 4 of the 9, depending on
        // whether the parity edge is incident).
        let (cluster, placement, tasks) = setup(CodeKind::Pentagon, 1);
        let graph = TaskNodeGraph::build(&tasks, &placement, &cluster);
        let used: Vec<NodeId> = placement.stripe_hosts(0).unwrap().to_vec();
        for &node in &used {
            let d = graph.tasks_local_to(node).len();
            assert!(d == 3 || d == 4, "degree {d}");
        }
        // Unused nodes have degree zero.
        let unused = cluster.nodes().find(|n| !used.contains(n)).unwrap();
        assert!(graph.tasks_local_to(unused).is_empty());
        // Consistency between the two adjacency directions.
        for t in (0..graph.task_count()).map(TaskId) {
            for &at in graph.local_positions(t) {
                assert!(graph.tasks_local_at(at as usize).contains(&t));
            }
        }
    }

    #[test]
    fn down_nodes_drop_out_of_the_graph() {
        let (mut cluster, placement, tasks) = setup(CodeKind::TWO_REP, 30);
        let victim = placement.locations(tasks[0].block).unwrap()[0];
        cluster.set_down(victim);
        let graph = TaskNodeGraph::build(&tasks, &placement, &cluster);
        assert_eq!(graph.nodes().len(), 24);
        assert!(!graph.nodes().contains(&victim));
        // Task 0 lost one of its two candidate nodes.
        assert_eq!(graph.local_positions(TaskId(0)).len(), 1);
        assert!(graph.tasks_local_to(victim).is_empty());
    }

    #[test]
    fn down_nodes_and_unknown_blocks_keep_the_map_keyed_edges() {
        // The edge set is defined by the placement and the liveness alone:
        // a task's edges are its block's locations that are up, in location
        // order, and a node's list is the inverse, in task order — whatever
        // the storage behind `tasks_local_to`.
        let (mut cluster, placement, mut tasks) = setup(CodeKind::Heptagon, 6);
        let down = [NodeId(0), NodeId(7), NodeId(24)];
        for n in down {
            cluster.set_down(n);
        }
        let unknown = TaskId(tasks.len());
        tasks.push(MapTask {
            id: unknown,
            block: GlobalBlockId::new(placement.stripe_count() + 3, 0),
        });
        let graph = TaskNodeGraph::build(&tasks, &placement, &cluster);

        assert_eq!(graph.nodes(), cluster.up_nodes());
        for (i, &n) in graph.nodes().iter().enumerate() {
            assert_eq!(graph.position_of(n), Some(i));
        }
        for n in down.into_iter().chain([NodeId(25), NodeId(usize::MAX)]) {
            assert_eq!(graph.position_of(n), None);
            assert!(graph.tasks_local_to(n).is_empty());
        }
        assert!(graph.local_positions(unknown).is_empty());
        for t in &tasks[..tasks.len() - 1] {
            let expected: Vec<NodeId> = placement
                .locations(t.block)
                .unwrap()
                .iter()
                .copied()
                .filter(|n| cluster.is_up(*n))
                .collect();
            let edges: Vec<NodeId> = graph
                .local_positions(t.id)
                .iter()
                .map(|&at| graph.nodes()[at as usize])
                .collect();
            assert_eq!(edges, expected);
        }
        for node in cluster.nodes() {
            let expected: Vec<TaskId> = tasks
                .iter()
                .filter(|t| {
                    cluster.is_up(node)
                        && placement
                            .locations(t.block)
                            .is_ok_and(|l| l.contains(&node))
                })
                .map(|t| t.id)
                .collect();
            assert_eq!(graph.tasks_local_to(node), expected);
        }
    }

    #[test]
    fn empty_task_list_gives_empty_graph() {
        let (cluster, placement, _) = setup(CodeKind::TWO_REP, 1);
        let graph = TaskNodeGraph::build(&[], &placement, &cluster);
        assert_eq!(graph.task_count(), 0);
        assert_eq!(graph.nodes().len(), 25);
    }
}
