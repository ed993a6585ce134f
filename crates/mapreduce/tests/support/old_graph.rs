//! The task–node graph `TaskNodeGraph::build` shipped before the CSR
//! layout: one `TaskVertex` per task holding an inline `NodeList` of its up
//! replica nodes, and one growing `Vec<TaskId>` per node position. Kept
//! verbatim as a dev-only oracle: the CSR graph must reproduce its nodes,
//! positions, per-task edges (in replica order) and per-node task lists.
//! Nothing here ships; do not optimise it.

use drc_cluster::{Cluster, GlobalBlockId, NodeId, NodeList, PlacementMap};
use drc_mapreduce::{MapTask, TaskId};

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
    tasks: Vec<TaskVertex>,
    nodes: Vec<NodeId>,
    /// `node_tasks[i]`: the tasks with a replica on `nodes[i]`, ascending.
    node_tasks: Vec<Vec<TaskId>>,
    /// `position[n.0]`: where node `n` sits in `nodes`, or [`ABSENT`].
    position: Vec<u32>,
}

/// A task vertex together with its adjacency (the up nodes holding a replica
/// of its block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskVertex {
    /// The task.
    pub task: TaskId,
    /// The block the task reads.
    pub block: GlobalBlockId,
    /// Up cluster nodes holding a replica of the block (the task's edges).
    pub local_nodes: NodeList,
}

/// Looks `node` up in an id → position table.
fn position_in(position: &[u32], node: NodeId) -> Option<usize> {
    position
        .get(node.0)
        .filter(|&&i| i != ABSENT)
        .map(|&i| i as usize)
}

impl TaskNodeGraph {
    /// Builds the graph for `tasks` given the block placement and the current
    /// cluster liveness.
    pub fn build(tasks: &[MapTask], placement: &PlacementMap, cluster: &Cluster) -> Self {
        let nodes: Vec<NodeId> = cluster.up_nodes();
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "id order");
        let mut position = vec![ABSENT; cluster.len()];
        for (i, n) in nodes.iter().enumerate() {
            position[n.0] = i as u32;
        }
        let mut node_tasks: Vec<Vec<TaskId>> = vec![Vec::new(); nodes.len()];
        let mut vertices = Vec::with_capacity(tasks.len());
        for task in tasks {
            // The engine validates every job block against the placement up
            // front, so an unknown block here (graphs are also built from
            // raw task lists in tests) simply gets no edges and runs remote.
            let mut local_nodes = NodeList::new();
            if let Ok(locs) = placement.locations(task.block) {
                for &n in locs.iter() {
                    if let Some(i) = position_in(&position, n) {
                        local_nodes.push(n);
                        node_tasks[i].push(task.id);
                    }
                }
            }
            vertices.push(TaskVertex {
                task: task.id,
                block: task.block,
                local_nodes,
            });
        }
        TaskNodeGraph {
            tasks: vertices,
            nodes,
            node_tasks,
            position,
        }
    }

    /// The task vertices, in task-id order.
    pub fn tasks(&self) -> &[TaskVertex] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
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

    /// The tasks that could run locally on the node at `position`, in
    /// ascending task order.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not an index into [`nodes`](Self::nodes).
    pub fn tasks_local_at(&self, position: usize) -> &[TaskId] {
        &self.node_tasks[position]
    }

    /// The vertex for a task.
    ///
    /// # Panics
    ///
    /// Panics if the task id is out of range.
    pub fn task(&self, id: TaskId) -> &TaskVertex {
        &self.tasks[id.0]
    }

    /// The tasks that could run locally on `node`.
    pub fn tasks_local_to(&self, node: NodeId) -> &[TaskId] {
        self.position_of(node)
            .map_or(&[], |i| self.tasks_local_at(i))
    }
}
