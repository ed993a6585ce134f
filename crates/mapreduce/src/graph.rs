//! The task–node bipartite graph of §3.2.
//!
//! "The map-task-assignment problem can be modeled as a maximum-matching
//! problem on a bipartite graph, with the tasks on one side and the nodes on
//! the other. The edges on this graph indicate the nodes where the replicas
//! of the blocks reside." The choice of code determines the right-hand degree
//! structure: with the pentagon code all blocks of one stripe-node map onto
//! one cluster node (Fig. 2), concentrating edges.

use drc_cluster::{Cluster, GlobalBlockId, NodeId, NodeList, PlacementMap};

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

#[cfg(test)]
mod tests {
    use super::*;
    use drc_cluster::{ClusterSpec, PlacementPolicy};
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
        for t in graph.tasks() {
            assert_eq!(t.local_nodes.len(), 2);
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
        for t in graph.tasks() {
            for &n in &t.local_nodes {
                assert!(graph.tasks_local_to(n).contains(&t.task));
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
        assert_eq!(graph.task(TaskId(0)).local_nodes.len(), 1);
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
        assert!(graph.task(unknown).local_nodes.is_empty());
        for t in &tasks[..tasks.len() - 1] {
            let expected: Vec<NodeId> = placement
                .locations(t.block)
                .unwrap()
                .iter()
                .copied()
                .filter(|n| cluster.is_up(*n))
                .collect();
            assert_eq!(graph.task(t.id).local_nodes.as_slice(), expected);
        }
        for node in cluster.nodes() {
            let expected: Vec<TaskId> = graph
                .tasks()
                .iter()
                .filter(|t| t.local_nodes.contains(&node))
                .map(|t| t.task)
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
