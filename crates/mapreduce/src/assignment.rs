//! Task-to-node assignments and locality statistics.

use std::collections::BTreeSet;

use drc_cluster::NodeId;

use crate::graph::TaskNodeGraph;
use crate::job::TaskId;

/// Where a map task ended up running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAssignment {
    /// The task.
    pub task: TaskId,
    /// The node the task runs on.
    pub node: NodeId,
    /// `true` if the node holds a replica of the task's block (a *local*
    /// task in the paper's terminology).
    pub local: bool,
}

/// A complete assignment of a set of map tasks to nodes.
///
/// Produced by the task schedulers; consumed by the locality experiments
/// (Fig. 3) and the execution engine (Fig. 4/5).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    assignments: Vec<TaskAssignment>,
}

impl Assignment {
    /// Creates an assignment from the given per-task placements.
    pub fn new(assignments: Vec<TaskAssignment>) -> Self {
        Assignment { assignments }
    }

    /// The individual task assignments, in the order they were made.
    pub fn iter(&self) -> impl Iterator<Item = &TaskAssignment> {
        self.assignments.iter()
    }

    /// Number of assigned tasks.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Returns `true` if no task was assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Number of tasks that run on a node holding their block.
    pub fn local_tasks(&self) -> usize {
        self.assignments.iter().filter(|a| a.local).count()
    }

    /// Percentage of local tasks — the paper's *data locality* metric.
    ///
    /// Returns 100% for an empty assignment (no task had to go remote).
    pub fn locality_percent(&self) -> f64 {
        locality_percent(self.local_tasks(), self.len())
    }

    /// Verifies the assignment against a graph and the capacities it was
    /// made under, parallel to [`TaskNodeGraph::nodes`] as in
    /// [`TaskScheduler::assign`](crate::TaskScheduler::assign): every task
    /// assigned at most once, to a node of the graph, no node over its own
    /// capacity, and the `local` flag consistent with the graph's
    /// adjacency. Returns a description of the first violation, if any.
    pub fn validate(&self, graph: &TaskNodeGraph, capacities: &[usize]) -> Option<String> {
        if capacities.len() != graph.nodes().len() {
            return Some(format!(
                "{} capacities for {} nodes",
                capacities.len(),
                graph.nodes().len()
            ));
        }
        let mut seen = BTreeSet::new();
        let mut held = vec![0usize; capacities.len()];
        for a in &self.assignments {
            if !seen.insert(a.task) {
                return Some(format!("task {:?} assigned twice", a.task));
            }
            let Some(at) = graph.position_of(a.node) else {
                return Some(format!("node {} is not in the graph", a.node));
            };
            held[at] += 1;
            if held[at] > capacities[at] {
                return Some(format!(
                    "node {} over its capacity of {}",
                    a.node, capacities[at]
                ));
            }
            if graph.is_local_at(a.task, at) != a.local {
                return Some(format!("task {:?} locality flag mismatch", a.task));
            }
        }
        None
    }
}

/// `local` of `assigned` tasks in percent, 100 % when nothing is assigned:
/// [`Assignment::locality_percent`], and the locality loop's max-matching
/// sample, which counts and never builds the assignment.
pub(crate) fn locality_percent(local: usize, assigned: usize) -> f64 {
    if assigned == 0 {
        return 100.0;
    }
    local as f64 / assigned as f64 * 100.0
}

impl FromIterator<TaskAssignment> for Assignment {
    fn from_iter<I: IntoIterator<Item = TaskAssignment>>(iter: I) -> Self {
        Assignment::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ta(task: usize, node: usize, local: bool) -> TaskAssignment {
        TaskAssignment {
            task: TaskId(task),
            node: NodeId(node),
            local,
        }
    }

    #[test]
    fn locality_math() {
        let a = Assignment::new(vec![
            ta(0, 0, true),
            ta(1, 1, false),
            ta(2, 0, true),
            ta(3, 2, true),
        ]);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert_eq!(a.local_tasks(), 3);
        assert!((a.locality_percent() - 75.0).abs() < 1e-12);
        assert_eq!(a.iter().count(), 4);
    }

    #[test]
    fn empty_assignment_is_fully_local() {
        let a = Assignment::default();
        assert!(a.is_empty());
        assert_eq!(a.locality_percent(), 100.0);
    }

    #[test]
    fn collects_from_iterator() {
        let a: Assignment = vec![ta(0, 0, true)].into_iter().collect();
        assert_eq!(a.len(), 1);
    }
}
