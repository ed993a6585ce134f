//! Map-task schedulers.
//!
//! Three assignment strategies are evaluated in §3.2 of the paper:
//!
//! * [`DelayScheduler`] — Hadoop's production heuristic (Zaharia et al.,
//!   EuroSys 2010): a node that cannot be given a local task is skipped a
//!   bounded number of times before the scheduler settles for a remote task,
//! * [`MaxMatchingScheduler`] — an offline maximum bipartite matching between
//!   tasks and node slots, the locality upper bound used as a benchmark,
//! * [`PeelingScheduler`] — the degree-guided peeling heuristic of Xie & Lu
//!   (ISIT 2012), modified to handle the block concentration of the
//!   pentagon/heptagon array codes.
//!
//! All schedulers consume the same [`TaskNodeGraph`] and produce an
//! [`Assignment`]; tasks that cannot be placed locally are spread over the
//! remaining slot capacity as remote tasks.
//!
//! Assignments are executed on the virtual-time substrate: every placement a
//! scheduler makes turns into a timed slot reservation in the engine (local
//! tasks consume disk-bound durations, remote and degraded tasks
//! network-bound ones), so scheduler quality shows up directly as
//! virtual-time wave length and LAN queueing, not just as a locality
//! percentage.

mod delay;
mod matching;
mod peeling;

use rand::RngCore;

use crate::assignment::{Assignment, TaskAssignment};
use crate::graph::TaskNodeGraph;
use crate::job::TaskId;

pub use delay::DelayScheduler;
pub use matching::MaxMatchingScheduler;
pub use peeling::PeelingScheduler;

/// A map-task scheduler: assigns the tasks of a [`TaskNodeGraph`] to nodes,
/// subject to per-node slot capacities.
pub trait TaskScheduler: std::fmt::Debug + Send + Sync {
    /// Short human-readable name (used in experiment output).
    fn name(&self) -> &str;

    /// Assigns as many tasks as the capacities allow. `capacities` is
    /// parallel to [`TaskNodeGraph::nodes`]: `capacities[i]` free slots on
    /// `graph.nodes()[i]`.
    ///
    /// Implementations must never assign a task twice nor exceed any node's
    /// capacity; tasks left over when every slot is full remain unassigned.
    ///
    /// The draws an implementation takes from `rng` are part of its output:
    /// callers keep using the same generator afterwards, so the number,
    /// order and bounds of the draws must not depend on anything but the
    /// arguments (see `INTERNALS.md`, "rng-stream contract").
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != graph.nodes().len()`.
    fn assign(
        &self,
        graph: &TaskNodeGraph,
        capacities: &[usize],
        rng: &mut dyn RngCore,
    ) -> Assignment;
}

/// Which scheduler to use, for experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
#[non_exhaustive]
pub enum SchedulerKind {
    /// Hadoop's delay scheduling with the given maximum number of skipped
    /// heartbeats (`None` = one full sweep of the cluster).
    Delay,
    /// Offline maximum bipartite matching.
    MaxMatching,
    /// Degree-guided peeling.
    Peeling,
}

impl SchedulerKind {
    /// Builds the scheduler with its default parameters.
    pub fn build(&self) -> Box<dyn TaskScheduler> {
        match self {
            SchedulerKind::Delay => Box::new(DelayScheduler::default()),
            SchedulerKind::MaxMatching => Box::new(MaxMatchingScheduler),
            SchedulerKind::Peeling => Box::new(PeelingScheduler),
        }
    }

    /// The three schedulers simulated for Fig. 3.
    pub fn all() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Delay,
            SchedulerKind::MaxMatching,
            SchedulerKind::Peeling,
        ]
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::Delay => write!(f, "delay-scheduling"),
            SchedulerKind::MaxMatching => write!(f, "max-matching"),
            SchedulerKind::Peeling => write!(f, "peeling"),
        }
    }
}

/// The scheduler's working copy of the per-node free-slot counts.
///
/// # Panics
///
/// Panics if `capacities` is not parallel to `graph.nodes()`.
pub(crate) fn free_slots(graph: &TaskNodeGraph, capacities: &[usize]) -> Vec<usize> {
    assert_eq!(
        capacities.len(),
        graph.nodes().len(),
        "capacities must be parallel to graph.nodes()"
    );
    capacities.to_vec()
}

/// Assigns the remaining (non-local) tasks to whatever slots are left,
/// spreading them over the least-loaded nodes first. Shared by all
/// schedulers. `free` is parallel to `graph.nodes()`.
pub(crate) fn fill_remote(
    graph: &TaskNodeGraph,
    pending: &[TaskId],
    free: &mut [usize],
    out: &mut Vec<TaskAssignment>,
) {
    for &task in pending {
        // Pick the node with the largest remaining capacity (ties broken by
        // id, i.e. by position).
        let Some((at, _)) = free
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        else {
            return; // no capacity anywhere; leave the rest unassigned
        };
        free[at] -= 1;
        out.push(TaskAssignment {
            task,
            node: graph.nodes()[at],
            local: graph.is_local_at(task, at),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_kinds_build_and_display() {
        for kind in SchedulerKind::all() {
            let s = kind.build();
            assert!(!s.name().is_empty());
            assert!(!kind.to_string().is_empty());
        }
        assert_eq!(SchedulerKind::all().len(), 3);
    }

    /// `repro --json` prints Fig. 3's `scheduler` with this spelling.
    #[test]
    fn json_spelling_is_recorded() {
        let spelled: Vec<String> = SchedulerKind::all()
            .iter()
            .map(|kind| serde_json::to_string(kind).unwrap())
            .collect();
        assert_eq!(spelled, [r#""Delay""#, r#""MaxMatching""#, r#""Peeling""#]);
    }
}
