//! The map-keyed schedulers as they stood before the dense node-indexed
//! layout, kept **verbatim** as a dev-only oracle: `BTreeMap<NodeId, usize>`
//! capacities, per-node list rescans, a fresh `visited` per task. The
//! differential proptest holds the library's single implementation to these
//! bodies — same `Assignment`, in the same order, leaving the rng in the same
//! state. Nothing here ships; do not optimise it. The bodies read a task's
//! edges through `local_nodes`, which maps the graph's positions back to
//! the node ids they were written against.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::RngCore;

use drc_cluster::NodeId;
use drc_mapreduce::{Assignment, TaskAssignment, TaskId, TaskNodeGraph};

/// `DelayScheduler::assign` (`max_skips` is the scheduler's field).
pub fn delay(
    max_skips: Option<usize>,
    graph: &TaskNodeGraph,
    capacities: &BTreeMap<NodeId, usize>,
    rng: &mut dyn RngCore,
) -> Assignment {
    let mut capacities = capacities.clone();
    let max_skips = max_skips.unwrap_or_else(|| graph.nodes().len().max(1));
    let mut pending: Vec<bool> = vec![true; graph.task_count()];
    let mut pending_count = graph.task_count();
    let mut out: Vec<TaskAssignment> = Vec::with_capacity(graph.task_count());
    let mut skip_count = 0usize;

    // Heartbeat loop: repeatedly sweep the nodes (in random order per
    // sweep, as heartbeat arrival order is arbitrary) while there is both
    // pending work and free capacity.
    let mut heartbeat_order: Vec<NodeId> = graph.nodes().to_vec();
    'outer: loop {
        if pending_count == 0 {
            break;
        }
        let total_capacity: usize = capacities.values().sum();
        if total_capacity == 0 {
            break;
        }
        heartbeat_order.shuffle(rng);
        let mut progressed = false;
        for &node in &heartbeat_order {
            if pending_count == 0 {
                break 'outer;
            }
            let free = capacities.get(&node).copied().unwrap_or(0);
            if free == 0 {
                continue;
            }
            // Look for a pending task with a replica on this node.
            let local_task = graph
                .tasks_local_to(node)
                .iter()
                .copied()
                .find(|t| pending[t.0]);
            match local_task {
                Some(task) => {
                    pending[task.0] = false;
                    pending_count -= 1;
                    *capacities.get_mut(&node).expect("node exists") -= 1;
                    out.push(TaskAssignment {
                        task,
                        node,
                        local: true,
                    });
                    skip_count = 0;
                    progressed = true;
                }
                None => {
                    skip_count += 1;
                    if skip_count > max_skips {
                        // Give up on locality for one task.
                        let task = TaskId(
                            pending
                                .iter()
                                .position(|p| *p)
                                .expect("pending_count > 0 implies a pending task"),
                        );
                        pending[task.0] = false;
                        pending_count -= 1;
                        *capacities.get_mut(&node).expect("node exists") -= 1;
                        let local = local_nodes(graph, task).contains(&node);
                        out.push(TaskAssignment { task, node, local });
                        skip_count = 0;
                        progressed = true;
                    }
                }
            }
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
    let leftover: Vec<TaskId> = pending
        .iter()
        .enumerate()
        .filter(|(_, p)| **p)
        .map(|(i, _)| TaskId(i))
        .collect();
    if !leftover.is_empty() {
        fill_remote(graph, &leftover, &mut capacities, &mut out);
    }
    Assignment::new(out)
}

/// `MaxMatchingScheduler::assign`.
pub fn max_matching(
    graph: &TaskNodeGraph,
    capacities: &BTreeMap<NodeId, usize>,
    rng: &mut dyn RngCore,
) -> Assignment {
    let mut capacities = capacities.clone();

    // Build the capacity-expanded right-hand side: one vertex per free slot.
    let mut slot_owner: Vec<NodeId> = Vec::new();
    let mut node_slots: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (&node, &cap) in &capacities {
        for _ in 0..cap {
            node_slots.entry(node).or_default().push(slot_owner.len());
            slot_owner.push(node);
        }
    }

    // Adjacency: task -> candidate slot indices (all slots of its local nodes).
    let mut adjacency: Vec<Vec<usize>> = Vec::with_capacity(graph.task_count());
    for t in (0..graph.task_count()).map(TaskId) {
        let mut slots: Vec<usize> = local_nodes(graph, t)
            .iter()
            .flat_map(|n| node_slots.get(n).cloned().unwrap_or_default())
            .collect();
        // Randomising candidate order makes ties unbiased across trials.
        slots.shuffle(rng);
        adjacency.push(slots);
    }

    // Kuhn's algorithm.
    let mut slot_match: Vec<Option<TaskId>> = vec![None; slot_owner.len()];
    let mut task_match: Vec<Option<usize>> = vec![None; graph.task_count()];
    // Processing tasks in random order avoids systematic bias.
    let mut order: Vec<usize> = (0..graph.task_count()).collect();
    order.shuffle(rng);
    for &task in &order {
        let mut visited = vec![false; slot_owner.len()];
        try_augment(
            task,
            &adjacency,
            &mut slot_match,
            &mut task_match,
            &mut visited,
        );
    }

    // Emit local assignments from the matching.
    let mut out: Vec<TaskAssignment> = Vec::with_capacity(graph.task_count());
    let mut unmatched: Vec<TaskId> = Vec::new();
    for (task_idx, slot) in task_match.iter().enumerate() {
        let task = TaskId(task_idx);
        match slot {
            Some(s) => {
                let node = slot_owner[*s];
                *capacities.get_mut(&node).expect("node exists") -= 1;
                out.push(TaskAssignment {
                    task,
                    node,
                    local: true,
                });
            }
            None => unmatched.push(task),
        }
    }
    // Whatever could not be matched locally is spread over the remaining slots.
    fill_remote(graph, &unmatched, &mut capacities, &mut out);
    Assignment::new(out)
}

/// Attempts to find an augmenting path from `task`; returns `true` on success.
fn try_augment(
    task: usize,
    adjacency: &[Vec<usize>],
    slot_match: &mut Vec<Option<TaskId>>,
    task_match: &mut Vec<Option<usize>>,
    visited: &mut Vec<bool>,
) -> bool {
    for &slot in &adjacency[task] {
        if visited[slot] {
            continue;
        }
        visited[slot] = true;
        let free = match slot_match[slot] {
            None => true,
            Some(other) => try_augment(other.0, adjacency, slot_match, task_match, visited),
        };
        if free {
            slot_match[slot] = Some(TaskId(task));
            task_match[task] = Some(slot);
            return true;
        }
    }
    false
}

/// `PeelingScheduler::assign`.
pub fn peeling(
    graph: &TaskNodeGraph,
    capacities: &BTreeMap<NodeId, usize>,
    rng: &mut dyn RngCore,
) -> Assignment {
    let _ = rng; // deterministic given the graph; kept for interface symmetry
    let mut capacities = capacities.clone();
    let mut out: Vec<TaskAssignment> = Vec::with_capacity(graph.task_count());
    // remaining[t] = candidate nodes of task t that still have capacity.
    let mut remaining: Vec<Option<Vec<NodeId>>> = (0..graph.task_count())
        .map(|t| {
            Some(
                local_nodes(graph, TaskId(t))
                    .iter()
                    .copied()
                    .filter(|n| capacities.get(n).copied().unwrap_or(0) > 0)
                    .collect(),
            )
        })
        .collect();
    // node -> pending local demand (for picking the least-contended node).
    let mut node_demand: BTreeMap<NodeId, usize> = BTreeMap::new();
    for cand in remaining.iter().flatten() {
        for &n in cand {
            *node_demand.entry(n).or_insert(0) += 1;
        }
    }

    let mut leftovers: Vec<TaskId> = Vec::new();
    loop {
        // Find the unassigned task with the smallest positive degree.
        let mut best: Option<(usize, usize)> = None; // (degree, task index)
        for (idx, cand) in remaining.iter().enumerate() {
            if let Some(c) = cand {
                if c.is_empty() {
                    continue;
                }
                let d = c.len();
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, idx));
                    if d == 1 {
                        break; // cannot do better than a forced task
                    }
                }
            }
        }
        let Some((_, task_idx)) = best else {
            break;
        };
        let candidates = remaining[task_idx].take().expect("candidate list exists");
        // Degree-guided choice: the candidate node with the fewest other
        // pending local tasks per unit of remaining capacity.
        let node = candidates
            .iter()
            .copied()
            .filter(|n| capacities.get(n).copied().unwrap_or(0) > 0)
            .min_by_key(|n| {
                let demand = node_demand.get(n).copied().unwrap_or(0);
                let cap = capacities.get(n).copied().unwrap_or(0).max(1);
                // Scale to compare demand-per-slot without floating point.
                (demand * 1024 / cap, n.0)
            });
        let Some(node) = node else {
            // All candidates filled up in the meantime; defer to remote fill.
            leftovers.push(TaskId(task_idx));
            continue;
        };
        out.push(TaskAssignment {
            task: TaskId(task_idx),
            node,
            local: true,
        });
        // Update bookkeeping.
        for &n in &candidates {
            if let Some(d) = node_demand.get_mut(&n) {
                *d = d.saturating_sub(1);
            }
        }
        let cap = capacities.get_mut(&node).expect("node exists");
        *cap -= 1;
        if *cap == 0 {
            // Remove the exhausted node from every remaining candidate list.
            for cand in remaining.iter_mut().flatten() {
                cand.retain(|&n| n != node);
            }
        }
    }
    // Tasks with no (remaining) local candidates are assigned remotely.
    for (idx, cand) in remaining.iter().enumerate() {
        if cand.is_some() {
            leftovers.push(TaskId(idx));
        }
    }
    leftovers.sort_unstable();
    leftovers.dedup();
    fill_remote(graph, &leftovers, &mut capacities, &mut out);
    Assignment::new(out)
}

/// Assigns the remaining (non-local) tasks to whatever slots are left,
/// spreading them over the least-loaded nodes first. Shared by all
/// schedulers.
fn fill_remote(
    graph: &TaskNodeGraph,
    pending: &[TaskId],
    capacities: &mut BTreeMap<NodeId, usize>,
    out: &mut Vec<TaskAssignment>,
) {
    for &task in pending {
        // Pick the node with the largest remaining capacity (ties broken by id).
        let Some((&node, _)) = capacities
            .iter()
            .filter(|(_, &c)| c > 0)
            .max_by_key(|(n, &c)| (c, std::cmp::Reverse(n.0)))
        else {
            return; // no capacity anywhere; leave the rest unassigned
        };
        *capacities.get_mut(&node).expect("node exists") -= 1;
        let local = local_nodes(graph, task).contains(&node);
        out.push(TaskAssignment { task, node, local });
    }
}

/// Task `task`'s edges as node ids, in replica order — what the graph's
/// per-task `NodeList` held when these bodies were written.
fn local_nodes(graph: &TaskNodeGraph, task: TaskId) -> Vec<NodeId> {
    graph
        .local_positions(task)
        .iter()
        .map(|&at| graph.nodes()[at as usize])
        .collect()
}
