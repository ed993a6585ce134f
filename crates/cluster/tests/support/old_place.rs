//! The placement build `PlacementMap::place` shipped before it streamed:
//! each stripe drawn into a fresh `Vec<NodeId>` (a new pool per shuffle,
//! `nodes_in_rack` per group), re-narrowed into the arena, the finished
//! arena recounted, then scattered. Kept as a dev-only oracle: the streaming
//! build must reproduce its arena, its postings (capacities included) and
//! its rng consumption draw for draw. Arguments are assumed valid (at least
//! one stripe, arity ≤ up nodes). Nothing here ships; do not optimise it.

use drc_cluster::{Cluster, NodeId, PlacementPolicy, RackId};
use drc_codes::ErasureCode;
use rand::seq::SliceRandom;
use rand::Rng;

/// The arena (row-major `stripes × arity` host ids) and, per cluster node,
/// the arena offsets it hosts, ascending.
pub fn old_place<R: Rng + ?Sized>(
    code: &dyn ErasureCode,
    cluster: &Cluster,
    stripes: usize,
    policy: PlacementPolicy,
    rng: &mut R,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let arity = code.node_count();
    let up = cluster.up_nodes();
    let mut hosts: Vec<u32> = Vec::with_capacity(arity * stripes);
    for stripe in 0..stripes {
        let row: Vec<NodeId> = if policy == PlacementPolicy::Random {
            random_stripe_nodes(code, cluster, &up, rng)
        } else {
            let cells = stripe * arity..(stripe + 1) * arity;
            cells.map(|cell| up[cell % up.len()]).collect()
        };
        hosts.extend(row.iter().map(|n| n.0 as u32));
    }
    let mut counts = vec![0usize; cluster.len()];
    for &host in &hosts {
        counts[host as usize] += 1;
    }
    let mut postings: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (offset, &host) in hosts.iter().enumerate() {
        postings[host as usize].push(offset as u32);
    }
    (hosts, postings)
}

fn up_in_rack(cluster: &Cluster, rack: usize) -> Vec<NodeId> {
    let nodes = cluster.nodes_in_rack(RackId(rack));
    nodes.into_iter().filter(|n| cluster.is_up(*n)).collect()
}

fn random_stripe_nodes<R: Rng + ?Sized>(
    code: &dyn ErasureCode,
    cluster: &Cluster,
    up: &[NodeId],
    rng: &mut R,
) -> Vec<NodeId> {
    let groups = code.rack_groups();
    if groups.len() > 1 && cluster.rack_count() >= groups.len() {
        let mut racks: Vec<usize> = (0..cluster.rack_count()).collect();
        racks.shuffle(rng);
        let mut chosen: Vec<usize> = Vec::new();
        for group in groups {
            let rack = racks
                .iter()
                .copied()
                .find(|&r| !chosen.contains(&r) && up_in_rack(cluster, r).len() >= group.len());
            match rack {
                Some(r) => chosen.push(r),
                None => return flat_random(code, up, rng),
            }
        }
        let mut nodes = vec![NodeId(usize::MAX); code.node_count()];
        for (group, &rack) in groups.iter().zip(&chosen) {
            let mut pool = up_in_rack(cluster, rack);
            pool.shuffle(rng);
            for (&local, &node) in group.iter().zip(pool.iter()) {
                nodes[local] = node;
            }
        }
        if nodes.iter().all(|n| n.0 != usize::MAX) {
            return nodes;
        }
    }
    flat_random(code, up, rng)
}

fn flat_random<R: Rng + ?Sized>(code: &dyn ErasureCode, up: &[NodeId], rng: &mut R) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = up.to_vec();
    pool.shuffle(rng);
    pool.truncate(code.node_count());
    pool
}
