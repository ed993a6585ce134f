//! Differential test of `PlacementMap::place`'s streaming build against the
//! build it replaced (`support/old_place.rs`: a fresh `Vec` per stripe and
//! per draw, the arena recounted before the scatter). For every code ×
//! policy × pool shape × stripe count × seed the two must agree on every
//! stripe's hosts, every node's reverse scan, the index's resident bytes
//! and the state the rng is left in — the number of draws is part of
//! `place`'s contract, because every simulated figure downstream of a
//! placement depends on what the generator yields next.

#[path = "support/codes.rs"]
mod codes;
#[path = "support/old_place.rs"]
mod old_place;

use std::mem::size_of;

use drc_cluster::{Cluster, ClusterSpec, NodeId, PlacementMap, PlacementPolicy};
use drc_codes::ErasureCode;
use old_place::old_place;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A `nodes`-node, `racks`-rack cluster (node `n` sits in rack
/// `n % racks`) with the listed nodes down.
fn cluster_with_down(nodes: usize, racks: usize, down: &[usize]) -> Cluster {
    let mut cluster = Cluster::new(ClusterSpec::custom(nodes, racks, 4));
    for &node in down {
        cluster.set_down(NodeId(node));
    }
    cluster
}

/// The pool shapes swept. Every one keeps at least 24 nodes up, the arity
/// of the longest code (RAID+m (12,11)).
fn pools() -> [(&'static str, Cluster); 3] {
    [
        ("all up", cluster_with_down(36, 3, &[])),
        // Five racks of eight for the heptagon-local code's three groups:
        // rack 1 keeps 5 up nodes (room for the global node only), racks 2
        // and 3 keep exactly the 7 a heptagon needs, so which racks a
        // stripe gets depends on its rack order.
        ("holes", cluster_with_down(40, 5, &[1, 6, 11, 7, 38])),
        // Racks 1 and 2 keep 6 of 12 each: the second heptagon never finds
        // a rack, so every heptagon-local stripe shuffles the rack order and
        // then falls back to the flat draw.
        (
            "rack too small",
            cluster_with_down(36, 3, &[1, 4, 7, 10, 13, 16, 2, 5, 8, 11, 14, 17]),
        ),
    ]
}

/// The bytes `heap_bytes` counts for the arena and the postings, from the
/// reference's own buffers: the arena, every posted offset, and the
/// postings' offset table of one prefix sum per node plus the total.
fn index_bytes(hosts: &[u32], postings: &[Vec<u32>]) -> usize {
    let posted: usize = postings.iter().map(Vec::len).sum();
    (hosts.len() + posted + postings.len() + 1) * size_of::<u32>()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Asserts one case and returns `heap_bytes` less the reference's arena and
/// postings bytes: what the code's name and shape tables occupy.
fn assert_same_build(
    code: &dyn ErasureCode,
    cluster: &Cluster,
    stripes: usize,
    policy: PlacementPolicy,
    seed: u64,
    case: &str,
) -> usize {
    let arity = code.node_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = PlacementMap::place(code, cluster, stripes, policy, &mut rng).unwrap();
    let mut old_rng = ChaCha8Rng::seed_from_u64(seed);
    let (old_hosts, old_postings) = old_place(code, cluster, stripes, policy, &mut old_rng);

    assert_eq!(placement.stripe_count(), stripes, "{case}");
    for (stripe, want) in old_hosts.chunks(arity).enumerate() {
        let hosts = placement.stripe_hosts(stripe).unwrap();
        let got: Vec<u32> = hosts.iter().map(|n| n.0 as u32).collect();
        assert_eq!(got, want, "{case}: stripe {stripe} hosts");
    }
    assert_eq!(placement.node_universe(), old_postings.len(), "{case}");
    for (node, offsets) in old_postings.iter().enumerate() {
        let want: Vec<(usize, usize)> = offsets
            .iter()
            .map(|&offset| (offset as usize / arity, offset as usize % arity))
            .collect();
        let mut got = Vec::with_capacity(want.len());
        placement
            .for_each_stripe_on_node(NodeId(node), |stripe, local| got.push((stripe, local)))
            .unwrap();
        assert_eq!(got, want, "{case}: node {node} reverse scan");
    }
    assert_eq!(
        rng.next_u64(),
        old_rng.next_u64(),
        "{case}: the builds consumed different numbers of draws"
    );
    placement.heap_bytes() - index_bytes(&old_hosts, &old_postings)
}

#[test]
fn streaming_build_reproduces_the_old_build_draw_for_draw() {
    for kind in codes::EVERY_CODE {
        let code = kind.build().unwrap();
        let arity = code.node_count();
        // `heap_bytes` = arena + postings + the code's name and shape
        // tables. The last two do not depend on the placement, so the
        // difference to the reference's arena and postings bytes must be
        // one constant per code (its absolute value is pinned by
        // `metadata_scale_is_the_recorded_structural_table`).
        let mut fixed_bytes = None;
        for (pool, cluster) in pools() {
            let up = cluster.up_nodes().len();
            // Stripes after which the round-robin ring is back at its start.
            let lap = up / gcd(arity, up);
            for stripes in [1, lap, lap + 1, 2 * lap, 40 * lap + 3] {
                for policy in [PlacementPolicy::Random, PlacementPolicy::RoundRobin] {
                    for seed in [1, 2, 0x5EED_2014] {
                        let case =
                            format!("{kind} / {pool} / {stripes} stripes / {policy:?} / {seed}");
                        let fixed = assert_same_build(
                            code.as_ref(),
                            &cluster,
                            stripes,
                            policy,
                            seed,
                            &case,
                        );
                        assert_eq!(
                            *fixed_bytes.get_or_insert(fixed),
                            fixed,
                            "{case}: heap_bytes moved with the placement"
                        );
                    }
                }
            }
        }
    }
}

/// The "rack too small" pool does what its name says: heptagon-local
/// stripes are not rack-separated there (the flat fall-back fired), and are
/// on the other two pools.
#[test]
fn the_swept_pools_cover_the_rack_aware_draw_and_its_fall_back() {
    let code = drc_codes::CodeKind::HeptagonLocal.build().unwrap();
    for (pool, cluster) in pools() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            50,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let separated = (0..50).all(|stripe| {
            let hosts = placement.stripe_hosts(stripe).unwrap();
            let rack = |local: usize| cluster.rack_of(hosts[local]).unwrap();
            (1..7).all(|l| rack(l) == rack(0))
                && (8..14).all(|l| rack(l) == rack(7))
                && rack(0) != rack(7)
                && rack(14) != rack(0)
                && rack(14) != rack(7)
        });
        assert_eq!(separated, pool != "rack too small", "{pool}");
    }
}
