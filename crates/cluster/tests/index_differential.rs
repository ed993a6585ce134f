//! Differential tests of the placement index against the `BTreeMap`
//! double-store it replaced (`support/map_oracle.rs`): a [`PlacementMap`]
//! and a [`MapOracle`] built from it must be observationally identical —
//! same lookups, same reverse scans, same errors — over every paper code
//! and placement policy. The only permitted difference is resident size,
//! which the arena must win.

#[path = "support/codes.rs"]
mod codes;
#[path = "support/map_oracle.rs"]
mod map_oracle;

use drc_cluster::{
    Cluster, ClusterError, ClusterSpec, CodeShape, GlobalBlockId, NodeId, PlacementMap,
    PlacementPolicy,
};
use drc_codes::CodeKind;
use map_oracle::MapOracle;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every code kind the registry evaluates.
fn any_code() -> impl Strategy<Value = CodeKind> {
    proptest::strategy::Union::new(codes::EVERY_CODE.map(|kind| Just(kind).boxed()).into())
}

fn any_policy() -> impl Strategy<Value = PlacementPolicy> {
    prop_oneof![
        Just(PlacementPolicy::Random),
        Just(PlacementPolicy::RoundRobin),
    ]
}

/// Places `stripes` stripes of `code` and indexes the result a second time,
/// block by block, in the oracle.
fn build_pair(
    code: CodeKind,
    cluster: &Cluster,
    stripes: usize,
    policy: PlacementPolicy,
    seed: u64,
) -> (MapOracle, PlacementMap) {
    let built = code.build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement =
        PlacementMap::place(built.as_ref(), cluster, stripes, policy, &mut rng).unwrap();
    let oracle = MapOracle::new(&placement, CodeShape::of(built.as_ref()));
    (oracle, placement)
}

/// Asserts every observable query — forward, reverse, counts, and the
/// out-of-range error cases — answers identically on the oracle and the
/// placement.
fn assert_observationally_equal(oracle: &MapOracle, placement: &PlacementMap) {
    assert_eq!(oracle.stripe_count(), placement.stripe_count());
    assert_eq!(oracle.shape().arity(), placement.arity());
    assert_eq!(
        oracle.shape().distinct_blocks(),
        placement.distinct_blocks_per_stripe()
    );
    assert_eq!(oracle.node_universe(), placement.node_universe());

    let stripes = oracle.stripe_count();
    let distinct = oracle.shape().distinct_blocks();
    for stripe in 0..stripes {
        assert_eq!(
            oracle.stripe_hosts(stripe).unwrap(),
            placement.stripe_hosts(stripe).unwrap(),
            "stripe {stripe} hosts"
        );
        for block in 0..distinct {
            let id = GlobalBlockId::new(stripe, block);
            assert_eq!(
                oracle.locations(id).unwrap(),
                placement.locations(id).unwrap(),
                "{id:?} locations"
            );
        }
        // One past the last block of each stripe: identical error.
        let over = GlobalBlockId::new(stripe, distinct);
        assert_eq!(oracle.locations(over), placement.locations(over));
    }
    assert_eq!(
        oracle.stripe_hosts(stripes),
        placement.stripe_hosts(stripes),
        "out-of-range stripe error"
    );
    let beyond = GlobalBlockId::new(stripes, 0);
    assert_eq!(oracle.locations(beyond), placement.locations(beyond));

    for node in 0..oracle.node_universe() {
        let node = NodeId(node);
        assert_eq!(
            oracle.blocks_on_node(node).unwrap(),
            placement.blocks_on_node(node).unwrap(),
            "{node:?} reverse scan"
        );
        assert_eq!(
            oracle.node_block_count(node).unwrap(),
            placement.node_block_count(node).unwrap()
        );
        let mut placement_stripes = Vec::new();
        placement
            .for_each_stripe_on_node(node, |s, l| placement_stripes.push((s, l)))
            .unwrap();
        assert_eq!(
            oracle.stripes_on_node(node).unwrap(),
            placement_stripes,
            "{node:?} stripe scan"
        );
    }
    let ghost = NodeId(oracle.node_universe());
    assert_eq!(
        oracle.blocks_on_node(ghost),
        placement.blocks_on_node(ghost)
    );
    assert_eq!(
        oracle.stripes_on_node(ghost).err(),
        placement.for_each_stripe_on_node(ghost, |_, _| ()).err()
    );
    assert_eq!(
        oracle.node_block_count(ghost),
        placement.node_block_count(ghost)
    );
    assert!(matches!(
        placement.blocks_on_node(ghost),
        Err(ClusterError::UnknownNode { .. })
    ));

    let data = oracle.shape().data_blocks();
    let oracle_data: Vec<_> = (0..stripes)
        .flat_map(|stripe| (0..data).map(move |block| GlobalBlockId::new(stripe, block)))
        .map(|id| (id, oracle.locations(id).unwrap()))
        .collect();
    let placement_data: Vec<_> = placement.iter_data_blocks().collect();
    assert_eq!(oracle_data, placement_data, "data-block iteration");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Freshly placed: the placement answers every query as the oracle does
    /// for every code × policy.
    #[test]
    fn placement_agrees_with_the_oracle_after_placement(
        code in any_code(),
        nodes in 20usize..50,
        stripes in 1usize..16,
        policy in any_policy(),
        seed in any::<u64>(),
    ) {
        let cluster = Cluster::new(ClusterSpec::custom(nodes, 3, 4));
        prop_assume!(code.build().unwrap().node_count() <= nodes);
        let (oracle, placement) = build_pair(code, &cluster, stripes, policy, seed);
        assert_observationally_equal(&oracle, &placement);
        // No size assertion here: at these deliberately tiny sizes the
        // postings' fixed offset table (4 B per node) and the code's shape
        // tables can outweigh the oracle's (undercounted) `heap_bytes`
        // floor. Size is asserted at non-toy scale in
        // `arena_undercuts_the_map_oracle_at_scale` below.
    }
}

/// At non-toy scale (thousands of stripes) the placement's self-reported
/// resident size must undercut the oracle's — and the oracle's figure is a
/// *floor* (it omits `BTreeMap` node overhead), so the real gap is wider
/// still. The allocator-measured comparison lives in `index_memory.rs`.
#[test]
fn arena_undercuts_the_map_oracle_at_scale() {
    let cluster = Cluster::new(ClusterSpec::custom(30, 3, 4));
    for code in [
        CodeKind::TWO_REP,
        CodeKind::Pentagon,
        CodeKind::HeptagonLocal,
    ] {
        let (oracle, placement) = build_pair(code, &cluster, 4000, PlacementPolicy::RoundRobin, 7);
        assert_observationally_equal(&oracle, &placement);
        assert!(
            placement.heap_bytes() < oracle.heap_bytes(),
            "{code}: arena {} B must undercut the map oracle's {} B",
            placement.heap_bytes(),
            oracle.heap_bytes()
        );
    }
}
