//! Property-based tests on block placement.

use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn paper_code() -> impl Strategy<Value = CodeKind> {
    prop_oneof![
        Just(CodeKind::TWO_REP),
        Just(CodeKind::THREE_REP),
        Just(CodeKind::Pentagon),
        Just(CodeKind::Heptagon),
        Just(CodeKind::HeptagonLocal),
        Just(CodeKind::RAID_M_10_9),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Placement invariants: distinct up nodes per stripe, consistent forward
    /// and reverse maps, and the code's replica counts preserved.
    #[test]
    fn placement_invariants(
        code in paper_code(),
        nodes in 20usize..60,
        stripes in 1usize..20,
        slots in 1usize..5,
        policy in prop_oneof![Just(PlacementPolicy::Random), Just(PlacementPolicy::RoundRobin)],
        seed in any::<u64>(),
    ) {
        let cluster = Cluster::new(ClusterSpec::custom(nodes, 3, slots));
        let built = code.build().unwrap();
        prop_assume!(built.node_count() <= nodes);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let placement =
            PlacementMap::place(built.as_ref(), &cluster, stripes, policy, &mut rng).unwrap();

        prop_assert_eq!(placement.stripe_count(), stripes);
        prop_assert_eq!(placement.data_block_count(), stripes * built.data_blocks());

        for stripe in 0..placement.stripe_count() {
            let hosts = placement.stripe_hosts(stripe).unwrap();
            prop_assert_eq!(hosts.len(), built.node_count());
            let unique: std::collections::BTreeSet<_> = hosts.iter().collect();
            prop_assert_eq!(unique.len(), hosts.len(), "stripe reuses a node");
        }
        // Forward/reverse consistency and replica counts.
        for (id, locations) in placement.iter_data_blocks() {
            prop_assert_eq!(locations.len(), built.block_locations(id.block()).len());
            for &node in &locations {
                prop_assert!(placement.blocks_on_node(node).unwrap().contains(&id));
            }
        }
        // Total stored replicas match the code's stored block count.
        let stored: usize = cluster
            .nodes()
            .map(|n| placement.node_block_count(n).unwrap())
            .sum();
        prop_assert_eq!(stored, stripes * built.stored_blocks());
    }

    /// Placement never uses down nodes, regardless of how many are down
    /// (as long as enough remain).
    #[test]
    fn placement_avoids_down_nodes(
        down_count in 0usize..10,
        seed in any::<u64>(),
    ) {
        let mut cluster = Cluster::new(ClusterSpec::custom(30, 3, 4));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let down = drc_cluster::sample_nodes(&cluster, down_count, &mut rng);
        prop_assert_eq!(down.len(), down_count.min(cluster.len()));
        for &node in &down {
            cluster.set_down(node);
        }
        let code = CodeKind::HeptagonLocal.build().unwrap();
        let result = PlacementMap::place(code.as_ref(), &cluster, 5, PlacementPolicy::Random, &mut rng);
        if cluster.up_nodes().len() >= code.node_count() {
            let placement = result.unwrap();
            for stripe in 0..placement.stripe_count() {
                for n in &placement.stripe_hosts(stripe).unwrap() {
                    prop_assert!(cluster.is_up(*n));
                }
            }
        } else {
            prop_assert!(result.is_err());
        }
    }
}
