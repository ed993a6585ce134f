//! Property-based tests on the erasure-code invariants.

use std::collections::{BTreeMap, BTreeSet};

use drc_codes::{CodeKind, Transfer, TransferPayload};
use proptest::prelude::*;

/// All code kinds used in the paper's evaluation.
fn any_paper_code() -> impl Strategy<Value = CodeKind> {
    prop_oneof![
        Just(CodeKind::TWO_REP),
        Just(CodeKind::THREE_REP),
        Just(CodeKind::Pentagon),
        Just(CodeKind::Heptagon),
        Just(CodeKind::HeptagonLocal),
        Just(CodeKind::RAID_M_10_9),
        Just(CodeKind::RAID_M_12_11),
        Just(CodeKind::ReedSolomon {
            data: 10,
            parity: 4
        }),
    ]
}

fn random_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|j| (seed as usize ^ (i * 131 + j * 31 + 17)) as u8)
                .collect()
        })
        .collect()
}

/// Picks `count` distinct nodes below `n` pseudo-randomly from a seed.
fn pick_nodes(n: usize, count: usize, mut seed: u64) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    while out.len() < count.min(n) {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.insert((seed % n as u64) as usize);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants that must hold for every code.
    #[test]
    fn structural_invariants(kind in any_paper_code()) {
        let code = kind.build().unwrap();
        let s = code.structure();
        s.validate().unwrap();
        // Stored blocks = sum over nodes of blocks per node.
        let stored: usize = (0..code.node_count()).map(|n| code.node_blocks(n).len()).sum();
        prop_assert_eq!(stored, code.stored_blocks());
        // Every distinct block has at least one location and locations are consistent.
        for b in 0..code.distinct_blocks() {
            let locs = code.block_locations(b);
            prop_assert!(!locs.is_empty());
            for &node in locs {
                prop_assert!(code.node_blocks(node).contains(&b));
            }
        }
        // Overhead is stored/data.
        prop_assert!((code.storage_overhead() - stored as f64 / code.data_blocks() as f64).abs() < 1e-12);
        // Double-replication codes store >= 2 replicas of every data block.
        if kind.has_inherent_double_replication() {
            for b in 0..code.data_blocks() {
                prop_assert!(code.block_locations(b).len() >= 2);
            }
        }
    }

    /// Encoding then decoding from any survivable failure pattern recovers the data.
    #[test]
    fn decode_after_tolerated_failures(
        kind in any_paper_code(),
        seed in any::<u64>(),
        len in 1usize..64,
        extra_failures in 0usize..2,
    ) {
        let code = kind.build().unwrap();
        let t = code.fault_tolerance();
        let failures = (t + extra_failures).min(code.node_count());
        let failed = pick_nodes(code.node_count(), failures, seed);
        let data = random_data(code.data_blocks(), len, seed);
        let coded = code.encode(&data).unwrap();
        let mut available = BTreeMap::new();
        for node in 0..code.node_count() {
            if failed.contains(&node) {
                continue;
            }
            for &b in code.node_blocks(node) {
                available.insert(b, coded[b].clone());
            }
        }
        if code.can_recover(&failed) {
            let decoded = code.decode(&available, len).unwrap();
            prop_assert_eq!(decoded, data);
        } else {
            prop_assert!(code.decode(&available, len).is_err());
        }
    }

    /// Repair plans restore every block of the failed nodes and only move data
    /// from live nodes (or previously repaired replacements).
    #[test]
    fn repair_plans_are_complete(
        kind in any_paper_code(),
        seed in any::<u64>(),
        failures in 1usize..3,
    ) {
        let code = kind.build().unwrap();
        let failed = pick_nodes(code.node_count(), failures.min(code.fault_tolerance().max(1)), seed);
        if !code.can_recover(&failed) {
            prop_assert!(code.repair_plan(&failed).is_err());
            return Ok(());
        }
        let plan = code.repair_plan(&failed).unwrap();
        // Every block stored on a failed node must be scheduled for restore.
        let mut needed: BTreeSet<usize> = BTreeSet::new();
        for &node in &failed {
            needed.extend(code.node_blocks(node).iter().copied());
        }
        let restored: BTreeSet<usize> = plan.blocks_to_restore.iter().copied().collect();
        prop_assert!(needed.is_subset(&restored));
        // Fully-lost blocks really have no live replica.
        for &b in &plan.fully_lost_blocks {
            prop_assert!(code.block_locations(b).iter().all(|n| failed.contains(n)));
        }
        // Repair bandwidth is at least the number of blocks on the failed nodes
        // that cannot be locally regenerated, and is bounded by a full decode
        // per failed node.
        prop_assert!(plan.network_blocks() >= needed.len().saturating_sub(code.distinct_blocks()));
        prop_assert!(plan.network_blocks() <= code.data_blocks() * failed.len() + needed.len());
    }

    /// Degraded reads always cost at least one network block when the local
    /// replica is gone, and replica reads are exactly one block.
    #[test]
    fn degraded_read_costs(kind in any_paper_code(), seed in any::<u64>()) {
        let code = kind.build().unwrap();
        let block = (seed as usize) % code.data_blocks();
        let hosts: Vec<usize> = code.block_locations(block).to_vec();
        // One host down (if the code has >= 2 replicas, another replica serves it).
        let down: BTreeSet<usize> = [hosts[0]].into_iter().collect();
        let plan = code.degraded_read_plan(block, &down).unwrap();
        let replica_read = matches!(
            plan.transfers.as_slice(),
            [Transfer { payload: TransferPayload::Replica { block: b }, .. }] if *b == block
        );
        prop_assert_eq!(plan.network_blocks, plan.transfers.len());
        if hosts.len() >= 2 {
            prop_assert_eq!(plan.network_blocks, 1);
            prop_assert!(replica_read);
        } else {
            prop_assert!(plan.network_blocks >= 1);
            prop_assert!(!replica_read);
        }
        // No failures at all: always a single-block replica read.
        let plan = code.degraded_read_plan(block, &BTreeSet::new()).unwrap();
        prop_assert_eq!(plan.network_blocks, 1);
    }

    /// The fault-tolerance number is consistent with exhaustive pattern counting.
    #[test]
    fn fault_tolerance_consistent_with_pattern_counts(kind in any_paper_code()) {
        let code = kind.build().unwrap();
        let t = code.fault_tolerance();
        if t >= 1 {
            let (fatal, total) = code.count_fatal_patterns(t);
            prop_assert_eq!(fatal, 0);
            prop_assert!(total > 0);
        }
        if t < code.node_count() {
            let (fatal, _) = code.count_fatal_patterns(t + 1);
            prop_assert!(fatal > 0);
        }
    }
}
