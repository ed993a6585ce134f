//! The `(n, n-1)` RAID+mirroring comparison scheme (§2.1 of the paper).
//!
//! Given `n - 1` data blocks, compute one XOR parity (as in RAID-4/5) and
//! then mirror each of the `n` coded blocks, storing the `2n` copies on `2n`
//! *different* nodes. Unlike the pentagon/heptagon codes, a node stores a
//! single block of the stripe, so RAID+m behaves like plain replication for
//! MapReduce locality — but it needs `2n` nodes per stripe (the *code length*
//! disadvantage highlighted in §3.1).

use std::collections::BTreeSet;

use drc_gf::Matrix;

use crate::layout::{CodeStructure, NodeLayout};
use crate::{CodeError, ErasureCode};

/// The `(n, n-1)` RAID+mirroring code: one XOR parity, every coded block
/// mirrored, one block per node.
///
/// # Example
///
/// ```
/// use drc_codes::{ErasureCode, RaidMirrorCode};
///
/// let raid_m = RaidMirrorCode::new(10).unwrap(); // the paper's (10,9) RAID+m
/// assert_eq!(raid_m.data_blocks(), 9);
/// assert_eq!(raid_m.node_count(), 20);
/// assert!((raid_m.storage_overhead() - 20.0 / 9.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RaidMirrorCode {
    total: usize,
    structure: CodeStructure,
}

impl RaidMirrorCode {
    /// Creates the `(total, total-1)` RAID+m code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `total < 2` or
    /// `total > 128` (which would exceed 256 stored blocks).
    pub fn new(total: usize) -> Result<Self, CodeError> {
        if !(2..=128).contains(&total) {
            return Err(CodeError::InvalidParameters {
                code: format!("({total},{}) RAID+m", total.saturating_sub(1)),
                reason: "RAID+m requires 2 <= total coded blocks <= 128".to_string(),
            });
        }
        let k = total - 1;
        // Distinct block i (0..total) is stored on nodes 2i and 2i+1.
        let per_node: Vec<Vec<usize>> = (0..2 * total).map(|node| vec![node / 2]).collect();
        let layout = NodeLayout::new(per_node)?;
        let parity_row = Matrix::from_rows(&[vec![1u8; k]]).map_err(CodeError::from)?;
        let generator = Matrix::identity(k)
            .stack(&parity_row)
            .map_err(CodeError::from)?;
        let structure = CodeStructure {
            name: format!("({total},{k}) RAID+m"),
            data_blocks: k,
            generator,
            layout,
            rack_groups: vec![(0..2 * total).collect()],
        };
        structure.validate()?;
        Ok(RaidMirrorCode { total, structure })
    }

    /// The paper's `(10,9)` RAID+m code (compared against the pentagon code).
    pub fn raid_10_9() -> Self {
        // drc-lint: allow(panic-hygiene): compile-time-constant parameters,
        // exercised by unit tests; a panic here cannot depend on runtime input.
        RaidMirrorCode::new(10).expect("(10,9) RAID+m parameters are valid")
    }

    /// The paper's `(12,11)` RAID+m code (Table 1).
    pub fn raid_12_11() -> Self {
        // drc-lint: allow(panic-hygiene): compile-time-constant parameters,
        // exercised by unit tests; a panic here cannot depend on runtime input.
        RaidMirrorCode::new(12).expect("(12,11) RAID+m parameters are valid")
    }

    /// Number of distinct blocks whose *both* mirrors live on failed nodes.
    fn fully_lost_count(&self, failed_nodes: &BTreeSet<usize>) -> usize {
        (0..self.total)
            .filter(|&b| failed_nodes.contains(&(2 * b)) && failed_nodes.contains(&(2 * b + 1)))
            .count()
    }
}

impl ErasureCode for RaidMirrorCode {
    fn structure(&self) -> &CodeStructure {
        &self.structure
    }

    fn can_recover(&self, failed_nodes: &BTreeSet<usize>) -> bool {
        // The single XOR parity equation can rebuild at most one block whose
        // both mirrors are gone.
        self.fully_lost_count(failed_nodes) <= 1
    }

    fn fault_tolerance(&self) -> usize {
        // Any 3 node failures destroy at most one mirrored pair; 4 failures
        // can destroy two pairs.
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::TransferPayload;
    use std::collections::BTreeMap;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 17 + j * 29 + 1) as u8).collect())
            .collect()
    }

    #[test]
    fn constructor_validation() {
        assert!(RaidMirrorCode::new(1).is_err());
        assert!(RaidMirrorCode::new(129).is_err());
        assert!(RaidMirrorCode::new(2).is_ok());
    }

    #[test]
    fn paper_parameters() {
        let c = RaidMirrorCode::raid_10_9();
        assert_eq!(c.name(), "(10,9) RAID+m");
        assert_eq!(c.data_blocks(), 9);
        assert_eq!(c.distinct_blocks(), 10);
        assert_eq!(c.stored_blocks(), 20);
        assert_eq!(c.node_count(), 20);
        assert!((c.storage_overhead() - 2.2222).abs() < 1e-3);

        let c = RaidMirrorCode::raid_12_11();
        assert_eq!(c.name(), "(12,11) RAID+m");
        assert_eq!(c.data_blocks(), 11);
        assert_eq!(c.node_count(), 24);
        assert!((c.storage_overhead() - 24.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn every_node_stores_one_block_and_every_block_has_two_mirrors() {
        let c = RaidMirrorCode::raid_10_9();
        for node in 0..20 {
            assert_eq!(c.node_blocks(node).len(), 1);
        }
        for block in 0..10 {
            assert_eq!(c.block_locations(block), &[2 * block, 2 * block + 1]);
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        let c = RaidMirrorCode::new(10).unwrap();
        let data = sample_data(9, 56);
        let coded = c.encode(&data).unwrap();
        let mut parities = vec![vec![0u8; 56]];
        c.encode_into(&data, &mut parities).unwrap();
        assert_eq!(parities[0], coded[9]);
    }

    #[test]
    fn encode_and_decode_roundtrip() {
        let c = RaidMirrorCode::new(6).unwrap();
        let data = sample_data(5, 40);
        let coded = c.encode(&data).unwrap();
        assert_eq!(coded.len(), 6);
        assert_eq!(coded[5], drc_gf::slice::xor_all(&data));
        // Lose both mirrors of data block 2 plus one mirror of block 4.
        let failed: BTreeSet<usize> = [4, 5, 8].into_iter().collect();
        assert!(c.can_recover(&failed));
        let mut available = BTreeMap::new();
        for node in 0..c.node_count() {
            if failed.contains(&node) {
                continue;
            }
            for &b in c.node_blocks(node) {
                available.insert(b, coded[b].clone());
            }
        }
        assert_eq!(c.decode(&available, 40).unwrap(), data);
    }

    #[test]
    fn tolerance_is_three() {
        let c = RaidMirrorCode::raid_10_9();
        assert_eq!(c.fault_tolerance(), 3);
        // Losing both mirrors of two different blocks is fatal.
        let fatal: BTreeSet<usize> = [0, 1, 2, 3].into_iter().collect();
        assert!(!c.can_recover(&fatal));
        // Losing four mirrors of four different blocks is fine.
        let ok: BTreeSet<usize> = [0, 2, 4, 6].into_iter().collect();
        assert!(c.can_recover(&ok));
    }

    #[test]
    fn single_node_repair_is_one_copy_from_mirror() {
        let c = RaidMirrorCode::raid_10_9();
        let plan = c.repair_plan(&[7].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks(), 1);
        assert!(matches!(
            plan.transfers[0].payload,
            TransferPayload::Replica { block: 3 }
        ));
        assert_eq!(c.single_node_repair_blocks(), 1.0);
    }

    #[test]
    fn degraded_read_of_doubly_lost_block_needs_k_blocks() {
        // Paper §3.1: the (10,9) RAID+m code needs 9 blocks of repair
        // bandwidth for an on-the-fly repair, versus 3 for the pentagon.
        let c = RaidMirrorCode::raid_10_9();
        let down: BTreeSet<usize> = [2, 3].into_iter().collect(); // both mirrors of data block 1
        let plan = c.degraded_read_plan(1, &down).unwrap();
        assert_eq!(plan.network_blocks, 9);
        assert!(!plan
            .transfers
            .iter()
            .any(|t| t.payload == TransferPayload::Replica { block: 1 }));
        // With one mirror alive it is a single remote read.
        let plan = c.degraded_read_plan(1, &[2].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks, 1);
    }

    #[test]
    fn mirror_pair_repair_uses_decode() {
        let c = RaidMirrorCode::raid_10_9();
        let failed: BTreeSet<usize> = [2, 3].into_iter().collect();
        let plan = c.repair_plan(&failed).unwrap();
        // 9 fetches to rebuild the lost block + forwarding to the second mirror.
        assert_eq!(plan.fully_lost_blocks, vec![1]);
        assert_eq!(plan.network_blocks(), 10);
    }

    #[test]
    fn fatal_pattern_counts() {
        let c = RaidMirrorCode::new(3).unwrap(); // 6 nodes, blocks {0,1,2}
                                                 // 2 failures: fatal only if they are a mirror pair -> never fatal
                                                 // (one pair lost is still recoverable via parity).
        assert_eq!(c.count_fatal_patterns(2), (0, 15));
        // 4 failures: fatal iff at least two mirror pairs are fully lost.
        // Choosing 2 of the 3 pairs = 3 fatal patterns out of C(6,4)=15.
        assert_eq!(c.count_fatal_patterns(4), (3, 15));
    }
}
