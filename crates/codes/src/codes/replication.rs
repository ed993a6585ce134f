//! Plain block replication (the HDFS default).

use std::collections::BTreeSet;

use drc_gf::Matrix;

use crate::layout::{CodeStructure, NodeLayout};
use crate::{CodeError, ErasureCode};

/// `r`-way replication: each data block is its own stripe, stored verbatim on
/// `r` distinct nodes.
///
/// Hadoop's default is 3-way replication; the paper compares against both
/// 2-way and 3-way replication.
///
/// # Example
///
/// ```
/// use drc_codes::{ErasureCode, ReplicationCode};
///
/// let three_rep = ReplicationCode::new(3).unwrap();
/// assert_eq!(three_rep.data_blocks(), 1);
/// assert_eq!(three_rep.node_count(), 3);
/// assert_eq!(three_rep.storage_overhead(), 3.0);
/// assert_eq!(three_rep.fault_tolerance(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationCode {
    replicas: usize,
    structure: CodeStructure,
}

impl ReplicationCode {
    /// Creates an `r`-way replication code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `replicas` is zero.
    pub fn new(replicas: usize) -> Result<Self, CodeError> {
        if replicas == 0 {
            return Err(CodeError::InvalidParameters {
                code: "replication".to_string(),
                reason: "at least one replica is required".to_string(),
            });
        }
        let structure = CodeStructure {
            name: format!("{replicas}-rep"),
            data_blocks: 1,
            generator: Matrix::identity(1),
            layout: NodeLayout::new(vec![vec![0]; replicas])?,
            rack_groups: vec![(0..replicas).collect()],
        };
        structure.validate()?;
        Ok(ReplicationCode {
            replicas,
            structure,
        })
    }

    /// Number of replicas of each block.
    pub fn replicas(&self) -> usize {
        self.replicas
    }
}

impl ErasureCode for ReplicationCode {
    fn structure(&self) -> &CodeStructure {
        &self.structure
    }

    fn can_recover(&self, failed_nodes: &BTreeSet<usize>) -> bool {
        failed_nodes.iter().filter(|&&n| n < self.replicas).count() < self.replicas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::TransferPayload;

    #[test]
    fn rejects_zero_replicas() {
        assert!(ReplicationCode::new(0).is_err());
    }

    #[test]
    fn overhead_and_lengths() {
        for r in 1..=4 {
            let code = ReplicationCode::new(r).unwrap();
            assert_eq!(code.replicas(), r);
            assert_eq!(code.data_blocks(), 1);
            assert_eq!(code.distinct_blocks(), 1);
            assert_eq!(code.node_count(), r);
            assert_eq!(code.stored_blocks(), r);
            assert_eq!(code.storage_overhead(), r as f64);
            assert_eq!(code.name(), format!("{r}-rep"));
        }
    }

    #[test]
    fn fault_tolerance_is_replicas_minus_one() {
        assert_eq!(ReplicationCode::new(1).unwrap().fault_tolerance(), 0);
        assert_eq!(ReplicationCode::new(2).unwrap().fault_tolerance(), 1);
        assert_eq!(ReplicationCode::new(3).unwrap().fault_tolerance(), 2);
    }

    #[test]
    fn encode_copies_block() {
        let code = ReplicationCode::new(3).unwrap();
        let data = vec![vec![1u8, 2, 3]];
        let coded = code.encode(&data).unwrap();
        assert_eq!(coded, vec![vec![1u8, 2, 3]]);
        assert!(code.encode(&[vec![1u8], vec![2u8]]).is_err());
    }

    #[test]
    fn single_node_repair_is_one_copy() {
        let code = ReplicationCode::new(3).unwrap();
        let plan = code.repair_plan(&[1].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks(), 1);
        assert!(matches!(
            plan.transfers[0].payload,
            TransferPayload::Replica { block: 0 }
        ));
        assert_eq!(code.single_node_repair_blocks(), 1.0);
    }

    #[test]
    fn two_node_repair_of_three_rep() {
        let code = ReplicationCode::new(3).unwrap();
        let plan = code.repair_plan(&[0, 2].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks(), 2);
        assert!(plan.fully_lost_blocks.is_empty());
    }

    #[test]
    fn losing_all_replicas_is_fatal() {
        let code = ReplicationCode::new(2).unwrap();
        let all: BTreeSet<usize> = [0, 1].into_iter().collect();
        assert!(!code.can_recover(&all));
        assert!(code.repair_plan(&all).is_err());
        assert!(code.degraded_read_plan(0, &all).is_err());
    }

    #[test]
    fn degraded_read_uses_surviving_replica() {
        let code = ReplicationCode::new(3).unwrap();
        let plan = code
            .degraded_read_plan(0, &[0].into_iter().collect())
            .unwrap();
        assert_eq!(plan.network_blocks, 1);
        assert_eq!(
            plan.transfers[0].payload,
            TransferPayload::Replica { block: 0 }
        );
    }

    #[test]
    fn fatal_pattern_counts() {
        let code = ReplicationCode::new(3).unwrap();
        assert_eq!(code.count_fatal_patterns(1), (0, 3));
        assert_eq!(code.count_fatal_patterns(2), (0, 3));
        assert_eq!(code.count_fatal_patterns(3), (1, 1));
        assert_eq!(code.count_fatal_patterns(4), (0, 0));
    }
}
