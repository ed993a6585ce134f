//! A single-copy systematic Reed–Solomon code, as used by HDFS-RAID for cold
//! data (the paper's introduction) and as a general reference point.

use drc_gf::ReedSolomon;

use crate::layout::{CodeStructure, NodeLayout};
use crate::{CodeError, ErasureCode};

/// A `(k + m, k)` systematic Reed–Solomon code storing one block per node
/// with no replication.
///
/// This is the kind of code Facebook's HDFS-RAID applies to cold data: it has
/// the lowest storage overhead of all schemes considered, but no block has a
/// second replica, so every map task on a node other than the block holder is
/// remote and every degraded read is a `k`-block reconstruction.
///
/// # Example
///
/// ```
/// use drc_codes::{ErasureCode, RsCode};
///
/// let rs = RsCode::new(10, 4).unwrap(); // the RS(10,4) used in HDFS-RAID
/// assert_eq!(rs.node_count(), 14);
/// assert_eq!(rs.fault_tolerance(), 4);
/// assert!((rs.storage_overhead() - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RsCode {
    codec: ReedSolomon,
    structure: CodeStructure,
}

impl RsCode {
    /// Creates a Reed–Solomon code with `data` data blocks and `parity`
    /// parity blocks per stripe.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if the parameters are not
    /// accepted by the underlying codec (zero counts or more than 256 total
    /// shards).
    pub fn new(data: usize, parity: usize) -> Result<Self, CodeError> {
        let codec = ReedSolomon::new(data, parity).map_err(|e| CodeError::InvalidParameters {
            code: format!("RS({data},{parity})"),
            reason: e.to_string(),
        })?;
        let total = data + parity;
        let layout = NodeLayout::new((0..total).map(|b| vec![b]).collect())?;
        let structure = CodeStructure {
            name: format!("RS({data},{parity})"),
            data_blocks: data,
            generator: codec.generator().clone(),
            layout,
            rack_groups: vec![(0..total).collect()],
        };
        structure.validate()?;
        Ok(RsCode { codec, structure })
    }
}

impl ErasureCode for RsCode {
    fn structure(&self) -> &CodeStructure {
        &self.structure
    }

    fn encode_into(&self, data: &[Vec<u8>], parities: &mut [Vec<u8>]) -> Result<(), CodeError> {
        // Delegate straight to the codec's fused zero-allocation path (the
        // RS layout stores exactly one distinct block per node, so the
        // codes-level parities are the codec's parity shards verbatim).
        self.codec
            .encode_into(data, parities)
            .map_err(CodeError::from)
    }

    fn can_recover(&self, failed_nodes: &std::collections::BTreeSet<usize>) -> bool {
        failed_nodes
            .iter()
            .filter(|&&n| n < self.node_count())
            .count()
            <= self.codec.parity_shards()
    }

    fn fault_tolerance(&self) -> usize {
        self.codec.parity_shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn constructor_validation() {
        assert!(RsCode::new(0, 4).is_err());
        assert!(RsCode::new(4, 0).is_err());
        assert!(RsCode::new(10, 4).is_ok());
    }

    #[test]
    fn structure_matches_codec() {
        let rs = RsCode::new(10, 4).unwrap();
        assert_eq!(rs.name(), "RS(10,4)");
        assert_eq!(rs.data_blocks(), 10);
        assert_eq!(rs.distinct_blocks(), 14);
        assert_eq!(rs.stored_blocks(), 14);
        assert_eq!(rs.node_count(), 14);
        assert_eq!(rs.fault_tolerance(), 4);
        for b in 0..14 {
            assert_eq!(rs.block_locations(b), &[b]);
        }
    }

    #[test]
    fn encode_decode_roundtrip_with_losses() {
        let rs = RsCode::new(6, 3).unwrap();
        let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8 + 1; 20]).collect();
        let coded = rs.encode(&data).unwrap();
        assert_eq!(coded.len(), 9);
        let failed: BTreeSet<usize> = [0, 4, 8].into_iter().collect();
        assert!(rs.can_recover(&failed));
        let available: BTreeMap<usize, Vec<u8>> = (0..9)
            .filter(|b| !failed.contains(b))
            .map(|b| (b, coded[b].clone()))
            .collect();
        assert_eq!(rs.decode(&available, 20).unwrap(), data);
        let too_many: BTreeSet<usize> = [0, 1, 2, 3].into_iter().collect();
        assert!(!rs.can_recover(&too_many));
    }

    #[test]
    fn encode_into_matches_encode() {
        let rs = RsCode::new(6, 3).unwrap();
        let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8 * 3 + 1; 33]).collect();
        let full = rs.encode(&data).unwrap();
        let mut parities = vec![vec![0u8; 33]; 3];
        rs.encode_into(&data, &mut parities).unwrap();
        assert_eq!(parities.as_slice(), &full[6..]);
        // Wrong parity buffer count is rejected.
        let mut short = vec![vec![0u8; 33]; 2];
        assert!(rs.encode_into(&data, &mut short).is_err());
    }

    #[test]
    fn degraded_read_needs_k_blocks_when_holder_down() {
        let rs = RsCode::new(10, 4).unwrap();
        let plan = rs
            .degraded_read_plan(3, &[3].into_iter().collect())
            .unwrap();
        assert_eq!(plan.network_blocks, 10);
        let plan = rs.degraded_read_plan(3, &BTreeSet::new()).unwrap();
        assert_eq!(plan.network_blocks, 1);
    }

    #[test]
    fn single_node_repair_costs_k_blocks() {
        // The well-known repair-bandwidth penalty of Reed-Solomon codes.
        let rs = RsCode::new(10, 4).unwrap();
        let plan = rs.repair_plan(&[2].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks(), 10);
        assert_eq!(rs.single_node_repair_blocks(), 10.0);
    }

    #[test]
    fn tolerance_matches_parity_count() {
        assert_eq!(RsCode::new(10, 4).unwrap().fault_tolerance(), 4);
        assert_eq!(RsCode::new(9, 1).unwrap().fault_tolerance(), 1);
    }
}
