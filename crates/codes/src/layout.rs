//! The *array-code* structure shared by every code in this crate.
//!
//! A stripe of any of the evaluated codes is described by two things:
//!
//! 1. a **generator matrix** over GF(2^8): each *distinct* coded block is a
//!    linear combination of the stripe's `k` data blocks (the first `k`
//!    distinct blocks are always the data blocks themselves — every code here
//!    is systematic), and
//! 2. a **node layout**: which distinct blocks are stored on which of the
//!    stripe's `n` nodes. A distinct block stored on two nodes is *inherently
//!    replicated*; codes that put several blocks of the stripe on the same
//!    node are *array codes* — the property that drives the data-locality
//!    findings of the paper.

use std::collections::{BTreeMap, BTreeSet};

use drc_gf::{Gf256, Matrix};

use crate::CodeError;

/// Mapping from the stripe's nodes to the distinct blocks each node stores.
///
/// `layout[node]` lists distinct-block indices, in storage order. A distinct
/// block may appear on multiple nodes (replication) but at most once per node.
///
/// # Example
///
/// ```
/// use drc_codes::NodeLayout;
///
/// // Two nodes, each storing the same single block: 2-way replication.
/// let layout = NodeLayout::new(vec![vec![0], vec![0]]).unwrap();
/// assert_eq!(layout.node_count(), 2);
/// assert_eq!(layout.distinct_blocks(), 1);
/// assert_eq!(layout.block_locations(0), &[0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLayout {
    per_node: Vec<Vec<usize>>,
    /// Inverse map: distinct block -> nodes hosting it (sorted).
    locations: Vec<Vec<usize>>,
    stored_blocks: usize,
}

impl NodeLayout {
    /// Builds a layout from the per-node block lists.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if the layout is empty, any
    /// node stores no blocks, a node stores the same block twice, or the set
    /// of block indices is not contiguous starting at zero.
    pub fn new(per_node: Vec<Vec<usize>>) -> Result<Self, CodeError> {
        let invalid = |reason: &str| CodeError::InvalidParameters {
            code: "node layout".to_string(),
            reason: reason.to_string(),
        };
        if per_node.is_empty() {
            return Err(invalid("layout has no nodes"));
        }
        let mut max_block = 0usize;
        let mut stored_blocks = 0usize;
        for blocks in &per_node {
            let Some(&node_max) = blocks.iter().max() else {
                return Err(invalid("a node stores no blocks"));
            };
            let unique: BTreeSet<usize> = blocks.iter().copied().collect();
            if unique.len() != blocks.len() {
                return Err(invalid("a node stores the same block twice"));
            }
            stored_blocks += blocks.len();
            max_block = max_block.max(node_max);
        }
        let distinct = max_block + 1;
        let mut locations = vec![Vec::new(); distinct];
        for (node, blocks) in per_node.iter().enumerate() {
            for &b in blocks {
                locations[b].push(node);
            }
        }
        if locations.iter().any(|l| l.is_empty()) {
            return Err(invalid("block indices are not contiguous from zero"));
        }
        Ok(NodeLayout {
            per_node,
            locations,
            stored_blocks,
        })
    }

    /// Number of nodes the stripe spans (the paper's *code length*).
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// Number of distinct coded blocks in the stripe.
    pub fn distinct_blocks(&self) -> usize {
        self.locations.len()
    }

    /// Total number of stored blocks (counting replicas).
    pub fn stored_blocks(&self) -> usize {
        self.stored_blocks
    }

    /// The distinct blocks stored on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_blocks(&self, node: usize) -> &[usize] {
        &self.per_node[node]
    }

    /// The nodes that store a replica of `block`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block_locations(&self, block: usize) -> &[usize] {
        &self.locations[block]
    }

    /// Iterates over `(node, blocks)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.per_node
            .iter()
            .enumerate()
            .map(|(n, b)| (n, b.as_slice()))
    }

    /// The set of distinct blocks that survive when `failed_nodes` are lost.
    pub fn surviving_blocks(&self, failed_nodes: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut alive = BTreeSet::new();
        for (node, blocks) in self.iter() {
            if !failed_nodes.contains(&node) {
                alive.extend(blocks.iter().copied());
            }
        }
        alive
    }

    /// The distinct blocks for which *every* replica lives on a failed node.
    pub fn fully_lost_blocks(&self, failed_nodes: &BTreeSet<usize>) -> BTreeSet<usize> {
        (0..self.distinct_blocks())
            .filter(|&b| self.locations[b].iter().all(|n| failed_nodes.contains(n)))
            .collect()
    }

    /// Maximum number of blocks any single node stores.
    pub fn max_blocks_per_node(&self) -> usize {
        self.per_node.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The complete static description of one stripe of a code: its generator
/// matrix plus its node layout.
///
/// Every concrete code in this crate is a thin wrapper that builds a
/// `CodeStructure` once and then answers all structural queries from it.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeStructure {
    /// Display name, e.g. `"pentagon"` or `"(10,9) RAID+m"`.
    pub name: String,
    /// Number of data blocks `k` per stripe.
    pub data_blocks: usize,
    /// Generator matrix (`distinct_blocks × k`): row `b` gives the coefficients
    /// of distinct block `b` over the data blocks. The first `k` rows are the
    /// identity (systematic codes).
    pub generator: Matrix,
    /// Which distinct blocks live on which node.
    pub layout: NodeLayout,
    /// Groups of nodes that a rack-aware placement should keep in separate
    /// racks (e.g. the two heptagons and the global-parity node of the
    /// heptagon-local code). Nodes are stripe-local indices.
    pub rack_groups: Vec<Vec<usize>>,
}

impl CodeStructure {
    /// Validates internal consistency of the structure.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if the generator's dimensions
    /// do not match the layout, the code is not systematic, or the rack groups
    /// do not partition the nodes.
    pub fn validate(&self) -> Result<(), CodeError> {
        let invalid = |reason: String| CodeError::InvalidParameters {
            code: self.name.clone(),
            reason,
        };
        if self.generator.rows() != self.layout.distinct_blocks() {
            return Err(invalid(format!(
                "generator has {} rows but layout has {} distinct blocks",
                self.generator.rows(),
                self.layout.distinct_blocks()
            )));
        }
        if self.generator.cols() != self.data_blocks {
            return Err(invalid(format!(
                "generator has {} columns but code has {} data blocks",
                self.generator.cols(),
                self.data_blocks
            )));
        }
        // Systematic: first k rows must be the identity.
        for i in 0..self.data_blocks {
            for j in 0..self.data_blocks {
                let expected = if i == j { 1 } else { 0 };
                if self.generator[(i, j)].value() != expected {
                    return Err(invalid("generator is not systematic".to_string()));
                }
            }
        }
        // Rack groups must partition the node set.
        let mut seen = BTreeSet::new();
        for group in &self.rack_groups {
            for &n in group {
                if n >= self.layout.node_count() || !seen.insert(n) {
                    return Err(invalid(
                        "rack groups do not partition the nodes".to_string(),
                    ));
                }
            }
        }
        if seen.len() != self.layout.node_count() {
            return Err(invalid("rack groups do not cover all nodes".to_string()));
        }
        Ok(())
    }

    /// Storage overhead: stored blocks per data block.
    pub fn storage_overhead(&self) -> f64 {
        self.layout.stored_blocks() as f64 / self.data_blocks as f64
    }

    /// The one greedy source chooser: walks `ascending` (distinct blocks in
    /// ascending order, so the data blocks `0..k` come first) and keeps each
    /// block whose generator row is independent of the rows already kept,
    /// stopping at `k`. Preferring data (identity) rows keeps every solved
    /// system small; decode, the reconstructor and the generic plans all read
    /// the blocks this picks.
    pub(crate) fn independent_rows(
        &self,
        ascending: impl IntoIterator<Item = usize>,
    ) -> Vec<usize> {
        let k = self.data_blocks;
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        // The kept rows in echelon form: (pivot column, row scaled to 1 there).
        let mut basis: Vec<(usize, Vec<Gf256>)> = Vec::with_capacity(k);
        for b in ascending {
            if chosen.len() == k {
                break;
            }
            let mut row = self.generator.row(b).to_vec();
            for (pivot, kept) in &basis {
                let f = row[*pivot];
                if f != Gf256::ZERO {
                    for (x, &y) in row.iter_mut().zip(kept) {
                        *x += f * y;
                    }
                }
            }
            // A row that reduces to zero is in the span of those kept.
            let Some(pivot) = row.iter().position(|&x| x != Gf256::ZERO) else {
                continue;
            };
            let scale = Gf256::ONE / row[pivot];
            row.iter_mut().for_each(|x| *x *= scale);
            basis.push((pivot, row));
            chosen.push(b);
        }
        chosen
    }

    /// Decodes the `k` data blocks from the distinct blocks that are
    /// available, by solving the linear system given by the generator rows.
    ///
    /// `available` maps distinct-block index to its content; `block_len` is
    /// the common block length.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::Unrecoverable`] if the available rows do not span
    /// the data space, and other variants for malformed input.
    pub fn decode(
        &self,
        available: &BTreeMap<usize, Vec<u8>>,
        block_len: usize,
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        let k = self.data_blocks;
        for (&b, content) in available {
            if b >= self.layout.distinct_blocks() {
                return Err(CodeError::IndexOutOfRange {
                    what: "distinct block",
                    index: b,
                    limit: self.layout.distinct_blocks(),
                });
            }
            if content.len() != block_len {
                return Err(CodeError::UnequalBlockLengths);
            }
        }
        // Fast path: all data blocks directly available.
        if (0..k).all(|b| available.contains_key(&b)) {
            return Ok((0..k).map(|b| available[&b].clone()).collect());
        }
        let chosen = self.independent_rows(available.keys().copied());
        if chosen.len() < k {
            return Err(CodeError::Unrecoverable {
                detail: format!(
                    "available blocks span only {} of {} data dimensions",
                    chosen.len(),
                    k
                ),
            });
        }
        let sub = self.generator.select_rows(&chosen);
        let decode = sub.inverse().map_err(CodeError::from)?;
        let chosen_blocks: Vec<&[u8]> = chosen.iter().map(|b| available[b].as_slice()).collect();
        let mut out = Vec::with_capacity(k);
        for row in 0..k {
            out.push(drc_gf::slice::linear_combination(
                decode.row(row),
                &chosen_blocks,
                block_len,
            ));
        }
        Ok(out)
    }

    /// Returns `true` if the given set of available distinct blocks determines
    /// all data blocks.
    pub fn recoverable_from_blocks(&self, available: &BTreeSet<usize>) -> bool {
        let k = self.data_blocks;
        if (0..k).all(|b| available.contains(&b)) {
            return true;
        }
        let rows: Vec<usize> = available
            .iter()
            .copied()
            .filter(|&b| b < self.layout.distinct_blocks())
            .collect();
        if rows.len() < k {
            return false;
        }
        self.generator.select_rows(&rows).rank() == k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drc_gf::Gf256;

    fn simple_structure() -> CodeStructure {
        // k = 2 data blocks, one XOR parity, spread over 3 nodes (1 block each).
        let mut generator = Matrix::identity(2);
        let parity = Matrix::from_rows(&[vec![1, 1]]).unwrap();
        generator = generator.stack(&parity).unwrap();
        CodeStructure {
            name: "toy".to_string(),
            data_blocks: 2,
            generator,
            layout: NodeLayout::new(vec![vec![0], vec![1], vec![2]]).unwrap(),
            rack_groups: vec![vec![0, 1, 2]],
        }
    }

    #[test]
    fn layout_validation() {
        assert!(NodeLayout::new(vec![]).is_err());
        assert!(NodeLayout::new(vec![vec![]]).is_err());
        assert!(NodeLayout::new(vec![vec![0, 0]]).is_err());
        assert!(NodeLayout::new(vec![vec![0], vec![2]]).is_err());
        assert!(NodeLayout::new(vec![vec![0, 1], vec![1, 0]]).is_ok());
    }

    #[test]
    fn layout_queries() {
        let l = NodeLayout::new(vec![vec![0, 1], vec![1, 2], vec![2, 0]]).unwrap();
        assert_eq!(l.node_count(), 3);
        assert_eq!(l.distinct_blocks(), 3);
        assert_eq!(l.stored_blocks(), 6);
        assert_eq!(l.node_blocks(1), &[1, 2]);
        assert_eq!(l.block_locations(0), &[0, 2]);
        assert_eq!(l.max_blocks_per_node(), 2);
        let failed: BTreeSet<usize> = [0].into_iter().collect();
        assert_eq!(l.surviving_blocks(&failed), [0, 1, 2].into_iter().collect());
        assert!(l.fully_lost_blocks(&failed).is_empty());
        let failed2: BTreeSet<usize> = [0, 2].into_iter().collect();
        assert_eq!(l.surviving_blocks(&failed2), [1, 2].into_iter().collect());
        assert_eq!(l.fully_lost_blocks(&failed2), [0].into_iter().collect());
    }

    #[test]
    fn structure_validation_accepts_consistent() {
        simple_structure().validate().unwrap();
    }

    #[test]
    fn structure_validation_rejects_inconsistencies() {
        let mut s = simple_structure();
        s.data_blocks = 3;
        assert!(s.validate().is_err());

        let mut s = simple_structure();
        s.rack_groups = vec![vec![0, 1]];
        assert!(s.validate().is_err());

        let mut s = simple_structure();
        s.rack_groups = vec![vec![0, 1, 2, 3]];
        assert!(s.validate().is_err());

        let mut s = simple_structure();
        // Break systematicity.
        s.generator[(0, 0)] = Gf256::new(2);
        assert!(s.validate().is_err());
    }

    #[test]
    fn decode_from_parity() {
        let s = simple_structure();
        let d0 = vec![1u8, 2, 3];
        let d1 = vec![9u8, 8, 7];
        let parity: Vec<u8> = d0.iter().zip(&d1).map(|(a, b)| a ^ b).collect();
        // Lose data block 0; decode from block 1 and parity.
        let mut available = BTreeMap::new();
        available.insert(1, d1.clone());
        available.insert(2, parity);
        let decoded = s.decode(&available, 3).unwrap();
        assert_eq!(decoded[0], d0);
        assert_eq!(decoded[1], d1);
    }

    #[test]
    fn decode_error_cases() {
        let s = simple_structure();
        let mut available = BTreeMap::new();
        available.insert(1, vec![0u8; 3]);
        assert!(matches!(
            s.decode(&available, 3),
            Err(CodeError::Unrecoverable { .. })
        ));
        let mut bad_len = BTreeMap::new();
        bad_len.insert(0, vec![0u8; 2]);
        bad_len.insert(1, vec![0u8; 3]);
        assert!(matches!(
            s.decode(&bad_len, 3),
            Err(CodeError::UnequalBlockLengths)
        ));
        let mut bad_idx = BTreeMap::new();
        bad_idx.insert(9, vec![0u8; 3]);
        assert!(matches!(
            s.decode(&bad_idx, 3),
            Err(CodeError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn recoverable_from_blocks_rank_check() {
        let s = simple_structure();
        assert!(s.recoverable_from_blocks(&[0, 1].into_iter().collect()));
        assert!(s.recoverable_from_blocks(&[0, 2].into_iter().collect()));
        assert!(s.recoverable_from_blocks(&[1, 2].into_iter().collect()));
        assert!(!s.recoverable_from_blocks(&[2].into_iter().collect()));
        assert!(!s.recoverable_from_blocks(&BTreeSet::new()));
    }

    #[test]
    fn storage_overhead_toy() {
        assert!((simple_structure().storage_overhead() - 1.5).abs() < 1e-12);
    }
}
