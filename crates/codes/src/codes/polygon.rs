//! The pentagon / heptagon family: repair-by-transfer MBR codes with
//! inherent double replication (§2.1 of the paper).
//!
//! For `n` nodes, take the complete graph `K_n` with its `B = n(n-1)/2`
//! edges. The stripe holds `B` distinct blocks — `B - 1` data blocks plus one
//! XOR parity of all the data blocks — one per edge, and every node stores
//! the blocks of the edges incident to it. Each distinct block therefore has
//! exactly two replicas (the two endpoints of its edge), and each node stores
//! `n - 1` blocks of the same stripe (the *array-code* property that causes
//! the locality loss studied in §3.2).
//!
//! The pentagon code is `n = 5` (9 data blocks → 20 stored blocks), the
//! heptagon code is `n = 7` (20 data blocks → 42 stored blocks).

use std::collections::BTreeSet;

use drc_gf::Matrix;

use crate::layout::{CodeStructure, NodeLayout};
use crate::repair::{ReadPlan, ReadSource, RepairPlan, Transfer, TransferPayload};
use crate::traits::{generic_degraded_read_plan, generic_repair_plan};
use crate::{CodeError, ErasureCode};

/// A repair-by-transfer MBR code on the complete graph `K_n`.
///
/// # Example
///
/// ```
/// use drc_codes::{ErasureCode, PolygonCode};
///
/// let pentagon = PolygonCode::pentagon();
/// assert_eq!(pentagon.data_blocks(), 9);
/// assert_eq!(pentagon.stored_blocks(), 20);
/// assert_eq!(pentagon.node_count(), 5);
/// assert_eq!(pentagon.fault_tolerance(), 2);
/// // Two-node repair costs 10 block transfers thanks to partial parities.
/// let plan = pentagon.repair_plan(&[0, 1].into_iter().collect()).unwrap();
/// assert_eq!(plan.network_blocks(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolygonCode {
    n: usize,
    /// `edges[b] = (u, v)` with `u < v`: the edge hosting distinct block `b`.
    edges: Vec<(usize, usize)>,
    structure: CodeStructure,
}

impl PolygonCode {
    /// Creates the `K_n` code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `n < 3` (the construction
    /// needs at least a triangle) or `n` is too large for the block indices
    /// to stay within GF(2^8)-sized matrices used elsewhere (`n > 23`,
    /// i.e. more than 253 distinct blocks).
    pub fn new(n: usize) -> Result<Self, CodeError> {
        if !(3..=23).contains(&n) {
            return Err(CodeError::InvalidParameters {
                code: format!("{n}-gon"),
                reason: "polygon codes require 3 <= n <= 23 nodes".to_string(),
            });
        }
        // Enumerate edges with the parity edge LAST so that distinct blocks
        // 0..k-1 are the data blocks and block k is the XOR parity
        // (keeps the code systematic).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        // `edges` is lexicographic; the last edge is (n-2, n-1) and hosts the parity.
        let total_blocks = edges.len();
        let k = total_blocks - 1;

        // Layout: node v stores the blocks of edges incident to v.
        let mut per_node = vec![Vec::new(); n];
        for (block, &(u, v)) in edges.iter().enumerate() {
            per_node[u].push(block);
            per_node[v].push(block);
        }
        let layout = NodeLayout::new(per_node)?;

        // Generator: identity for data blocks, all-ones row for the parity.
        let parity_row = Matrix::from_rows(&[vec![1u8; k]]).map_err(CodeError::from)?;
        let generator = Matrix::identity(k)
            .stack(&parity_row)
            .map_err(CodeError::from)?;

        let name = match n {
            5 => "pentagon".to_string(),
            7 => "heptagon".to_string(),
            _ => format!("{n}-gon"),
        };
        let structure = CodeStructure {
            name,
            data_blocks: k,
            generator,
            layout,
            rack_groups: vec![(0..n).collect()],
        };
        structure.validate()?;
        Ok(PolygonCode {
            n,
            edges,
            structure,
        })
    }

    /// The pentagon code: 9 data blocks over 5 nodes (§2.1).
    pub fn pentagon() -> Self {
        // drc-lint: allow(panic-hygiene): compile-time-constant parameters,
        // exercised by unit tests; a panic here cannot depend on runtime input.
        PolygonCode::new(5).expect("pentagon parameters are valid")
    }

    /// The heptagon code: 20 data blocks over 7 nodes (§2.2).
    pub fn heptagon() -> Self {
        // drc-lint: allow(panic-hygiene): compile-time-constant parameters,
        // exercised by unit tests; a panic here cannot depend on runtime input.
        PolygonCode::new(7).expect("heptagon parameters are valid")
    }

    /// The number of graph vertices (= nodes) `n`.
    pub fn vertices(&self) -> usize {
        self.n
    }

    /// The distinct-block index of the XOR parity block.
    pub fn parity_block(&self) -> usize {
        self.edges.len() - 1
    }

    /// Builds the partial-parity transfers that reconstruct the doubly-lost
    /// block on `target_edge = (u, v)` at node `staging`, assuming every node
    /// other than `u` and `v` is alive.
    ///
    /// Every surviving node XORs the subset of its local blocks assigned to
    /// it (each block of the stripe other than the target is assigned to
    /// exactly one surviving holder), so the XOR of all partial parities
    /// equals the lost block — `n - 2` one-block transfers in total.
    fn partial_parity_transfers(
        &self,
        target_edge: (usize, usize),
        target_block: usize,
        staging: usize,
    ) -> Vec<Transfer> {
        let (u, v) = target_edge;
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for (block, &(a, b)) in self.edges.iter().enumerate() {
            if block == target_block {
                continue;
            }
            // Assign the block to one surviving endpoint (prefer the smaller).
            let holder = if a != u && a != v { a } else { b };
            debug_assert!(holder != u && holder != v);
            assigned[holder].push(block);
        }
        assigned
            .iter()
            .enumerate()
            .filter(|(node, blocks)| *node != u && *node != v && !blocks.is_empty())
            .map(|(node, blocks)| Transfer {
                from_node: node,
                to_node: staging,
                payload: TransferPayload::PartialParity {
                    combines: blocks.clone(),
                    target: target_block,
                },
            })
            .collect()
    }
}

impl ErasureCode for PolygonCode {
    fn structure(&self) -> &CodeStructure {
        &self.structure
    }

    fn can_recover(&self, failed_nodes: &BTreeSet<usize>) -> bool {
        // Losing f nodes destroys both replicas of the C(f, 2) edges between
        // them; the single XOR parity equation can reconstruct at most one.
        failed_nodes.iter().filter(|&&x| x < self.n).count() <= 2
    }

    fn fault_tolerance(&self) -> usize {
        2
    }

    fn repair_plan(&self, failed_nodes: &BTreeSet<usize>) -> Result<RepairPlan, CodeError> {
        if failed_nodes.iter().any(|&x| x >= self.n) {
            return Err(CodeError::IndexOutOfRange {
                what: "node",
                index: *failed_nodes
                    .iter()
                    .find(|&&x| x >= self.n)
                    // drc-lint: allow(panic-hygiene): this error arm is only entered when
                    // a failed node >= n exists, so the find cannot come up empty.
                    .expect("checked"),
                limit: self.n,
            });
        }
        match failed_nodes.len() {
            0 => Ok(RepairPlan::default()),
            // Single failure: repair-by-transfer — copy each of the n-1 blocks
            // from the surviving endpoint of its edge.
            1 => generic_repair_plan(self, failed_nodes),
            2 => {
                let mut it = failed_nodes.iter();
                // drc-lint: allow(panic-hygiene): this match arm fires only
                // when failed_nodes.len() == 2.
                let u = *it.next().expect("two failed nodes");
                // drc-lint: allow(panic-hygiene): same len() == 2 match arm.
                let v = *it.next().expect("two failed nodes");
                let layout = &self.structure.layout;
                let mut transfers = Vec::new();
                let mut blocks_to_restore = BTreeSet::new();

                // Blocks with a surviving replica: copy from the live endpoint.
                for &node in failed_nodes {
                    for &block in layout.node_blocks(node) {
                        blocks_to_restore.insert(block);
                        let (a, b) = self.edges[block];
                        let other = if a == node { b } else { a };
                        if failed_nodes.contains(&other) {
                            continue; // the doubly-lost edge (u, v)
                        }
                        transfers.push(Transfer {
                            from_node: other,
                            to_node: node,
                            payload: TransferPayload::Replica { block },
                        });
                    }
                }
                // The doubly-lost block on edge (u, v): rebuild at u from
                // partial parities, then forward the rebuilt block to v.
                let target_block = self
                    .edges
                    .iter()
                    .position(|&e| e == (u.min(v), u.max(v)))
                    // drc-lint: allow(panic-hygiene): the layout enumerates
                    // every edge of K_n, and u, v < n are validated above.
                    .expect("edge (u, v) exists in K_n");
                transfers.extend(self.partial_parity_transfers((u, v), target_block, u));
                transfers.push(Transfer {
                    from_node: u,
                    to_node: v,
                    payload: TransferPayload::Reconstructed {
                        block: target_block,
                    },
                });

                Ok(RepairPlan {
                    failed_nodes: vec![u, v],
                    blocks_to_restore: blocks_to_restore.into_iter().collect(),
                    fully_lost_blocks: vec![target_block],
                    transfers,
                })
            }
            _ => Err(CodeError::Unrecoverable {
                detail: format!(
                    "{} simultaneous node failures exceed the {}-gon's tolerance of 2",
                    failed_nodes.len(),
                    self.n
                ),
            }),
        }
    }

    fn degraded_read_plan(
        &self,
        data_block: usize,
        down_nodes: &BTreeSet<usize>,
    ) -> Result<ReadPlan, CodeError> {
        if data_block >= self.data_blocks() {
            return Err(CodeError::IndexOutOfRange {
                what: "data block",
                index: data_block,
                limit: self.data_blocks(),
            });
        }
        let (u, v) = self.edges[data_block];
        let u_down = down_nodes.contains(&u);
        let v_down = down_nodes.contains(&v);
        if !u_down || !v_down {
            // A replica is still reachable — one remote block.
            let node = if !u_down { u } else { v };
            return Ok(ReadPlan {
                block: data_block,
                source: ReadSource::Remote { node },
                network_blocks: 1,
            });
        }
        // Both replicas down. If every other node of the stripe is alive we
        // can use the partial-parity fast path: n - 2 helper blocks.
        let others_alive = (0..self.n)
            .filter(|x| *x != u && *x != v)
            .all(|x| !down_nodes.contains(&x));
        if others_alive {
            let helpers: Vec<usize> = (0..self.n).filter(|x| *x != u && *x != v).collect();
            return Ok(ReadPlan {
                block: data_block,
                source: ReadSource::PartialParities {
                    helpers: helpers.clone(),
                },
                network_blocks: helpers.len(),
            });
        }
        // More than two nodes down: fall back to the generic path (which will
        // report unrecoverability, since the code only tolerates 2 failures).
        generic_degraded_read_plan(self, data_block, down_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 41 + j * 13 + 3) as u8).collect())
            .collect()
    }

    #[test]
    fn constructor_validation() {
        assert!(PolygonCode::new(2).is_err());
        assert!(PolygonCode::new(24).is_err());
        assert!(PolygonCode::new(3).is_ok());
        assert!(PolygonCode::new(23).is_ok());
    }

    #[test]
    fn pentagon_parameters_match_paper() {
        let p = PolygonCode::pentagon();
        assert_eq!(p.name(), "pentagon");
        assert_eq!(p.data_blocks(), 9);
        assert_eq!(p.distinct_blocks(), 10);
        assert_eq!(p.stored_blocks(), 20);
        assert_eq!(p.node_count(), 5);
        assert!((p.storage_overhead() - 20.0 / 9.0).abs() < 1e-12);
        // 4 blocks per node, each block replicated exactly twice.
        for node in 0..5 {
            assert_eq!(p.node_blocks(node).len(), 4);
        }
        for block in 0..10 {
            assert_eq!(p.block_locations(block).len(), 2);
        }
    }

    #[test]
    fn heptagon_parameters_match_paper() {
        let h = PolygonCode::heptagon();
        assert_eq!(h.name(), "heptagon");
        assert_eq!(h.data_blocks(), 20);
        assert_eq!(h.distinct_blocks(), 21);
        assert_eq!(h.stored_blocks(), 42);
        assert_eq!(h.node_count(), 7);
        assert!((h.storage_overhead() - 2.1).abs() < 1e-12);
        for node in 0..7 {
            assert_eq!(h.node_blocks(node).len(), 6);
        }
    }

    #[test]
    fn encode_parity_is_xor_of_data() {
        let p = PolygonCode::pentagon();
        let data = sample_data(9, 64);
        let coded = p.encode(&data).unwrap();
        assert_eq!(coded.len(), 10);
        assert_eq!(&coded[..9], data.as_slice());
        assert_eq!(coded[9], drc_gf::slice::xor_all(&data));
    }

    #[test]
    fn encode_into_matches_encode() {
        for poly in [PolygonCode::pentagon(), PolygonCode::heptagon()] {
            let k = poly.data_blocks();
            let data = sample_data(k, 48);
            let coded = poly.encode(&data).unwrap();
            let mut parities = vec![vec![0u8; 48]];
            poly.encode_into(&data, &mut parities).unwrap();
            assert_eq!(parities[0], coded[k], "XOR parity via the fused path");
        }
    }

    #[test]
    fn any_three_nodes_recover_pentagon_data() {
        // The paper: "the contents of any 3 nodes suffice to recover all 9
        // data blocks".
        let p = PolygonCode::pentagon();
        let data = sample_data(9, 32);
        let coded = p.encode(&data).unwrap();
        for a in 0..5usize {
            for b in (a + 1)..5 {
                let failed: BTreeSet<usize> = [a, b].into_iter().collect();
                assert!(p.can_recover(&failed));
                let mut available = BTreeMap::new();
                for node in 0..5 {
                    if failed.contains(&node) {
                        continue;
                    }
                    for &block in p.node_blocks(node) {
                        available.insert(block, coded[block].clone());
                    }
                }
                let decoded = p.decode(&available, 32).unwrap();
                assert_eq!(decoded, data, "failed for erasure {{{a},{b}}}");
            }
        }
    }

    #[test]
    fn three_node_loss_is_fatal() {
        let p = PolygonCode::pentagon();
        let failed: BTreeSet<usize> = [0, 1, 2].into_iter().collect();
        assert!(!p.can_recover(&failed));
        assert!(p.repair_plan(&failed).is_err());
        assert_eq!(p.fault_tolerance(), 2);
        assert_eq!(PolygonCode::heptagon().fault_tolerance(), 2);
    }

    #[test]
    fn single_node_repair_is_repair_by_transfer() {
        let p = PolygonCode::pentagon();
        for node in 0..5 {
            let plan = p.repair_plan(&[node].into_iter().collect()).unwrap();
            // n - 1 = 4 plain copies, no reconstruction needed.
            assert_eq!(plan.network_blocks(), 4);
            assert_eq!(plan.partial_parity_transfers(), 0);
            assert!(plan.fully_lost_blocks.is_empty());
            assert!(plan
                .transfers
                .iter()
                .all(|t| matches!(t.payload, TransferPayload::Replica { .. })));
        }
        assert_eq!(p.single_node_repair_blocks(), 4.0);
        assert_eq!(PolygonCode::heptagon().single_node_repair_blocks(), 6.0);
    }

    #[test]
    fn two_node_repair_bandwidth_matches_paper() {
        // Paper §2.1: repairing two pentagon nodes costs 10 block transfers.
        let p = PolygonCode::pentagon();
        for a in 0..5usize {
            for b in (a + 1)..5 {
                let plan = p.repair_plan(&[a, b].into_iter().collect()).unwrap();
                assert_eq!(plan.network_blocks(), 10, "pair ({a},{b})");
                assert_eq!(plan.partial_parity_transfers(), 3);
                assert_eq!(plan.fully_lost_blocks.len(), 1);
            }
        }
        // Heptagon: 3n - 5 = 16.
        let h = PolygonCode::heptagon();
        let plan = h.repair_plan(&[2, 5].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks(), 16);
        assert_eq!(plan.partial_parity_transfers(), 5);
    }

    #[test]
    fn partial_parities_reconstruct_the_lost_block() {
        // Execute the partial-parity plan against real payloads and check the
        // XOR of the helpers' contributions equals the doubly-lost block.
        let p = PolygonCode::pentagon();
        let data = sample_data(9, 16);
        let coded = p.encode(&data).unwrap();
        let plan = p.repair_plan(&[0, 1].into_iter().collect()).unwrap();
        let target = plan.fully_lost_blocks[0];
        let mut acc = vec![0u8; 16];
        for t in &plan.transfers {
            if let TransferPayload::PartialParity {
                combines,
                target: tgt,
            } = &t.payload
            {
                assert_eq!(*tgt, target);
                // The sender must actually host every block it combines.
                for b in combines {
                    assert!(p.node_blocks(t.from_node).contains(b));
                }
                let partial = drc_gf::slice::xor_all(
                    &combines
                        .iter()
                        .map(|&b| coded[b].clone())
                        .collect::<Vec<_>>(),
                );
                drc_gf::slice::xor_assign(&mut acc, &partial);
            }
        }
        assert_eq!(acc, coded[target]);
    }

    #[test]
    fn degraded_read_costs_match_paper() {
        let p = PolygonCode::pentagon();
        // Both replicas of data block 0 (edge (0,1)) down: 3 partial parities.
        let plan = p
            .degraded_read_plan(0, &[0, 1].into_iter().collect())
            .unwrap();
        assert_eq!(plan.network_blocks, 3);
        assert!(
            matches!(plan.source, ReadSource::PartialParities { ref helpers } if helpers.len() == 3)
        );
        // One replica alive: a single remote read.
        let plan = p.degraded_read_plan(0, &[0].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks, 1);
        // Heptagon: 5 partial parities.
        let h = PolygonCode::heptagon();
        let plan = h
            .degraded_read_plan(0, &[0, 1].into_iter().collect())
            .unwrap();
        assert_eq!(plan.network_blocks, 5);
    }

    #[test]
    fn degraded_read_with_three_down_nodes_fails() {
        let p = PolygonCode::pentagon();
        assert!(p
            .degraded_read_plan(0, &[0, 1, 2].into_iter().collect())
            .is_err());
    }

    #[test]
    fn invalid_indices_rejected() {
        let p = PolygonCode::pentagon();
        assert!(p.repair_plan(&[7].into_iter().collect()).is_err());
        assert!(p.degraded_read_plan(42, &BTreeSet::new()).is_err());
    }

    #[test]
    fn parity_sits_on_the_last_edge() {
        let h = PolygonCode::heptagon();
        assert_eq!(h.parity_block(), 20);
        assert_eq!(h.block_locations(h.parity_block()), &[5, 6]);
        assert_eq!(h.vertices(), 7);
    }

    #[test]
    fn fatal_pattern_counts_pentagon() {
        let p = PolygonCode::pentagon();
        assert_eq!(p.count_fatal_patterns(2), (0, 10));
        assert_eq!(p.count_fatal_patterns(3), (10, 10));
    }

    #[test]
    fn empty_failure_set_is_noop_repair() {
        let p = PolygonCode::pentagon();
        let plan = p.repair_plan(&BTreeSet::new()).unwrap();
        assert_eq!(plan.network_blocks(), 0);
    }
}
