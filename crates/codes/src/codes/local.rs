//! The heptagon-local code: a locally regenerating code built from two
//! disjoint heptagon codes plus a global-parity node (§2.2 of the paper).
//!
//! Forty data blocks are split into two sets of twenty, each encoded by its
//! own heptagon ("local") code on seven nodes. Two additional *global parity*
//! blocks — Galois-field linear combinations of all forty data blocks, as in
//! RAID-6 — are stored on a fifteenth node. One or two failures inside a
//! heptagon are repaired locally; any pattern of three node failures is
//! survivable using the global parities. In a rack-aware deployment the two
//! heptagons and the global-parity node live in three different racks.

use std::collections::BTreeSet;

use drc_gf::{Gf256, Matrix};

use crate::codes::PolygonCode;
use crate::layout::{CodeStructure, NodeLayout};
use crate::repair::{ReadPlan, RepairPlan, Transfer, TransferPayload};
use crate::traits::{generic_degraded_read_plan, generic_repair_plan, validate_nodes};
use crate::{CodeError, ErasureCode};

/// A locally regenerating code: two `K_n` local codes plus a global-parity
/// node.
///
/// `PolygonLocalCode::heptagon_local()` is the paper's heptagon-local code;
/// the construction is generic over the local polygon size and the number of
/// global parities, so smaller instances can be used in tests and
/// experiments.
///
/// # Example
///
/// ```
/// use drc_codes::{ErasureCode, PolygonLocalCode};
///
/// let hl = PolygonLocalCode::heptagon_local();
/// assert_eq!(hl.data_blocks(), 40);
/// assert_eq!(hl.stored_blocks(), 86);
/// assert_eq!(hl.node_count(), 15);
/// assert_eq!(hl.fault_tolerance(), 3);
/// assert!((hl.storage_overhead() - 2.15).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolygonLocalCode {
    local: PolygonCode,
    num_globals: usize,
    structure: CodeStructure,
}

impl PolygonLocalCode {
    /// Creates a local code from two `K_local_n` polygons and `global_parities`
    /// global parity blocks on one extra node.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if the polygon size is invalid,
    /// `global_parities` is zero, or the total data block count exceeds 255
    /// (the global-parity coefficient construction runs out of distinct
    /// non-zero field elements).
    pub fn new(local_n: usize, global_parities: usize) -> Result<Self, CodeError> {
        let local = PolygonCode::new(local_n)?;
        let k_local = local.data_blocks();
        let k = 2 * k_local;
        if global_parities == 0 {
            return Err(CodeError::InvalidParameters {
                code: format!("{local_n}-gon-local"),
                reason: "at least one global parity is required".to_string(),
            });
        }
        if k > 255 {
            return Err(CodeError::InvalidParameters {
                code: format!("{local_n}-gon-local"),
                reason: "too many data blocks for GF(2^8) global parities".to_string(),
            });
        }

        // Distinct-block numbering:
        //   0 .. k_local-1          data of local 0
        //   k_local .. 2k_local-1   data of local 1
        //   2k_local                local XOR parity of local 0
        //   2k_local + 1            local XOR parity of local 1
        //   2k_local + 2 ..         global parities
        let local_parity_base = k;
        let global_base = k + 2;

        // Node layout: local-0 nodes, local-1 nodes, then the global node.
        let n_local_nodes = local.node_count();
        let mut per_node: Vec<Vec<usize>> = Vec::with_capacity(2 * n_local_nodes + 1);
        for instance in 0..2usize {
            for node in 0..n_local_nodes {
                let blocks = local
                    .node_blocks(node)
                    .iter()
                    .map(|&b| Self::map_local_block(b, instance, k_local, local_parity_base))
                    .collect();
                per_node.push(blocks);
            }
        }
        per_node.push((0..global_parities).map(|g| global_base + g).collect());
        let layout = NodeLayout::new(per_node)?;

        // Generator matrix.
        let mut rows: Vec<Vec<u8>> = Vec::with_capacity(k + 2 + global_parities);
        for i in 0..k {
            let mut row = vec![0u8; k];
            row[i] = 1;
            rows.push(row);
        }
        for instance in 0..2usize {
            let mut row = vec![0u8; k];
            for j in 0..k_local {
                row[instance * k_local + j] = 1;
            }
            rows.push(row);
        }
        // Global parity g has coefficient gamma_j^(g+1) on data block j, with
        // gamma_j = j + 1 distinct and non-zero. Together with the all-ones
        // local parity rows this is the classic Vandermonde-style RAID-6
        // construction, which guarantees that any three erased blocks within
        // one local group can be solved for.
        for g in 0..global_parities {
            let row: Vec<u8> = (0..k)
                .map(|j| Gf256::new((j + 1) as u8).pow(g as u32 + 1).value())
                .collect();
            rows.push(row);
        }
        let generator = Matrix::from_rows(&rows).map_err(CodeError::from)?;

        let name = match (local_n, global_parities) {
            (7, 2) => "heptagon-local".to_string(),
            (5, 2) => "pentagon-local".to_string(),
            _ => format!("{local_n}-gon-local({global_parities})"),
        };
        let rack_groups = vec![
            (0..n_local_nodes).collect(),
            (n_local_nodes..2 * n_local_nodes).collect(),
            vec![2 * n_local_nodes],
        ];
        let structure = CodeStructure {
            name,
            data_blocks: k,
            generator,
            layout,
            rack_groups,
        };
        structure.validate()?;
        Ok(PolygonLocalCode {
            local,
            num_globals: global_parities,
            structure,
        })
    }

    /// The paper's heptagon-local code: two heptagons plus two global
    /// parities on a fifteenth node.
    pub fn heptagon_local() -> Self {
        // drc-lint: allow(panic-hygiene): compile-time-constant parameters,
        // exercised by unit tests; a panic here cannot depend on runtime input.
        PolygonLocalCode::new(7, 2).expect("heptagon-local parameters are valid")
    }

    /// Number of global parity blocks.
    pub fn global_parities(&self) -> usize {
        self.num_globals
    }

    /// The stripe-local index of the global-parity node.
    pub fn global_node(&self) -> usize {
        2 * self.local.node_count()
    }

    /// The stripe-local node range `[start, end)` of local instance `0` or `1`.
    ///
    /// # Panics
    ///
    /// Panics if `instance > 1`.
    pub fn local_nodes(&self, instance: usize) -> std::ops::Range<usize> {
        assert!(instance < 2, "local instance must be 0 or 1");
        let n = self.local.node_count();
        instance * n..(instance + 1) * n
    }

    fn map_local_block(
        local_block: usize,
        instance: usize,
        k_local: usize,
        local_parity_base: usize,
    ) -> usize {
        if local_block < k_local {
            instance * k_local + local_block
        } else {
            local_parity_base + instance
        }
    }

    /// Maps a global distinct-block index back to `(instance, local block)`,
    /// or `None` for global parity blocks.
    fn unmap_block(&self, block: usize) -> Option<(usize, usize)> {
        let k_local = self.local.data_blocks();
        let k = 2 * k_local;
        if block < k {
            Some((block / k_local, block % k_local))
        } else if block < k + 2 {
            Some((block - k, self.local.parity_block()))
        } else {
            None
        }
    }

    /// Failure counts per region: `(local 0, local 1, global node)`.
    fn failure_split(&self, failed_nodes: &BTreeSet<usize>) -> (usize, usize, usize) {
        let n = self.local.node_count();
        let mut f = (0usize, 0usize, 0usize);
        for &node in failed_nodes {
            if node < n {
                f.0 += 1;
            } else if node < 2 * n {
                f.1 += 1;
            } else if node == 2 * n {
                f.2 += 1;
            }
        }
        f
    }

    fn lift_block(&self, block: usize, instance: usize) -> usize {
        let k_local = self.local.data_blocks();
        Self::map_local_block(block, instance, k_local, 2 * k_local)
    }

    /// Translates one transfer of the local polygon code for `instance` into
    /// stripe-global node and block indices; the local code's reader (one
    /// past its nodes) is this code's reader.
    fn lift_transfer(&self, t: Transfer, instance: usize) -> Transfer {
        let n_local = self.local.node_count();
        let node = |x: usize| {
            if x == n_local {
                self.node_count()
            } else {
                x + instance * n_local
            }
        };
        let block = |b: usize| self.lift_block(b, instance);
        Transfer {
            from_node: node(t.from_node),
            to_node: node(t.to_node),
            payload: match t.payload {
                TransferPayload::Replica { block: b } => {
                    TransferPayload::Replica { block: block(b) }
                }
                TransferPayload::Reconstructed { block: b } => {
                    TransferPayload::Reconstructed { block: block(b) }
                }
                TransferPayload::PartialParity { combines, target } => {
                    TransferPayload::PartialParity {
                        combines: combines.into_iter().map(block).collect(),
                        target: block(target),
                    }
                }
            },
        }
    }

    /// Transfers that recompute the global parity blocks on a replacement
    /// global node using per-node partial weighted sums ("combine functions").
    fn global_parity_rebuild_transfers(&self, failed_nodes: &BTreeSet<usize>) -> Vec<Transfer> {
        let k = self.data_blocks();
        let k_local = self.local.data_blocks();
        let global_node = self.global_node();
        let layout = &self.structure.layout;
        // Assign every data block to one host (prefer a live one; a fully
        // lost block is assigned to its first failed host, which will have
        // been repaired by the local plan before this step runs).
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); self.node_count()];
        for block in 0..k {
            let hosts = layout.block_locations(block);
            let host = hosts
                .iter()
                .find(|n| !failed_nodes.contains(n))
                .or_else(|| hosts.first())
                .copied()
                // drc-lint: allow(panic-hygiene): `or_else(hosts.first())` makes the chain
                // total for any block stored at all, which NodeLayout::new guarantees.
                .expect("every data block has a host");
            assigned[host].push(block);
        }
        let mut transfers = Vec::new();
        for g in 0..self.num_globals {
            let target = 2 * k_local + 2 + g;
            for (node, blocks) in assigned.iter().enumerate() {
                if blocks.is_empty() || node == global_node {
                    continue;
                }
                transfers.push(Transfer {
                    from_node: node,
                    to_node: global_node,
                    payload: TransferPayload::PartialParity {
                        combines: blocks.clone(),
                        target,
                    },
                });
            }
        }
        transfers
    }
}

impl ErasureCode for PolygonLocalCode {
    fn structure(&self) -> &CodeStructure {
        &self.structure
    }

    fn can_recover(&self, failed_nodes: &BTreeSet<usize>) -> bool {
        if failed_nodes.iter().any(|&n| n >= self.node_count()) {
            // Out-of-range nodes cannot hold stripe data; ignore them.
            let filtered: BTreeSet<usize> = failed_nodes
                .iter()
                .copied()
                .filter(|&n| n < self.node_count())
                .collect();
            return self.can_recover(&filtered);
        }
        let (f1, f2, f3) = self.failure_split(failed_nodes);
        if f1 <= 2 && f2 <= 2 {
            // Each local group repairs itself; global parities can always be
            // recomputed from the data.
            return true;
        }
        // Exactly three failures inside one local group need the global
        // parities (global node alive) and the other local group decodable.
        ((f1 == 3 && f2 <= 2) || (f2 == 3 && f1 <= 2)) && f3 == 0
    }

    fn fault_tolerance(&self) -> usize {
        3
    }

    fn repair_plan(&self, failed_nodes: &BTreeSet<usize>) -> Result<RepairPlan, CodeError> {
        validate_nodes(self, failed_nodes)?;
        if !self.can_recover(failed_nodes) {
            return Err(CodeError::Unrecoverable {
                detail: format!("failure pattern {failed_nodes:?} exceeds the code's tolerance"),
            });
        }
        let (f1, f2, f3) = self.failure_split(failed_nodes);
        // Three failures inside one local group: fall back to a full decode
        // (the generic plan); the common cases are handled locally below.
        if f1 > 2 || f2 > 2 {
            return generic_repair_plan(self, failed_nodes);
        }

        let n_local = self.local.node_count();
        let mut plan = RepairPlan {
            failed_nodes: failed_nodes.iter().copied().collect(),
            ..RepairPlan::default()
        };
        for instance in 0..2usize {
            let local_failed: BTreeSet<usize> = failed_nodes
                .iter()
                .filter(|&&n| self.local_nodes(instance).contains(&n))
                .map(|&n| n - instance * n_local)
                .collect();
            if local_failed.is_empty() {
                continue;
            }
            // The local polygon's plan, in stripe-global indices.
            let local_plan = self.local.repair_plan(&local_failed)?;
            let lift = |b| self.lift_block(b, instance);
            plan.transfers.extend(
                local_plan
                    .transfers
                    .into_iter()
                    .map(|t| self.lift_transfer(t, instance)),
            );
            plan.blocks_to_restore
                .extend(local_plan.blocks_to_restore.into_iter().map(lift));
            plan.fully_lost_blocks
                .extend(local_plan.fully_lost_blocks.into_iter().map(lift));
        }
        if f3 == 1 {
            let k_local = self.local.data_blocks();
            plan.blocks_to_restore
                .extend((0..self.num_globals).map(|g| 2 * k_local + 2 + g));
            plan.fully_lost_blocks
                .extend((0..self.num_globals).map(|g| 2 * k_local + 2 + g));
            plan.transfers
                .extend(self.global_parity_rebuild_transfers(failed_nodes));
        }
        plan.blocks_to_restore.sort_unstable();
        plan.blocks_to_restore.dedup();
        plan.fully_lost_blocks.sort_unstable();
        plan.fully_lost_blocks.dedup();
        Ok(plan)
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
        let (instance, local_block) = self.unmap_block(data_block).ok_or(
            // Unreachable after the bounds check above, but typed: a broken
            // block mapping surfaces as the same out-of-range error.
            CodeError::IndexOutOfRange {
                what: "data block",
                index: data_block,
                limit: self.data_blocks(),
            },
        )?;
        let base = instance * self.local.node_count();
        let hosts = self.structure.layout.block_locations(data_block);
        // Both replicas down and the rest of this local group alive: the
        // local partial-parity path, exactly as the plain heptagon reads it.
        let local_down: BTreeSet<usize> = down_nodes
            .iter()
            .filter(|&&n| self.local_nodes(instance).contains(&n))
            .map(|&n| n - base)
            .collect();
        if hosts.iter().all(|n| down_nodes.contains(n)) && local_down.len() == 2 {
            let local_plan = self.local.degraded_read_plan(local_block, &local_down)?;
            let transfers = local_plan
                .transfers
                .into_iter()
                .map(|t| self.lift_transfer(t, instance))
                .collect();
            return Ok(ReadPlan::new(data_block, transfers));
        }
        // Otherwise a live replica is read remotely, or (three failures in
        // the group, etc.) a full decode uses whatever survives, including
        // the global parities.
        generic_degraded_read_plan(self, data_block, down_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 23 + j * 7 + 11) as u8).collect())
            .collect()
    }

    #[test]
    fn constructor_validation() {
        assert!(PolygonLocalCode::new(7, 0).is_err());
        assert!(PolygonLocalCode::new(2, 2).is_err());
        assert!(PolygonLocalCode::new(5, 2).is_ok());
        // 23-gon local would have 2*252 = 504 data blocks > 255.
        assert!(PolygonLocalCode::new(23, 2).is_err());
    }

    #[test]
    fn heptagon_local_parameters_match_paper() {
        let hl = PolygonLocalCode::heptagon_local();
        assert_eq!(hl.name(), "heptagon-local");
        assert_eq!(hl.data_blocks(), 40);
        assert_eq!(hl.distinct_blocks(), 44);
        assert_eq!(hl.stored_blocks(), 86);
        assert_eq!(hl.node_count(), 15);
        assert!((hl.storage_overhead() - 2.15).abs() < 1e-12);
        assert_eq!(hl.global_parities(), 2);
        assert_eq!(hl.global_node(), 14);
        assert_eq!(hl.local_nodes(0), 0..7);
        assert_eq!(hl.local_nodes(1), 7..14);
        // Three rack groups: the two heptagons and the global node.
        assert_eq!(hl.rack_groups().len(), 3);
        // Each heptagon node stores 6 blocks; the global node stores 2.
        for node in 0..14 {
            assert_eq!(hl.node_blocks(node).len(), 6);
        }
        assert_eq!(hl.node_blocks(14).len(), 2);
    }

    #[test]
    fn encode_structure() {
        let hl = PolygonLocalCode::heptagon_local();
        let data = sample_data(40, 8);
        let coded = hl.encode(&data).unwrap();
        assert_eq!(coded.len(), 44);
        // Local parities are XORs of their half of the data.
        assert_eq!(coded[40], drc_gf::slice::xor_all(&data[..20]));
        assert_eq!(coded[41], drc_gf::slice::xor_all(&data[20..]));
        // Global parities differ from each other and from the local parities.
        assert_ne!(coded[42], coded[43]);
    }

    #[test]
    fn any_three_node_failures_recoverable() {
        // The defining property from §2.2: "The heptagon-local code can
        // recover from any pattern of 3 node erasures."
        let hl = PolygonLocalCode::heptagon_local();
        let n = hl.node_count();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let failed: BTreeSet<usize> = [a, b, c].into_iter().collect();
                    assert!(
                        hl.can_recover(&failed),
                        "pattern {{{a},{b},{c}}} must be recoverable"
                    );
                    // Cross-check the combinatorial shortcut against the
                    // generic rank computation.
                    let surviving = hl.structure().layout.surviving_blocks(&failed);
                    assert!(
                        hl.structure().recoverable_from_blocks(&surviving),
                        "rank check disagrees for {{{a},{b},{c}}}"
                    );
                }
            }
        }
        assert_eq!(hl.fault_tolerance(), 3);
    }

    #[test]
    fn can_recover_matches_rank_for_four_failures() {
        let hl = PolygonLocalCode::heptagon_local();
        let n = hl.node_count();
        // Sample a deterministic subset of 4-node patterns and compare the
        // combinatorial rule with the rank-based ground truth.
        let mut checked = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    for d in (c + 1)..n {
                        if (a + 2 * b + 3 * c + 5 * d) % 7 != 0 {
                            continue;
                        }
                        let failed: BTreeSet<usize> = [a, b, c, d].into_iter().collect();
                        let surviving = hl.structure().layout.surviving_blocks(&failed);
                        assert_eq!(
                            hl.can_recover(&failed),
                            hl.structure().recoverable_from_blocks(&surviving),
                            "mismatch for {{{a},{b},{c},{d}}}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100, "expected to check a meaningful sample");
    }

    #[test]
    fn four_failures_in_one_heptagon_are_fatal() {
        let hl = PolygonLocalCode::heptagon_local();
        let failed: BTreeSet<usize> = [0, 1, 2, 3].into_iter().collect();
        assert!(!hl.can_recover(&failed));
        assert!(hl.repair_plan(&failed).is_err());
        // Three in one heptagon plus the global node is also fatal.
        let failed: BTreeSet<usize> = [0, 1, 2, 14].into_iter().collect();
        assert!(!hl.can_recover(&failed));
    }

    #[test]
    fn decode_with_three_failures_in_one_heptagon() {
        let hl = PolygonLocalCode::heptagon_local();
        let data = sample_data(40, 16);
        let coded = hl.encode(&data).unwrap();
        for failed_set in [[0usize, 1, 2], [4, 5, 6], [7, 8, 13]] {
            let failed: BTreeSet<usize> = failed_set.into_iter().collect();
            let mut available = BTreeMap::new();
            for node in 0..hl.node_count() {
                if failed.contains(&node) {
                    continue;
                }
                for &b in hl.node_blocks(node) {
                    available.insert(b, coded[b].clone());
                }
            }
            let decoded = hl.decode(&available, 16).unwrap();
            assert_eq!(decoded, data, "decode failed for {failed_set:?}");
        }
    }

    #[test]
    fn local_failures_repair_locally() {
        let hl = PolygonLocalCode::heptagon_local();
        // One failure in heptagon 0: repair-by-transfer of 6 blocks, all from
        // within the same heptagon.
        let plan = hl.repair_plan(&[3].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks(), 6);
        assert!(plan.transfers.iter().all(|t| (0..7).contains(&t.from_node)));
        // Two failures in heptagon 1: same cost as the plain heptagon (16).
        let plan = hl.repair_plan(&[8, 12].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks(), 16);
        assert!(plan
            .transfers
            .iter()
            .all(|t| (7..14).contains(&t.from_node) || (7..14).contains(&t.to_node)));
        // Failures in both heptagons are handled independently.
        let plan = hl.repair_plan(&[0, 9].into_iter().collect()).unwrap();
        assert_eq!(plan.network_blocks(), 12);
    }

    #[test]
    fn global_node_repair_uses_partial_sums() {
        let hl = PolygonLocalCode::heptagon_local();
        let plan = hl.repair_plan(&[14].into_iter().collect()).unwrap();
        // Every transfer is a partial weighted sum destined for the global node.
        assert!(
            plan.transfers
                .iter()
                .all(|t| t.to_node == 14
                    && matches!(t.payload, TransferPayload::PartialParity { .. }))
        );
        // Each contributing node sends one partial weighted sum per global
        // parity; the total stays well below the 40 blocks a naive re-encode
        // would move.
        assert!(plan.network_blocks() < 40);
        assert_eq!(plan.network_blocks() % 2, 0);
        assert_eq!(plan.fully_lost_blocks, vec![42, 43]);
    }

    #[test]
    fn degraded_read_plans() {
        let hl = PolygonLocalCode::heptagon_local();
        // Data block 25 lives in heptagon 1; find its two hosts.
        let hosts: Vec<usize> = hl.block_locations(25).to_vec();
        assert_eq!(hosts.len(), 2);
        assert!(hosts.iter().all(|&h| (7..14).contains(&h)));
        // One host down: remote replica read.
        let plan = hl
            .degraded_read_plan(25, &[hosts[0]].into_iter().collect())
            .unwrap();
        assert_eq!(plan.network_blocks, 1);
        // Both hosts down: 5 partial parities from the rest of the heptagon.
        let plan = hl
            .degraded_read_plan(25, &hosts.iter().copied().collect())
            .unwrap();
        assert_eq!(plan.network_blocks, 5);
        let partial = |t: &Transfer| matches!(t.payload, TransferPayload::PartialParity { .. });
        assert!(plan.transfers.iter().all(|t| partial(t) && t.to_node == 15));
        // Three nodes of the heptagon down (including both hosts): full decode.
        let mut down: BTreeSet<usize> = hosts.iter().copied().collect();
        let extra = (7..14).find(|n| !down.contains(n)).unwrap();
        down.insert(extra);
        let plan = hl.degraded_read_plan(25, &down).unwrap();
        assert!(!plan.transfers.iter().any(partial));
        assert!(plan.network_blocks >= 20);
    }

    #[test]
    fn out_of_range_inputs_rejected() {
        let hl = PolygonLocalCode::heptagon_local();
        assert!(hl.repair_plan(&[15].into_iter().collect()).is_err());
        assert!(hl.degraded_read_plan(40, &BTreeSet::new()).is_err());
    }

    #[test]
    fn smaller_instance_pentagon_local() {
        let pl = PolygonLocalCode::new(5, 2).unwrap();
        assert_eq!(pl.name(), "pentagon-local");
        assert_eq!(pl.data_blocks(), 18);
        assert_eq!(pl.node_count(), 11);
        assert_eq!(pl.fault_tolerance(), 3);
        let data = sample_data(18, 8);
        let coded = pl.encode(&data).unwrap();
        let failed: BTreeSet<usize> = [0, 1, 2].into_iter().collect();
        let mut available = BTreeMap::new();
        for node in 0..pl.node_count() {
            if failed.contains(&node) {
                continue;
            }
            for &b in pl.node_blocks(node) {
                available.insert(b, coded[b].clone());
            }
        }
        assert_eq!(pl.decode(&available, 8).unwrap(), data);
    }
}
