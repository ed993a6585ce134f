//! Repair and degraded-read planning.
//!
//! The plans produced here are *descriptions* of the network activity needed
//! to recover lost blocks — which node sends what, whether a node first
//! combines several of its local blocks into a *partial parity* (the key
//! bandwidth-saving trick of the pentagon/heptagon array codes, §2.1 of the
//! paper) — plus the resulting total repair bandwidth in block units. The
//! reliability model uses that bandwidth to derive repair times, and the
//! simulated HDFS layer executes the plans against real block payloads:
//! [`RepairPlan::execute`] / [`ReadPlan::execute`] (`execute.rs`) run the
//! transfers in order against what each node holds and rebuild every
//! fully-lost block at its receiver from exactly what the plan delivered
//! there, so the bytes a repair stores are the bytes its plan moved, and a
//! plan that names a sender without the block is an error, not a price.

use std::collections::BTreeSet;

use crate::layout::NodeLayout;

/// One network transfer performed during repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Stripe-local index of the node sending data.
    pub from_node: usize,
    /// Stripe-local index of the node (or replacement node) receiving data.
    pub to_node: usize,
    /// What is being sent.
    pub payload: TransferPayload,
}

/// The payload of a repair [`Transfer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferPayload {
    /// A verbatim copy of a surviving replica of the given distinct block.
    Replica {
        /// Distinct block being copied.
        block: usize,
    },
    /// A partial parity, one block of bandwidth: the sender's blocks
    /// `combines` weighted by the target's row and summed (an XOR for the
    /// array codes). The partials for a target at a receiver are disjoint.
    PartialParity {
        /// The distinct blocks combined by the sender.
        combines: Vec<usize>,
        /// The fully-lost block this partial parity helps reconstruct.
        target: usize,
    },
    /// A block that was first reconstructed on `to_node`'s peer replacement
    /// and is now forwarded to this replacement (e.g. the doubly-lost block of
    /// a two-node pentagon repair is rebuilt once and then copied).
    Reconstructed {
        /// Distinct block being forwarded.
        block: usize,
    },
}

/// A full plan for repairing a set of failed nodes of one stripe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairPlan {
    /// The stripe-local nodes being repaired.
    pub failed_nodes: Vec<usize>,
    /// Distinct blocks that lost *some* replica (i.e. must be rewritten).
    pub blocks_to_restore: Vec<usize>,
    /// Distinct blocks that lost *every* replica and need reconstruction.
    pub fully_lost_blocks: Vec<usize>,
    /// The network transfers, in execution order.
    pub transfers: Vec<Transfer>,
}

impl RepairPlan {
    /// Total network repair bandwidth, in blocks (the paper's metric).
    pub fn network_blocks(&self) -> usize {
        self.transfers.len()
    }

    /// Number of transfers that are partial parities rather than plain copies.
    pub fn partial_parity_transfers(&self) -> usize {
        self.transfers
            .iter()
            .filter(|t| matches!(t.payload, TransferPayload::PartialParity { .. }))
            .count()
    }
}

impl RepairPlan {
    /// The plan of [`crate::ErasureCode::repair_plan_around`]: `self` was
    /// planned for `repair ∪ unusable`; keep the transfers a `repair` node
    /// receives, with each unusable staging node's rebuild moved to its
    /// successor (the first `repair` node it sends to).
    pub(crate) fn serving(
        self,
        repair: &BTreeSet<usize>,
        unusable: &BTreeSet<usize>,
        layout: &NodeLayout,
    ) -> RepairPlan {
        let successor = |node: usize| {
            self.transfers
                .iter()
                .find(|t| t.from_node == node && repair.contains(&t.to_node))
                .map(|t| t.to_node)
        };
        // The first copy of a block an unusable node stores only restores
        // that node; what else it receives feeds what it rebuilds.
        let mut restored: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut transfers = Vec::new();
        for t in &self.transfers {
            let mut t = t.clone();
            if unusable.contains(&t.to_node) {
                let restores = match t.payload {
                    TransferPayload::Replica { block }
                    | TransferPayload::Reconstructed { block } => {
                        layout.node_blocks(t.to_node).contains(&block)
                            && restored.insert((t.to_node, block))
                    }
                    TransferPayload::PartialParity { .. } => false,
                };
                match successor(t.to_node) {
                    Some(next) if !restores => t.to_node = next,
                    _ => continue,
                }
            }
            if unusable.contains(&t.from_node) {
                if let Some(next) = successor(t.from_node) {
                    t.from_node = next;
                }
            }
            if t.from_node != t.to_node && repair.contains(&t.to_node) {
                transfers.push(t);
            }
        }
        let blocks_to_restore: BTreeSet<usize> = repair
            .iter()
            .flat_map(|&node| layout.node_blocks(node).iter().copied())
            .collect();
        RepairPlan {
            failed_nodes: repair.iter().copied().collect(),
            fully_lost_blocks: self
                .fully_lost_blocks
                .into_iter()
                .filter(|b| blocks_to_restore.contains(b))
                .collect(),
            blocks_to_restore: blocks_to_restore.into_iter().collect(),
            transfers,
        }
    }
}

/// A plan for reading one data block when some nodes are unavailable
/// (a *degraded read*, executed on the fly during a MapReduce job).
///
/// The reader is the stripe-local index one past the stripe's nodes
/// (`node_count()`): every transfer is sent to it. A read of a live replica
/// is one `Replica` transfer; a rebuild is the `PartialParity` transfers of
/// the array codes' fast path or the `Replica` transfers of a full decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    /// The data block (distinct-block index `< k`) being read.
    pub block: usize,
    /// The network transfers to the reader, in execution order.
    pub transfers: Vec<Transfer>,
    /// Number of blocks that must cross the network to serve the read:
    /// always `transfers.len()`. Kept as a field only because the
    /// benchmark's surface reads it (a ROADMAP item 5 (a) leftover).
    pub network_blocks: usize,
}

impl ReadPlan {
    pub(crate) fn new(block: usize, transfers: Vec<Transfer>) -> Self {
        ReadPlan {
            block,
            network_blocks: transfers.len(),
            transfers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_plan_accounting() {
        let plan = RepairPlan {
            failed_nodes: vec![0, 1],
            blocks_to_restore: vec![0, 1, 2],
            fully_lost_blocks: vec![2],
            transfers: vec![
                Transfer {
                    from_node: 2,
                    to_node: 0,
                    payload: TransferPayload::Replica { block: 0 },
                },
                Transfer {
                    from_node: 3,
                    to_node: 0,
                    payload: TransferPayload::PartialParity {
                        combines: vec![1, 3],
                        target: 2,
                    },
                },
                Transfer {
                    from_node: 0,
                    to_node: 1,
                    payload: TransferPayload::Reconstructed { block: 2 },
                },
            ],
        };
        assert_eq!(plan.network_blocks(), 3);
        assert_eq!(plan.partial_parity_transfers(), 1);
        let empty = RepairPlan::default();
        assert_eq!(
            (empty.network_blocks(), empty.partial_parity_transfers()),
            (0, 0)
        );
    }

    #[test]
    fn read_plan_classification() {
        let replica = ReadPlan::new(
            0,
            vec![Transfer {
                from_node: 1,
                to_node: 5,
                payload: TransferPayload::Replica { block: 0 },
            }],
        );
        assert_eq!(replica.network_blocks, 1);
        let degraded = ReadPlan::new(
            0,
            (2..5)
                .map(|from_node| Transfer {
                    from_node,
                    to_node: 5,
                    payload: TransferPayload::PartialParity {
                        combines: vec![from_node],
                        target: 0,
                    },
                })
                .collect(),
        );
        assert_eq!(degraded.network_blocks, 3);
        let partial = |t: &Transfer| matches!(t.payload, TransferPayload::PartialParity { .. });
        assert!(!replica.transfers.iter().any(partial));
        assert!(degraded.transfers.iter().all(partial));
    }
}
