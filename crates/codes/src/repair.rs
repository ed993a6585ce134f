//! Repair and degraded-read planning.
//!
//! The plans produced here are *descriptions* of the network activity needed
//! to recover lost blocks — which node sends what, whether a node first
//! combines several of its local blocks into a *partial parity* (the key
//! bandwidth-saving trick of the pentagon/heptagon array codes, §2.1 of the
//! paper) — plus the resulting total repair bandwidth in block units. The
//! simulated HDFS layer executes these plans against real block payloads, and
//! the reliability model uses their bandwidth to derive repair times.

use serde::{Deserialize, Serialize};

use drc_gf::{slice, Gf256};

/// One network transfer performed during repair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// Stripe-local index of the node sending data.
    pub from_node: usize,
    /// Stripe-local index of the node (or replacement node) receiving data.
    pub to_node: usize,
    /// What is being sent.
    pub payload: TransferPayload,
}

/// The payload of a repair [`Transfer`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferPayload {
    /// A verbatim copy of a surviving replica of the given distinct block.
    Replica {
        /// Distinct block being copied.
        block: usize,
    },
    /// A partial parity: the XOR (or GF-linear combination) of several blocks
    /// held locally by the sending node, occupying one block of bandwidth.
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
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
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

/// Computes the payload of a [`TransferPayload::PartialParity`] transfer
/// into a caller-owned buffer.
///
/// A helper node rebuilding distinct block `t` sends the GF-weighted partial
/// sum of the data blocks it holds: `out = sum_j target_row[combines[j]] *
/// payloads[j]`, where `target_row` is row `t` of the code's generator
/// matrix. For the pentagon/heptagon XOR parities every weight is 1 and this
/// degenerates to the plain XOR of §2.1; for the heptagon-local global
/// parities the weights are the RAID-6-style coefficients of §2.2.
///
/// The combination bottoms out in [`slice::linear_combination_into`]; the
/// coefficient lookup stays on the stack for every realistic stripe width,
/// keeping the path free of heap allocation.
///
/// # Panics
///
/// Panics if `combines` and `payloads` have different lengths, any combined
/// index has no column in `target_row`, or payload lengths differ from
/// `out.len()`.
pub fn combine_partial_parity_into(
    target_row: &[Gf256],
    combines: &[usize],
    payloads: &[&[u8]],
    out: &mut [u8],
) {
    assert_eq!(
        combines.len(),
        payloads.len(),
        "one payload per combined block is required"
    );
    // Widest real stripe: heptagon-local with 44 distinct blocks.
    const STACK_COEFFS: usize = 64;
    if combines.len() <= STACK_COEFFS {
        let mut coeffs = [Gf256::ZERO; STACK_COEFFS];
        for (c, &block) in coeffs.iter_mut().zip(combines) {
            *c = target_row[block];
        }
        slice::linear_combination_into(&coeffs[..combines.len()], payloads, out);
    } else {
        let coeffs: Vec<Gf256> = combines.iter().map(|&b| target_row[b]).collect();
        slice::linear_combination_into(&coeffs, payloads, out);
    }
}

/// A plan for reading one data block when some nodes are unavailable
/// (a *degraded read*, executed on the fly during a MapReduce job).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadPlan {
    /// The data block (distinct-block index `< k`) being read.
    pub block: usize,
    /// How the block is obtained.
    pub source: ReadSource,
    /// Number of blocks that must cross the network to serve the read.
    /// Zero when a replica is available on the reading node itself.
    pub network_blocks: usize,
}

/// How a (possibly degraded) read obtains its block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadSource {
    /// A live replica exists on the reading node; no network traffic.
    Local {
        /// The node that already holds the block.
        node: usize,
    },
    /// A live replica is fetched from another node.
    Remote {
        /// The node the replica is fetched from.
        node: usize,
    },
    /// No live replica exists; the block is rebuilt from partial parities
    /// contributed by the listed helper nodes (array-code fast path).
    PartialParities {
        /// The nodes contributing one partial-parity block each.
        helpers: Vec<usize>,
    },
    /// No live replica exists; the block is rebuilt by a full decode that
    /// fetches the listed distinct blocks from the listed nodes.
    Decode {
        /// `(node, distinct block)` pairs fetched for the decode.
        fetches: Vec<(usize, usize)>,
    },
}

impl ReadPlan {
    /// Returns `true` if the read required no reconstruction (a replica was
    /// available somewhere).
    pub fn is_replica_read(&self) -> bool {
        matches!(
            self.source,
            ReadSource::Local { .. } | ReadSource::Remote { .. }
        )
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
    }

    #[test]
    fn default_plan_is_empty() {
        let plan = RepairPlan::default();
        assert_eq!(plan.network_blocks(), 0);
        assert_eq!(plan.partial_parity_transfers(), 0);
    }

    #[test]
    fn read_plan_classification() {
        let local = ReadPlan {
            block: 0,
            source: ReadSource::Local { node: 1 },
            network_blocks: 0,
        };
        assert!(local.is_replica_read());
        let degraded = ReadPlan {
            block: 0,
            source: ReadSource::PartialParities {
                helpers: vec![2, 3, 4],
            },
            network_blocks: 3,
        };
        assert!(!degraded.is_replica_read());
    }
}
