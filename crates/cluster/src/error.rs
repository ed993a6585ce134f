use std::fmt;

/// Errors produced by cluster topology and placement operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// A node id does not exist in the cluster.
    UnknownNode {
        /// The offending node index.
        node: usize,
    },
    /// The cluster has too few (up) nodes to place a stripe of the code.
    InsufficientNodes {
        /// Nodes required by one stripe of the code (its code length).
        needed: usize,
        /// Nodes available in the cluster.
        available: usize,
    },
    /// A block id does not exist in a placement (stripe or stripe-local
    /// block index out of range).
    UnknownBlock {
        /// Stripe index of the offending block id.
        stripe: usize,
        /// Stripe-local distinct-block index of the offending block id.
        block: usize,
    },
    /// A placement request was invalid (e.g. zero stripes).
    InvalidPlacement {
        /// Explanation of the problem.
        reason: String,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode { node } => write!(f, "unknown node {node}"),
            ClusterError::InsufficientNodes { needed, available } => write!(
                f,
                "stripe needs {needed} nodes but only {available} are available"
            ),
            ClusterError::UnknownBlock { stripe, block } => {
                write!(f, "unknown block (stripe {stripe}, block {block})")
            }
            ClusterError::InvalidPlacement { reason } => write!(f, "invalid placement: {reason}"),
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            ClusterError::UnknownNode { node: 3 },
            ClusterError::InsufficientNodes {
                needed: 20,
                available: 9,
            },
            ClusterError::UnknownBlock {
                stripe: 99,
                block: 1,
            },
            ClusterError::InvalidPlacement {
                reason: "zero stripes".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
