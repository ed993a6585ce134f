//! Runtime cluster state: node identities, rack membership and liveness.

use std::collections::BTreeSet;
use std::fmt;

use crate::spec::ClusterSpec;
use crate::ClusterError;

/// Identifier of a data node within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a rack within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(pub usize);

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// A cluster instance: a [`ClusterSpec`] plus per-node runtime state
/// (rack assignment and liveness).
///
/// # Example
///
/// ```
/// use drc_cluster::{Cluster, ClusterSpec, NodeId};
///
/// let mut cluster = Cluster::new(ClusterSpec::setup1());
/// assert_eq!(cluster.len(), 25);
/// cluster.set_down(NodeId(3));
/// assert!(!cluster.is_up(NodeId(3)));
/// assert_eq!(cluster.up_nodes().len(), 24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    spec: ClusterSpec,
    racks: Vec<RackId>,
    down: BTreeSet<NodeId>,
}

impl Cluster {
    /// Creates a cluster with nodes assigned to racks round-robin.
    pub fn new(spec: ClusterSpec) -> Self {
        let racks = (0..spec.data_nodes)
            .map(|n| RackId(n % spec.racks.max(1)))
            .collect();
        Cluster {
            spec,
            racks,
            down: BTreeSet::new(),
        }
    }

    /// The cluster's hardware specification.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of data nodes.
    pub fn len(&self) -> usize {
        self.spec.data_nodes
    }

    /// Returns `true` if the cluster has no data nodes.
    pub fn is_empty(&self) -> bool {
        self.spec.data_nodes == 0
    }

    /// Iterates over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.spec.data_nodes).map(NodeId)
    }

    /// The rack a node belongs to.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] if the node does not exist.
    pub fn rack_of(&self, node: NodeId) -> Result<RackId, ClusterError> {
        self.racks
            .get(node.0)
            .copied()
            .ok_or(ClusterError::UnknownNode { node: node.0 })
    }

    /// All nodes in the given rack.
    pub fn nodes_in_rack(&self, rack: RackId) -> Vec<NodeId> {
        self.racks
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == rack)
            .map(|(n, _)| NodeId(n))
            .collect()
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.spec.racks.max(1)
    }

    /// Returns `true` if the node exists and is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        node.0 < self.spec.data_nodes && !self.down.contains(&node)
    }

    /// Marks a node as down (transient or permanent failure).
    pub fn set_down(&mut self, node: NodeId) {
        if node.0 < self.spec.data_nodes {
            self.down.insert(node);
        }
    }

    /// Marks a node as up again.
    pub fn set_up(&mut self, node: NodeId) {
        self.down.remove(&node);
    }

    /// The set of currently-down nodes.
    pub fn down_nodes(&self) -> &BTreeSet<NodeId> {
        &self.down
    }

    /// The currently-up nodes, in id order, in one allocation of exactly
    /// their count (`down` only ever holds nodes of the cluster).
    pub fn up_nodes(&self) -> Vec<NodeId> {
        let mut up = Vec::with_capacity(self.len() - self.down.len());
        up.extend(self.nodes().filter(|n| !self.down.contains(n)));
        up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_rack_assignment() {
        let c = Cluster::new(ClusterSpec::simulation_25(4));
        assert_eq!(c.len(), 25);
        assert!(!c.is_empty());
        assert_eq!(c.rack_count(), 3);
        assert_eq!(c.rack_of(NodeId(0)).unwrap(), RackId(0));
        assert_eq!(c.rack_of(NodeId(4)).unwrap(), RackId(1));
        assert!(c.rack_of(NodeId(99)).is_err());
        let rack0 = c.nodes_in_rack(RackId(0));
        assert!(rack0.contains(&NodeId(0)));
        assert!(rack0.contains(&NodeId(3)));
        let total: usize = (0..3).map(|r| c.nodes_in_rack(RackId(r)).len()).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn liveness_tracking() {
        let mut c = Cluster::new(ClusterSpec::setup2());
        assert!(c.is_up(NodeId(5)));
        c.set_down(NodeId(5));
        c.set_down(NodeId(7));
        assert!(!c.is_up(NodeId(5)));
        assert_eq!(c.up_nodes().len(), 7);
        assert_eq!(c.down_nodes().len(), 2);
        c.set_up(NodeId(5));
        assert!(c.is_up(NodeId(5)));
        // Unknown nodes are never "up" and setting them down is a no-op.
        assert!(!c.is_up(NodeId(100)));
        c.set_down(NodeId(100));
        assert_eq!(c.down_nodes().len(), 1);
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(RackId(1).to_string(), "rack1");
    }
}
