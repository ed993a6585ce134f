//! The `BTreeMap` double-store `PlacementMap` was built on before the flat
//! arena — one map entry per block in each direction — kept as a dev-only
//! oracle: the behavioural reference `index_differential.rs` holds the
//! library's one index to, and the memory baseline `index_memory.rs`
//! measures. Built from a placed `PlacementMap`'s `stripe_hosts` rows; every
//! query returns what the library must return, error values and messages
//! included.
//! A disagreement between its own tables is a bug in the oracle and panics.
//! Nothing here ships; do not optimise it.

// Two test binaries include this file and each uses a subset of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::mem::size_of;

use drc_cluster::{ClusterError, CodeShape, GlobalBlockId, NodeId, NodeList, PlacementMap};

pub struct MapOracle {
    shape: CodeShape,
    /// Row-major `stripes × arity` host ids, as the placement reported them.
    hosts: Vec<u32>,
    node_universe: usize,
    /// block -> cluster nodes holding a replica.
    locations: BTreeMap<GlobalBlockId, Vec<NodeId>>,
    /// cluster node -> blocks it stores (ascending).
    per_node: BTreeMap<NodeId, Vec<GlobalBlockId>>,
}

impl MapOracle {
    /// Indexes `placement`, whose code has the given `shape`, block by block.
    pub fn new(placement: &PlacementMap, shape: CodeShape) -> Self {
        let mut hosts = Vec::with_capacity(shape.arity() * placement.stripe_count());
        let mut locations = BTreeMap::new();
        let mut per_node: BTreeMap<NodeId, Vec<GlobalBlockId>> = BTreeMap::new();
        for stripe in 0..placement.stripe_count() {
            let row = placement.stripe_hosts(stripe).expect("placed stripe");
            hosts.extend(row.iter().map(|n| n.0 as u32));
            for block in 0..shape.distinct_blocks() {
                let id = GlobalBlockId::new(stripe, block);
                let nodes: Vec<NodeId> = shape
                    .locals_of_block(block)
                    .iter()
                    .map(|&local| row[local as usize])
                    .collect();
                for &n in &nodes {
                    per_node.entry(n).or_default().push(id);
                }
                locations.insert(id, nodes);
            }
        }
        MapOracle {
            shape,
            hosts,
            node_universe: placement.node_universe(),
            locations,
            per_node,
        }
    }

    pub fn shape(&self) -> &CodeShape {
        &self.shape
    }

    pub fn stripe_count(&self) -> usize {
        self.hosts.len() / self.shape.arity()
    }

    pub fn node_universe(&self) -> usize {
        self.node_universe
    }

    fn row(&self, stripe: usize) -> &[u32] {
        let arity = self.shape.arity();
        &self.hosts[stripe * arity..(stripe + 1) * arity]
    }

    fn check_stripe(&self, stripe: usize) -> Result<(), ClusterError> {
        if stripe >= self.stripe_count() {
            return Err(ClusterError::UnknownBlock { stripe, block: 0 });
        }
        Ok(())
    }

    fn check_node(&self, node: NodeId) -> Result<(), ClusterError> {
        if node.0 >= self.node_universe {
            return Err(ClusterError::UnknownNode { node: node.0 });
        }
        Ok(())
    }

    pub fn locations(&self, id: GlobalBlockId) -> Result<NodeList, ClusterError> {
        let (stripe, block) = (id.stripe(), id.block());
        if stripe >= self.stripe_count() || block >= self.shape.distinct_blocks() {
            return Err(ClusterError::UnknownBlock { stripe, block });
        }
        Ok(self.locations[&id].as_slice().into())
    }

    pub fn stripe_hosts(&self, stripe: usize) -> Result<NodeList, ClusterError> {
        self.check_stripe(stripe)?;
        Ok(self
            .row(stripe)
            .iter()
            .map(|&n| NodeId(n as usize))
            .collect())
    }

    pub fn blocks_on_node(&self, node: NodeId) -> Result<Vec<GlobalBlockId>, ClusterError> {
        self.check_node(node)?;
        Ok(self.per_node.get(&node).cloned().unwrap_or_default())
    }

    /// Every `(stripe, local)` pair hosted by `node`, in ascending stripe
    /// order.
    pub fn stripes_on_node(&self, node: NodeId) -> Result<Vec<(usize, usize)>, ClusterError> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for id in self.blocks_on_node(node)? {
            let stripe = id.stripe();
            if out.last().is_some_and(|&(last, _)| last == stripe) {
                continue;
            }
            let local = self.row(stripe).iter().position(|&h| h as usize == node.0);
            out.push((stripe, local.expect("indexed node hosts a local")));
        }
        Ok(out)
    }

    pub fn node_block_count(&self, node: NodeId) -> Result<usize, ClusterError> {
        Ok(self.blocks_on_node(node)?.len())
    }

    /// Buffer capacities and map entries only — `BTreeMap` node overhead is
    /// *not* counted, so the figure is a floor on what the store holds.
    pub fn heap_bytes(&self) -> usize {
        let location_entries =
            self.locations.len() * (size_of::<GlobalBlockId>() + size_of::<Vec<NodeId>>());
        let location_vecs: usize = self
            .locations
            .values()
            .map(|v| v.capacity() * size_of::<NodeId>())
            .sum();
        let per_node_entries =
            self.per_node.len() * (size_of::<NodeId>() + size_of::<Vec<GlobalBlockId>>());
        let per_node_vecs: usize = self
            .per_node
            .values()
            .map(|v| v.capacity() * size_of::<GlobalBlockId>())
            .sum();
        self.hosts.capacity() * size_of::<u32>()
            + location_entries
            + location_vecs
            + per_node_entries
            + per_node_vecs
    }
}
