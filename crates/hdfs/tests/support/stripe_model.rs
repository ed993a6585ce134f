//! The reference model `fs_model.rs` holds the file system to: one stripe
//! of one file, node by node (stripe-local index), and nothing else. A node
//! is up or down and holds a set of the stripe's distinct blocks; a node
//! whose set is not its full share is *wiped*. A failure is a fail-stop, so
//! a down node is always wiped. Reads and repairs follow from
//! that alone: a block survives on the up nodes that hold it, the stripe is
//! readable when every content block survives or the survivors determine the
//! data (`CodeStructure::recoverable_from_blocks`), and a repair of the
//! wiped nodes rebuilds all of them or, beyond that bound, none.

use std::collections::BTreeSet;

use drc_codes::ErasureCode;

/// One stripe's hosts, by stripe-local index.
pub struct StripeModel<'c> {
    code: &'c dyn ErasureCode,
    /// The data blocks the file's bytes live in (`0..content`).
    content: usize,
    /// Per node: up, and the blocks it holds.
    pub nodes: Vec<(bool, BTreeSet<usize>)>,
}

impl<'c> StripeModel<'c> {
    /// Every node up and holding its share.
    pub fn new(code: &'c dyn ErasureCode, content: usize) -> Self {
        let nodes = (0..code.node_count())
            .map(|local| (true, code.node_blocks(local).iter().copied().collect()))
            .collect();
        StripeModel {
            code,
            content,
            nodes,
        }
    }

    /// The node fail-stops: it is down and its disk is gone.
    pub fn fail(&mut self, local: usize) {
        self.nodes[local] = (false, BTreeSet::new());
    }

    /// The node serves again with whatever it holds: nothing, unless a
    /// repair rebuilt it.
    pub fn rejoin(&mut self, local: usize) {
        self.nodes[local].0 = true;
    }

    /// The nodes that lost their share and were not rebuilt since.
    pub fn wiped(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&local| self.nodes[local].1.len() < self.code.node_blocks(local).len())
            .collect()
    }

    /// The distinct blocks some up node holds.
    pub fn surviving(&self) -> BTreeSet<usize> {
        self.nodes
            .iter()
            .filter(|(up, _)| *up)
            .flat_map(|(_, holds)| holds.iter().copied())
            .collect()
    }

    fn recoverable(&self) -> bool {
        self.code
            .structure()
            .recoverable_from_blocks(&self.surviving())
    }

    /// The first content block a whole-file read cannot serve, if any.
    pub fn unreadable(&self) -> Option<usize> {
        let surviving = self.surviving();
        (0..self.content)
            .find(|b| !surviving.contains(b))
            .filter(|_| !self.recoverable())
    }

    /// `repair_nodes` of every wiped node: each is up again afterwards, and
    /// holds its share iff the survivors determine the data. Returns the
    /// nodes replaced and whether their blocks were rebuilt.
    pub fn repair_wiped(&mut self) -> (Vec<usize>, bool) {
        let wiped = self.wiped();
        let rebuilt = !wiped.is_empty() && self.recoverable();
        for &local in &wiped {
            self.nodes[local].0 = true;
            if rebuilt {
                self.nodes[local].1 = self.code.node_blocks(local).iter().copied().collect();
            }
        }
        (wiped, rebuilt)
    }

    /// Blocks held across the stripe, replicas counted.
    pub fn stored_blocks(&self) -> usize {
        self.nodes.iter().map(|(_, holds)| holds.len()).sum()
    }
}
