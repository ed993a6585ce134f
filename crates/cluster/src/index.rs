//! Pluggable block-index backends for [`PlacementMap`](crate::PlacementMap).
//!
//! The metadata plane answers three queries: *block → replica locations*
//! (every read), *node → blocks* (every repair pass) and *stripe → hosts*
//! (degraded reads). This module provides a [`BlockIndex`] trait over those
//! queries plus two implementations:
//!
//! * [`MapIndex`] — the reference: a `BTreeMap<GlobalBlockId, Vec<NodeId>>`
//!   plus a reverse `BTreeMap<NodeId, Vec<GlobalBlockId>>` that duplicates
//!   every entry. Simple, but hundreds of bytes and several heap blocks per
//!   placed block.
//! * [`CompactIndex`] — exploits the structure of striped placement: the
//!   placement of a whole stripe is a fixed arity-`n` run of `u32` node ids
//!   in one flat arena, and every per-block answer is derived from that run
//!   through the code's (stripe-invariant) block↔local tables. The reverse
//!   view is a per-node postings list of `u32` arena offsets, updated
//!   incrementally on repair writes.
//!
//! Both implementations answer every query identically (the differential
//! proptests in `tests/index_differential.rs` drive them through random
//! place/remap sequences); they differ only in memory footprint and scan
//! speed. See `crates/cluster/INTERNALS.md` for the layout details and
//! measured bytes/block.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::mem::size_of;
use std::ops::Deref;

use serde::de::DeError;
use serde::value::Value;
use serde::{Deserialize, Serialize};

use drc_codes::ErasureCode;

use crate::topology::NodeId;
use crate::ClusterError;

/// Identifier of a distinct coded block across a whole placement, packed
/// into a single `u64`: the stripe index in the high 32 bits and the
/// stripe-local distinct-block index in the low 32 bits.
///
/// # Ordering
///
/// Because the stripe occupies the high bits, the derived `Ord` on the packed
/// `u64` is exactly the lexicographic `(stripe, block)` order the unpacked
/// two-field struct had — sorted id sequences and `BTreeMap` iteration order
/// are unchanged by the packing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct GlobalBlockId(u64);

impl GlobalBlockId {
    /// Packs a stripe index and a stripe-local block index into an id.
    ///
    /// # Panics
    ///
    /// Panics if either index does not fit in 32 bits.
    pub const fn new(stripe: usize, block: usize) -> Self {
        assert!(stripe <= u32::MAX as usize, "stripe index exceeds u32");
        assert!(block <= u32::MAX as usize, "block index exceeds u32");
        GlobalBlockId(((stripe as u64) << 32) | block as u64)
    }

    /// Index of the stripe within the placement.
    pub const fn stripe(self) -> usize {
        (self.0 >> 32) as usize
    }

    /// Distinct-block index within the stripe.
    pub const fn block(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    /// The raw packed representation.
    pub const fn packed(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its packed representation.
    pub const fn from_packed(packed: u64) -> Self {
        GlobalBlockId(packed)
    }
}

impl fmt::Debug for GlobalBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Keep the unpacked two-field rendering: error messages and test
        // diagnostics talk about stripes and blocks, not packed words.
        f.debug_struct("GlobalBlockId")
            .field("stripe", &self.stripe())
            .field("block", &self.block())
            .finish()
    }
}

/// Replica-location capacity kept inline (the longest built-in stripe, the
/// (10,9) RAID+m, spans 20 nodes); longer answers spill to the heap.
const INLINE_NODES: usize = 20;

/// A short list of cluster nodes returned by index queries.
///
/// Stores up to 20 ids inline (`INLINE_NODES`) so the metadata hot paths
/// (location lookups, stripe-host fetches) do not allocate; arbitrary-arity
/// Reed–Solomon configurations spill to a heap vector. Dereferences to
/// `[NodeId]`, so all slice methods apply.
#[derive(Clone)]
pub struct NodeList {
    len: u32,
    inline: [NodeId; INLINE_NODES],
    spill: Vec<NodeId>,
}

impl NodeList {
    /// An empty list.
    pub fn new() -> Self {
        NodeList {
            len: 0,
            inline: [NodeId(0); INLINE_NODES],
            spill: Vec::new(),
        }
    }

    /// Appends a node.
    pub fn push(&mut self, node: NodeId) {
        let len = self.len as usize;
        if !self.spill.is_empty() {
            self.spill.push(node);
        } else if len < INLINE_NODES {
            self.inline[len] = node;
        } else {
            self.spill.reserve(len + 1);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(node);
        }
        self.len += 1;
    }

    /// The nodes as a slice.
    pub fn as_slice(&self) -> &[NodeId] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

impl Default for NodeList {
    fn default() -> Self {
        NodeList::new()
    }
}

impl Deref for NodeList {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl From<&[NodeId]> for NodeList {
    fn from(nodes: &[NodeId]) -> Self {
        let mut list = NodeList::new();
        for &n in nodes {
            list.push(n);
        }
        list
    }
}

impl FromIterator<NodeId> for NodeList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut list = NodeList::new();
        for n in iter {
            list.push(n);
        }
        list
    }
}

impl<'a> IntoIterator for &'a NodeList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for NodeList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for NodeList {}

impl PartialEq<[NodeId]> for NodeList {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for NodeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Serialize for NodeList {
    fn serialize(&self) -> Value {
        Value::Seq(self.as_slice().iter().map(Serialize::serialize).collect())
    }
}

impl Deserialize for NodeList {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let nodes = Vec::<NodeId>::deserialize(v)?;
        Ok(nodes.into_iter().collect())
    }
}

/// Which [`BlockIndex`] backend a placement uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IndexKind {
    /// The reference `BTreeMap` double-store ([`MapIndex`]).
    Map,
    /// The flat stripe arena with per-node postings ([`CompactIndex`]).
    #[default]
    Compact,
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKind::Map => write!(f, "map"),
            IndexKind::Compact => write!(f, "compact"),
        }
    }
}

thread_local! {
    static INDEX_OVERRIDE: Cell<Option<IndexKind>> = const { Cell::new(None) };
}

impl IndexKind {
    /// The backend new placements on this thread use: a scoped
    /// [`with_index_kind`] override if one is active, else
    /// [`IndexKind::Compact`].
    pub fn current() -> IndexKind {
        INDEX_OVERRIDE.with(Cell::get).unwrap_or(IndexKind::Compact)
    }
}

/// Runs `f` with every placement built on this thread using `kind`,
/// restoring the previous selection afterwards (also on panic).
///
/// This is how the differential tests run the same experiment under both
/// backends in one process.
pub fn with_index_kind<T>(kind: IndexKind, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<IndexKind>);
    impl Drop for Restore {
        fn drop(&mut self) {
            INDEX_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(INDEX_OVERRIDE.with(|c| c.replace(Some(kind))));
    f()
}

/// The stripe-invariant block↔local structure of a code, in compressed
/// sparse row form: which stripe-local nodes hold copies of each distinct
/// block (in the code's replica order), and which distinct blocks each
/// stripe-local node stores (ascending).
///
/// Built once per placement; every per-block query of both index backends is
/// answered through these two small tables, so nothing is stored per block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeShape {
    arity: u32,
    distinct_blocks: u32,
    data_blocks: u32,
    block_local_offsets: Vec<u32>,
    block_locals: Vec<u16>,
    local_block_offsets: Vec<u32>,
    local_blocks: Vec<u16>,
}

impl CodeShape {
    /// Extracts the shape of `code`.
    ///
    /// # Panics
    ///
    /// Panics if the code's arity or distinct-block count exceeds `u16`
    /// (no realistic erasure code comes close).
    pub fn of(code: &dyn ErasureCode) -> Self {
        let arity = code.node_count();
        let distinct = code.distinct_blocks();
        assert!(arity <= u16::MAX as usize, "code arity exceeds u16");
        assert!(
            distinct <= u16::MAX as usize,
            "distinct block count exceeds u16"
        );
        let mut block_local_offsets = Vec::with_capacity(distinct + 1);
        let mut block_locals = Vec::new();
        block_local_offsets.push(0);
        for block in 0..distinct {
            for &local in code.block_locations(block) {
                block_locals.push(local as u16);
            }
            block_local_offsets.push(block_locals.len() as u32);
        }
        let mut local_block_offsets = Vec::with_capacity(arity + 1);
        let mut local_blocks = Vec::new();
        local_block_offsets.push(0);
        for local in 0..arity {
            let mut blocks: Vec<u16> = code.node_blocks(local).iter().map(|&b| b as u16).collect();
            // The reverse rows are sorted so node scans emit blocks in
            // ascending (stripe, block) order, matching the map reference.
            blocks.sort_unstable();
            local_blocks.extend_from_slice(&blocks);
            local_block_offsets.push(local_blocks.len() as u32);
        }
        CodeShape {
            arity: arity as u32,
            distinct_blocks: distinct as u32,
            data_blocks: code.data_blocks() as u32,
            block_local_offsets,
            block_locals,
            local_block_offsets,
            local_blocks,
        }
    }

    /// Stripe-local nodes holding copies of `block`, in the code's replica
    /// order.
    pub fn locals_of_block(&self, block: usize) -> &[u16] {
        let start = self.block_local_offsets[block] as usize;
        let end = self.block_local_offsets[block + 1] as usize;
        &self.block_locals[start..end]
    }

    /// Distinct blocks stored on stripe-local node `local`, ascending.
    pub fn blocks_of_local(&self, local: usize) -> &[u16] {
        let start = self.local_block_offsets[local] as usize;
        let end = self.local_block_offsets[local + 1] as usize;
        &self.local_blocks[start..end]
    }

    /// The code's arity (cluster nodes per stripe).
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// Distinct blocks per stripe.
    pub fn distinct_blocks(&self) -> usize {
        self.distinct_blocks as usize
    }

    /// Data blocks per stripe.
    pub fn data_blocks(&self) -> usize {
        self.data_blocks as usize
    }

    fn heap_bytes(&self) -> usize {
        self.block_local_offsets.capacity() * size_of::<u32>()
            + self.block_locals.capacity() * size_of::<u16>()
            + self.local_block_offsets.capacity() * size_of::<u32>()
            + self.local_blocks.capacity() * size_of::<u16>()
    }
}

/// The flat per-stripe host arena shared by both backends: row `s` holds the
/// `arity` cluster-node ids (as `u32`) hosting stripe `s`'s local nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct StripeArena {
    arity: u32,
    hosts: Vec<u32>,
}

impl StripeArena {
    fn with_capacity(arity: usize, stripes: usize) -> Self {
        StripeArena {
            arity: arity as u32,
            hosts: Vec::with_capacity(arity * stripes),
        }
    }

    fn stripe_count(&self) -> usize {
        self.hosts.len() / self.arity as usize
    }

    fn push_stripe(&mut self, nodes: &[NodeId]) {
        debug_assert_eq!(nodes.len(), self.arity as usize);
        for &n in nodes {
            debug_assert!(n.0 <= u32::MAX as usize, "node id exceeds u32");
            self.hosts.push(n.0 as u32);
        }
    }

    fn host(&self, stripe: usize, local: usize) -> NodeId {
        NodeId(self.hosts[stripe * self.arity as usize + local] as usize)
    }

    fn row(&self, stripe: usize) -> &[u32] {
        let arity = self.arity as usize;
        &self.hosts[stripe * arity..(stripe + 1) * arity]
    }

    fn set_host(&mut self, stripe: usize, local: usize, node: NodeId) {
        self.hosts[stripe * self.arity as usize + local] = node.0 as u32;
    }

    fn heap_bytes(&self) -> usize {
        self.hosts.capacity() * size_of::<u32>()
    }
}

/// The three metadata-plane queries plus the repair-time mutation, abstracted
/// over storage layout.
///
/// All methods are total over *valid* ids and fail loudly on invalid ones —
/// an unknown block or node is a [`ClusterError`], never a silently empty
/// answer (a node inside the placement's universe that happens to store
/// nothing still answers `Ok` with an empty scan).
pub trait BlockIndex {
    /// Name of the code this placement was built for.
    fn code_name(&self) -> &str;

    /// The code's stripe-invariant block↔local structure.
    fn shape(&self) -> &CodeShape;

    /// Number of stripes placed.
    fn stripe_count(&self) -> usize;

    /// Number of cluster nodes the placement was built against; node ids
    /// `0..node_universe()` are valid query arguments.
    fn node_universe(&self) -> usize;

    /// The cluster nodes holding a replica of `block`, in the code's replica
    /// order.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownBlock`] if the stripe or block index is out of
    /// range.
    fn locations(&self, block: GlobalBlockId) -> Result<NodeList, ClusterError>;

    /// The cluster nodes hosting stripe `stripe`'s local nodes, in local
    /// order.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownBlock`] if the stripe index is out of range.
    fn stripe_hosts(&self, stripe: usize) -> Result<NodeList, ClusterError>;

    /// Calls `f` with every block (data and parity) stored on `node`, in
    /// ascending `(stripe, block)` order.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] if `node` is outside the placement's
    /// node universe.
    fn for_each_block_on_node(
        &self,
        node: NodeId,
        f: &mut dyn FnMut(GlobalBlockId),
    ) -> Result<(), ClusterError>;

    /// Calls `f` with every `(stripe, local)` pair hosted by `node`, in
    /// ascending stripe order — the granularity repair works at.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] if `node` is outside the placement's
    /// node universe.
    fn for_each_stripe_on_node(
        &self,
        node: NodeId,
        f: &mut dyn FnMut(usize, usize),
    ) -> Result<(), ClusterError>;

    /// Number of blocks stored on `node`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] if `node` is outside the placement's
    /// node universe.
    fn node_block_count(&self, node: NodeId) -> Result<usize, ClusterError>;

    /// Re-homes stripe `stripe`'s local node `local` onto cluster node `to`
    /// (what a repair does after reconstructing a lost node's blocks
    /// elsewhere). Returns the previous host.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownBlock`] for an out-of-range stripe or local
    /// index, [`ClusterError::UnknownNode`] if `to` is outside the node
    /// universe, and [`ClusterError::InvalidPlacement`] if `to` already
    /// hosts a different local node of the same stripe (stripes must span
    /// distinct cluster nodes).
    fn remap_stripe_host(
        &mut self,
        stripe: usize,
        local: usize,
        to: NodeId,
    ) -> Result<NodeId, ClusterError>;

    /// Estimated heap bytes resident in the index (vector buffers and map
    /// entries; `BTreeMap` node overhead is *not* counted, so the figure is
    /// a floor for the map reference).
    fn heap_bytes(&self) -> usize;
}

fn check_block(
    shape: &CodeShape,
    stripes: usize,
    block: GlobalBlockId,
) -> Result<(), ClusterError> {
    if block.stripe() >= stripes || block.block() >= shape.distinct_blocks() {
        return Err(ClusterError::UnknownBlock {
            stripe: block.stripe(),
            block: block.block(),
        });
    }
    Ok(())
}

fn check_stripe(stripes: usize, stripe: usize) -> Result<(), ClusterError> {
    if stripe >= stripes {
        return Err(ClusterError::UnknownBlock { stripe, block: 0 });
    }
    Ok(())
}

fn check_local(shape: &CodeShape, local: usize) -> Result<(), ClusterError> {
    if local >= shape.arity() {
        return Err(ClusterError::InvalidPlacement {
            reason: format!(
                "local index {local} out of range for arity {}",
                shape.arity()
            ),
        });
    }
    Ok(())
}

fn check_node(universe: usize, node: NodeId) -> Result<(), ClusterError> {
    if node.0 >= universe {
        return Err(ClusterError::UnknownNode { node: node.0 });
    }
    Ok(())
}

fn check_remap_target(
    arena: &StripeArena,
    stripe: usize,
    local: usize,
    to: NodeId,
) -> Result<(), ClusterError> {
    let row = arena.row(stripe);
    if let Some(other) = (0..row.len()).find(|&l| l != local && row[l] as usize == to.0) {
        return Err(ClusterError::InvalidPlacement {
            reason: format!(
                "node {} already hosts local {other} of stripe {stripe}",
                to.0
            ),
        });
    }
    Ok(())
}

/// The reference backend: the original `BTreeMap` double-store, one entry
/// per block in each direction. Kept as the behavioural oracle for
/// [`CompactIndex`] and as the memory baseline the bench reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapIndex {
    code_name: String,
    shape: CodeShape,
    arena: StripeArena,
    node_universe: usize,
    /// block -> cluster nodes holding a replica.
    locations: BTreeMap<GlobalBlockId, Vec<NodeId>>,
    /// cluster node -> blocks it stores (ascending).
    per_node: BTreeMap<NodeId, Vec<GlobalBlockId>>,
}

impl MapIndex {
    fn new(code_name: String, shape: CodeShape, arena: StripeArena, node_universe: usize) -> Self {
        let mut locations: BTreeMap<GlobalBlockId, Vec<NodeId>> = BTreeMap::new();
        let mut per_node: BTreeMap<NodeId, Vec<GlobalBlockId>> = BTreeMap::new();
        for stripe in 0..arena.stripe_count() {
            for block in 0..shape.distinct_blocks() {
                let id = GlobalBlockId::new(stripe, block);
                let nodes: Vec<NodeId> = shape
                    .locals_of_block(block)
                    .iter()
                    .map(|&local| arena.host(stripe, local as usize))
                    .collect();
                for &n in &nodes {
                    per_node.entry(n).or_default().push(id);
                }
                locations.insert(id, nodes);
            }
        }
        MapIndex {
            code_name,
            shape,
            arena,
            node_universe,
            locations,
            per_node,
        }
    }
}

impl BlockIndex for MapIndex {
    fn code_name(&self) -> &str {
        &self.code_name
    }

    fn shape(&self) -> &CodeShape {
        &self.shape
    }

    fn stripe_count(&self) -> usize {
        self.arena.stripe_count()
    }

    fn node_universe(&self) -> usize {
        self.node_universe
    }

    fn locations(&self, block: GlobalBlockId) -> Result<NodeList, ClusterError> {
        check_block(&self.shape, self.stripe_count(), block)?;
        let nodes = self.locations.get(&block).ok_or_else(|| {
            ClusterError::corrupt(format!(
                "in-range block (stripe {}, block {}) missing from the location map",
                block.stripe(),
                block.block()
            ))
        })?;
        Ok(nodes.as_slice().into())
    }

    fn stripe_hosts(&self, stripe: usize) -> Result<NodeList, ClusterError> {
        check_stripe(self.stripe_count(), stripe)?;
        Ok(self
            .arena
            .row(stripe)
            .iter()
            .map(|&n| NodeId(n as usize))
            .collect())
    }

    fn for_each_block_on_node(
        &self,
        node: NodeId,
        f: &mut dyn FnMut(GlobalBlockId),
    ) -> Result<(), ClusterError> {
        check_node(self.node_universe, node)?;
        if let Some(blocks) = self.per_node.get(&node) {
            for &id in blocks {
                f(id);
            }
        }
        Ok(())
    }

    fn for_each_stripe_on_node(
        &self,
        node: NodeId,
        f: &mut dyn FnMut(usize, usize),
    ) -> Result<(), ClusterError> {
        check_node(self.node_universe, node)?;
        if let Some(blocks) = self.per_node.get(&node) {
            let mut last_stripe = usize::MAX;
            for &id in blocks {
                let stripe = id.stripe();
                if stripe == last_stripe {
                    continue;
                }
                last_stripe = stripe;
                let row = self.arena.row(stripe);
                let local = row
                    .iter()
                    .position(|&h| h as usize == node.0)
                    .ok_or_else(|| {
                        ClusterError::corrupt(format!(
                            "node {} is indexed under stripe {stripe} but hosts none of its locals",
                            node.0
                        ))
                    })?;
                f(stripe, local);
            }
        }
        Ok(())
    }

    fn node_block_count(&self, node: NodeId) -> Result<usize, ClusterError> {
        check_node(self.node_universe, node)?;
        Ok(self.per_node.get(&node).map_or(0, Vec::len))
    }

    fn remap_stripe_host(
        &mut self,
        stripe: usize,
        local: usize,
        to: NodeId,
    ) -> Result<NodeId, ClusterError> {
        check_stripe(self.stripe_count(), stripe)?;
        check_local(&self.shape, local)?;
        check_node(self.node_universe, to)?;
        let from = self.arena.host(stripe, local);
        if from == to {
            return Ok(from);
        }
        check_remap_target(&self.arena, stripe, local, to)?;
        self.arena.set_host(stripe, local, to);
        for &block in self.shape.blocks_of_local(local) {
            let id = GlobalBlockId::new(stripe, block as usize);
            let slot = self
                .shape
                .locals_of_block(block as usize)
                .iter()
                .position(|&l| l as usize == local)
                .ok_or_else(|| {
                    ClusterError::corrupt(format!(
                        "local {local} stores block {block} but is absent from its locals list"
                    ))
                })?;
            self.locations.get_mut(&id).ok_or_else(|| {
                ClusterError::corrupt(format!(
                    "in-range block (stripe {stripe}, block {block}) missing from the \
                         location map"
                ))
            })?[slot] = to;
            let old_list = self.per_node.get_mut(&from).ok_or_else(|| {
                ClusterError::corrupt(format!("previous host {} has no postings entry", from.0))
            })?;
            let pos = old_list.binary_search(&id).map_err(|_| {
                ClusterError::corrupt(format!(
                    "previous host {} does not list block (stripe {stripe}, block {block})",
                    from.0
                ))
            })?;
            old_list.remove(pos);
            let new_list = self.per_node.entry(to).or_default();
            let pos = new_list.binary_search(&id).err().ok_or_else(|| {
                ClusterError::corrupt(format!(
                    "target host {} already lists block (stripe {stripe}, block {block})",
                    to.0
                ))
            })?;
            new_list.insert(pos, id);
        }
        if self.per_node.get(&from).is_some_and(Vec::is_empty) {
            self.per_node.remove(&from);
        }
        Ok(from)
    }

    fn heap_bytes(&self) -> usize {
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
        self.code_name.capacity()
            + self.shape.heap_bytes()
            + self.arena.heap_bytes()
            + location_entries
            + location_vecs
            + per_node_entries
            + per_node_vecs
    }
}

/// The compact backend: block → locations answered straight from the stripe
/// arena through the code shape, node → blocks served by per-node postings
/// of `u32` arena offsets. Nothing is stored per block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactIndex {
    code_name: String,
    shape: CodeShape,
    arena: StripeArena,
    node_universe: usize,
    /// `postings[n]` lists the arena offsets (`stripe * arity + local`) whose
    /// host is node `n`, ascending — i.e. stripes in ascending order.
    postings: Vec<Vec<u32>>,
}

impl CompactIndex {
    fn new(code_name: String, shape: CodeShape, arena: StripeArena, node_universe: usize) -> Self {
        let mut counts = vec![0usize; node_universe];
        for &host in &arena.hosts {
            counts[host as usize] += 1;
        }
        let mut postings: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (offset, &host) in arena.hosts.iter().enumerate() {
            postings[host as usize].push(offset as u32);
        }
        CompactIndex {
            code_name,
            shape,
            arena,
            node_universe,
            postings,
        }
    }
}

impl BlockIndex for CompactIndex {
    fn code_name(&self) -> &str {
        &self.code_name
    }

    fn shape(&self) -> &CodeShape {
        &self.shape
    }

    fn stripe_count(&self) -> usize {
        self.arena.stripe_count()
    }

    fn node_universe(&self) -> usize {
        self.node_universe
    }

    fn locations(&self, block: GlobalBlockId) -> Result<NodeList, ClusterError> {
        check_block(&self.shape, self.stripe_count(), block)?;
        let stripe = block.stripe();
        Ok(self
            .shape
            .locals_of_block(block.block())
            .iter()
            .map(|&local| self.arena.host(stripe, local as usize))
            .collect())
    }

    fn stripe_hosts(&self, stripe: usize) -> Result<NodeList, ClusterError> {
        check_stripe(self.stripe_count(), stripe)?;
        Ok(self
            .arena
            .row(stripe)
            .iter()
            .map(|&n| NodeId(n as usize))
            .collect())
    }

    fn for_each_block_on_node(
        &self,
        node: NodeId,
        f: &mut dyn FnMut(GlobalBlockId),
    ) -> Result<(), ClusterError> {
        check_node(self.node_universe, node)?;
        let arity = self.shape.arity();
        for &offset in &self.postings[node.0] {
            let stripe = offset as usize / arity;
            let local = offset as usize % arity;
            for &block in self.shape.blocks_of_local(local) {
                f(GlobalBlockId::new(stripe, block as usize));
            }
        }
        Ok(())
    }

    fn for_each_stripe_on_node(
        &self,
        node: NodeId,
        f: &mut dyn FnMut(usize, usize),
    ) -> Result<(), ClusterError> {
        check_node(self.node_universe, node)?;
        let arity = self.shape.arity();
        for &offset in &self.postings[node.0] {
            f(offset as usize / arity, offset as usize % arity);
        }
        Ok(())
    }

    fn node_block_count(&self, node: NodeId) -> Result<usize, ClusterError> {
        check_node(self.node_universe, node)?;
        let arity = self.shape.arity();
        Ok(self.postings[node.0]
            .iter()
            .map(|&offset| self.shape.blocks_of_local(offset as usize % arity).len())
            .sum())
    }

    fn remap_stripe_host(
        &mut self,
        stripe: usize,
        local: usize,
        to: NodeId,
    ) -> Result<NodeId, ClusterError> {
        check_stripe(self.stripe_count(), stripe)?;
        check_local(&self.shape, local)?;
        check_node(self.node_universe, to)?;
        let from = self.arena.host(stripe, local);
        if from == to {
            return Ok(from);
        }
        check_remap_target(&self.arena, stripe, local, to)?;
        self.arena.set_host(stripe, local, to);
        let offset = (stripe * self.shape.arity() + local) as u32;
        let old_list = &mut self.postings[from.0];
        let pos = old_list.binary_search(&offset).map_err(|_| {
            ClusterError::corrupt(format!(
                "previous host {} does not list arena offset {offset}",
                from.0
            ))
        })?;
        old_list.remove(pos);
        let new_list = &mut self.postings[to.0];
        let pos = new_list.binary_search(&offset).err().ok_or_else(|| {
            ClusterError::corrupt(format!(
                "target host {} already lists arena offset {offset}",
                to.0
            ))
        })?;
        new_list.insert(pos, offset);
        Ok(from)
    }

    fn heap_bytes(&self) -> usize {
        let posting_headers = self.postings.capacity() * size_of::<Vec<u32>>();
        let posting_bytes: usize = self
            .postings
            .iter()
            .map(|p| p.capacity() * size_of::<u32>())
            .sum();
        self.code_name.capacity()
            + self.shape.heap_bytes()
            + self.arena.heap_bytes()
            + posting_headers
            + posting_bytes
    }
}

/// The concrete backend held by a [`PlacementMap`](crate::PlacementMap).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementIndex {
    /// The reference `BTreeMap` double-store.
    Map(MapIndex),
    /// The flat-arena compact index.
    Compact(CompactIndex),
}

impl PlacementIndex {
    pub(crate) fn build(
        kind: IndexKind,
        code_name: String,
        shape: CodeShape,
        arena: StripeArena,
        node_universe: usize,
    ) -> Self {
        match kind {
            IndexKind::Map => {
                PlacementIndex::Map(MapIndex::new(code_name, shape, arena, node_universe))
            }
            IndexKind::Compact => {
                PlacementIndex::Compact(CompactIndex::new(code_name, shape, arena, node_universe))
            }
        }
    }

    /// Which backend this is.
    pub fn kind(&self) -> IndexKind {
        match self {
            PlacementIndex::Map(_) => IndexKind::Map,
            PlacementIndex::Compact(_) => IndexKind::Compact,
        }
    }

    /// The backend as a trait object.
    pub fn as_dyn(&self) -> &dyn BlockIndex {
        match self {
            PlacementIndex::Map(index) => index,
            PlacementIndex::Compact(index) => index,
        }
    }

    /// The backend as a mutable trait object.
    pub fn as_dyn_mut(&mut self) -> &mut dyn BlockIndex {
        match self {
            PlacementIndex::Map(index) => index,
            PlacementIndex::Compact(index) => index,
        }
    }
}

pub(crate) use builder::ArenaBuilder;

mod builder {
    //! Arena construction kept separate so `placement.rs` can fill stripes
    //! without seeing the arena internals.

    use super::{CodeShape, IndexKind, PlacementIndex, StripeArena};
    use crate::topology::NodeId;

    /// Accumulates per-stripe host rows and finishes into a backend.
    pub(crate) struct ArenaBuilder {
        code_name: String,
        shape: CodeShape,
        arena: StripeArena,
        node_universe: usize,
    }

    impl ArenaBuilder {
        pub(crate) fn new(
            code_name: String,
            shape: CodeShape,
            stripes: usize,
            node_universe: usize,
        ) -> Self {
            let arena = StripeArena::with_capacity(shape.arity(), stripes);
            ArenaBuilder {
                code_name,
                shape,
                arena,
                node_universe,
            }
        }

        pub(crate) fn push_stripe(&mut self, nodes: &[NodeId]) {
            self.arena.push_stripe(nodes);
        }

        pub(crate) fn finish(self, kind: IndexKind) -> PlacementIndex {
            PlacementIndex::build(
                kind,
                self.code_name,
                self.shape,
                self.arena,
                self.node_universe,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_block_id_packs_and_orders() {
        let a = GlobalBlockId::new(1, 2);
        assert_eq!(a.stripe(), 1);
        assert_eq!(a.block(), 2);
        assert_eq!(a.packed(), (1u64 << 32) | 2);
        assert_eq!(GlobalBlockId::from_packed(a.packed()), a);
        // Packed Ord == (stripe, block) lexicographic order.
        let ids = [
            GlobalBlockId::new(0, 0),
            GlobalBlockId::new(0, 1),
            GlobalBlockId::new(0, u32::MAX as usize),
            GlobalBlockId::new(1, 0),
            GlobalBlockId::new(2, 3),
        ];
        for pair in ids.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!((pair[0].stripe(), pair[0].block()) < (pair[1].stripe(), pair[1].block()));
        }
        assert_eq!(
            format!("{:?}", GlobalBlockId::new(3, 4)),
            "GlobalBlockId { stripe: 3, block: 4 }"
        );
    }

    #[test]
    fn node_list_spills_past_inline_capacity() {
        let mut list = NodeList::new();
        assert!(list.is_empty());
        for i in 0..INLINE_NODES + 5 {
            list.push(NodeId(i));
        }
        assert_eq!(list.len(), INLINE_NODES + 5);
        for (i, &n) in list.iter().enumerate() {
            assert_eq!(n, NodeId(i));
        }
        let copy: NodeList = list.as_slice().into();
        assert_eq!(copy, list);
        // Round-trips through the value model.
        let restored = NodeList::deserialize(&list.serialize()).unwrap();
        assert_eq!(restored, list);
    }

    #[test]
    fn index_kind_override_scopes_and_restores() {
        let before = IndexKind::current();
        let inside = with_index_kind(IndexKind::Map, IndexKind::current);
        assert_eq!(inside, IndexKind::Map);
        let nested = with_index_kind(IndexKind::Map, || {
            with_index_kind(IndexKind::Compact, IndexKind::current)
        });
        assert_eq!(nested, IndexKind::Compact);
        assert_eq!(IndexKind::current(), before);
    }
}
