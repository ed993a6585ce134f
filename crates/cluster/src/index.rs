//! The building blocks of the placement index held by
//! [`PlacementMap`](crate::PlacementMap).
//!
//! The metadata plane answers three queries: *block → replica locations*
//! (every read), *node → blocks* (every repair pass) and *stripe → hosts*
//! (degraded reads). A striped placement is `stripes × arity` decisions, so
//! that is all that is stored: the placement of a whole stripe is a fixed
//! arity-`n` run of `u32` node ids in one flat arena, and every per-block
//! answer is derived from that run through the code's (stripe-invariant)
//! block↔local tables ([`CodeShape`]). The reverse view is the arena's
//! `u32` offsets grouped by host in compressed sparse row form
//! ([`Postings`]), built once when the stripes are placed.
//!
//! This module holds the id and answer types ([`GlobalBlockId`],
//! [`NodeList`]), the code shape, the arena and the argument checks;
//! `placement.rs` owns the index itself. Its behavioural reference and
//! memory baseline is a `BTreeMap` double-store kept as a test oracle
//! (`tests/support/map_oracle.rs`); see `crates/cluster/INTERNALS.md` for
//! the layout details and the measured bytes/block of both.

use std::fmt;
use std::mem::size_of;
use std::ops::Deref;

use drc_codes::ErasureCode;
use drc_gf::bufpool::bulk_with_capacity;

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
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalBlockId(u64);

impl GlobalBlockId {
    /// Packs a stripe index and a stripe-local block index into an id.
    ///
    /// # Panics
    ///
    /// Panics if either index does not fit in 32 bits.
    #[inline]
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

/// The stripe-invariant block↔local structure of a code, in compressed
/// sparse row form: which stripe-local nodes hold copies of each distinct
/// block (in the code's replica order), and which distinct blocks each
/// stripe-local node stores (ascending).
///
/// Built once per placement; every per-block query is answered through
/// these two small tables, so nothing is stored per block.
#[derive(Debug, Clone, PartialEq, Eq)]
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
            // ascending (stripe, block) order.
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
    #[inline]
    pub fn locals_of_block(&self, block: usize) -> &[u16] {
        let start = self.block_local_offsets[block] as usize;
        let end = self.block_local_offsets[block + 1] as usize;
        &self.block_locals[start..end]
    }

    /// Distinct blocks stored on stripe-local node `local`, ascending.
    // `#[inline]` here, on `GlobalBlockId::new`, `StripeArena::cell` /
    // `row`, `Postings::of`, `locals_of_block` and `check_node`:
    // `PlacementMap`'s `impl FnMut` scans are instantiated in the calling
    // crate, where a non-generic helper without it is an out-of-line call
    // per posting (INTERNALS.md has the measurement).
    #[inline]
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

    pub(crate) fn heap_bytes(&self) -> usize {
        self.block_local_offsets.capacity() * size_of::<u32>()
            + self.block_locals.capacity() * size_of::<u16>()
            + self.local_block_offsets.capacity() * size_of::<u32>()
            + self.local_blocks.capacity() * size_of::<u16>()
    }
}

/// The flat per-stripe host arena: row `s` holds the `arity` cluster-node
/// ids (as `u32`) hosting stripe `s`'s local nodes. A cell's position,
/// `stripe * arity + local`, is the *offset* the [`Postings`] store — also
/// as `u32`; [`check_arena_bounds`] is what makes both narrowings lossless.
/// Made by [`StripeArena::cyclic`] or an [`ArenaBuild`], together with its
/// postings. Both fill `hosts` once, front to back, at its exact capacity,
/// so it comes from `drc_gf::bufpool::bulk_with_capacity`: an arena of
/// 2 MiB or more first-touches one huge page per fault where the host
/// grants them, and a smaller one is an ordinary `Vec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StripeArena {
    arity: u32,
    hosts: Vec<u32>,
}

impl StripeArena {
    /// The arena whose cells are the cyclic repetition of `ring` (node ids
    /// below `node_universe`, strictly ascending) — cell `c` is
    /// `ring[c % ring.len()]` — and its postings, both in closed form: the
    /// arena is the ring copied lap after lap, and ring position `at` hosts
    /// exactly the offsets `at`, `at + ring.len()`, … below the cell count.
    /// Because the ring is in id order, those runs are appended to the
    /// postings front to back in ring order, without reading the arena. The
    /// caller has passed the dimensions through [`check_arena_bounds`].
    pub(crate) fn cyclic(
        arity: usize,
        stripes: usize,
        ring: &[u32],
        node_universe: usize,
    ) -> (Self, Postings) {
        debug_assert!(ring.windows(2).all(|pair| pair[0] < pair[1]));
        debug_assert!(ring.last().is_some_and(|&n| (n as usize) < node_universe));
        let cells = arity * stripes;
        let mut hosts = bulk_with_capacity(cells);
        for _ in 0..cells / ring.len() {
            hosts.extend_from_slice(ring);
        }
        hosts.extend_from_slice(&ring[..cells % ring.len()]);
        let mut base = Vec::with_capacity(node_universe + 1);
        let mut posted = bulk_with_capacity(cells);
        for (at, &host) in ring.iter().enumerate() {
            // Opens `host`'s run; the nodes since the previous host are off
            // the ring (down when placed) and host nothing.
            base.resize(host as usize + 1, posted.len() as u32);
            posted.extend((at..cells).step_by(ring.len()).map(|cell| cell as u32));
        }
        base.resize(node_universe + 1, posted.len() as u32);
        let arity = arity as u32;
        let postings = Postings {
            base,
            cells: posted,
        };
        (StripeArena { arity, hosts }, postings)
    }

    pub(crate) fn stripe_count(&self) -> usize {
        self.hosts.len() / self.arity as usize
    }

    #[inline]
    pub(crate) fn row(&self, stripe: usize) -> &[u32] {
        let arity = self.arity as usize;
        &self.hosts[stripe * arity..(stripe + 1) * arity]
    }

    /// The `(stripe, local)` cell an offset names.
    #[inline]
    pub(crate) fn cell(&self, offset: u32) -> (usize, usize) {
        let arity = self.arity as usize;
        (offset as usize / arity, offset as usize % arity)
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.hosts.capacity() * size_of::<u32>()
    }
}

/// The reverse view of a [`StripeArena`], in compressed sparse row form:
/// node `n` hosts the arena offsets `cells[base[n]..base[n + 1]]`,
/// ascending — i.e. stripes in ascending order. `base` holds
/// `node_universe + 1` prefix sums; `cells` holds every arena offset
/// exactly once, so it is as long as the arena and, like it, comes from
/// `bulk_with_capacity`. Every prefix sum is at most the cell count, which
/// [`check_arena_bounds`] keeps inside `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Postings {
    base: Vec<u32>,
    cells: Vec<u32>,
}

impl Postings {
    /// The arena offsets node `node` hosts, ascending; `node` is below the
    /// node universe the postings were built over.
    #[inline]
    pub(crate) fn of(&self, node: usize) -> &[u32] {
        &self.cells[self.base[node] as usize..self.base[node + 1] as usize]
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        (self.base.capacity() + self.cells.capacity()) * size_of::<u32>()
    }
}

/// A [`StripeArena`] and its [`Postings`] built row by row, for placements
/// with no closed form: *fill* the arena one stripe at a time, *tally* how
/// many cells each node hosts as they arrive, then *scatter* every offset
/// into its host's run. The tally is what makes the scatter the build's
/// only pass over the finished arena.
pub(crate) struct ArenaBuild {
    arena: StripeArena,
    /// `counts[n]`: cells pushed so far whose host is node `n`. One entry
    /// per node plus a last one that stays 0: `finish` turns the tally into
    /// the postings' `node_universe + 1` prefix sums in place.
    counts: Vec<u32>,
}

impl ArenaBuild {
    /// An empty build with room for `stripes` rows over `node_universe`
    /// cluster nodes. The caller has passed the dimensions through
    /// [`check_arena_bounds`], so hosts, offsets and counts all fit `u32`.
    pub(crate) fn new(arity: usize, stripes: usize, node_universe: usize) -> Self {
        ArenaBuild {
            arena: StripeArena {
                arity: arity as u32,
                hosts: bulk_with_capacity(arity * stripes),
            },
            counts: vec![0; node_universe + 1],
        }
    }

    /// Appends one stripe's hosts, in local order.
    pub(crate) fn push_row(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.arena.arity as usize);
        for &host in row {
            self.counts[host as usize] += 1;
        }
        self.arena.hosts.extend_from_slice(row);
    }

    /// The finished arena and its postings.
    pub(crate) fn finish(self) -> (StripeArena, Postings) {
        let ArenaBuild {
            arena,
            counts: mut base,
        } = self;
        // Inclusive prefix sums: `base[n]` is where node `n`'s run ends, and
        // the last entry the cell count.
        let mut end = 0;
        for slot in &mut base {
            end += *slot;
            *slot = end;
        }
        // Scatter from the last offset down, so each run comes out ascending
        // and `base[n]` is walked down to where the run starts.
        let mut cells = bulk_with_capacity(arena.hosts.len());
        cells.resize(arena.hosts.len(), 0);
        for (offset, &host) in arena.hosts.iter().enumerate().rev() {
            let cursor = &mut base[host as usize];
            *cursor -= 1;
            cells[*cursor as usize] = offset as u32;
        }
        (arena, Postings { base, cells })
    }
}

/// Checks that `stripes` stripes of an arity-`arity` code over a cluster of
/// `nodes` nodes fit the arena's `u32` cells: every node id and every arena
/// offset must be representable, or the reverse scan would silently wrap.
/// `arity · stripes ≤ u32::MAX` also keeps every stripe index inside what
/// [`GlobalBlockId::new`] accepts. Runs before anything is reserved, so an
/// absurd request costs an error, not an allocation.
pub(crate) fn check_arena_bounds(
    arity: usize,
    stripes: usize,
    nodes: usize,
) -> Result<(), ClusterError> {
    const MAX: usize = u32::MAX as usize;
    if arity.checked_mul(stripes).is_none_or(|cells| cells > MAX) {
        return Err(ClusterError::InvalidPlacement {
            reason: format!(
                "{stripes} stripes of arity {arity} exceed the index's {MAX} arena offsets"
            ),
        });
    }
    if nodes > MAX {
        return Err(ClusterError::InvalidPlacement {
            reason: format!("{nodes} cluster nodes exceed the index's {MAX} node ids"),
        });
    }
    Ok(())
}

pub(crate) fn check_block(
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

pub(crate) fn check_stripe(stripes: usize, stripe: usize) -> Result<(), ClusterError> {
    if stripe >= stripes {
        return Err(ClusterError::UnknownBlock { stripe, block: 0 });
    }
    Ok(())
}

#[inline]
pub(crate) fn check_node(universe: usize, node: NodeId) -> Result<(), ClusterError> {
    if node.0 >= universe {
        return Err(ClusterError::UnknownNode { node: node.0 });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_block_id_packs_and_orders() {
        let a = GlobalBlockId::new(1, 2);
        assert_eq!(a.stripe(), 1);
        assert_eq!(a.block(), 2);
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
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn arena_bounds_hold_at_both_edges() {
        const MAX: usize = u32::MAX as usize;
        let rejected = |arity, stripes, nodes| {
            matches!(
                check_arena_bounds(arity, stripes, nodes),
                Err(ClusterError::InvalidPlacement { .. })
            )
        };
        // Offsets: the last cell of the largest accepted arena is MAX - 1.
        assert_eq!(check_arena_bounds(1, MAX, 9), Ok(()));
        assert!(rejected(1, MAX + 1, 9));
        assert_eq!(check_arena_bounds(2, MAX / 2, 9), Ok(()));
        assert!(rejected(2, MAX / 2 + 1, 9));
        assert_eq!(check_arena_bounds(5, MAX / 5, 9), Ok(()));
        assert!(rejected(5, MAX / 5 + 1, 9));
        // A product that overflows `usize` is rejected, not wrapped.
        assert!(rejected(2, usize::MAX, 9));
        assert!(rejected(usize::MAX, usize::MAX, 9));
        // Node ids are `0..nodes`, so MAX nodes still fit.
        assert_eq!(check_arena_bounds(2, 1, MAX), Ok(()));
        assert!(rejected(2, 1, MAX + 1));
    }
}
