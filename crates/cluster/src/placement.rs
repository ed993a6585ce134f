//! Block placement: mapping the stripes of an erasure code onto the nodes of
//! a concrete cluster.
//!
//! The key property the placement must preserve is exactly the one the paper
//! draws in Fig. 2: *all blocks assigned to the same stripe-local node land on
//! the same cluster node*. The choice of code therefore fully determines how
//! many distinct cluster nodes can serve each data block (two for all the
//! double-replication codes), and how many blocks of the same stripe pile up
//! on a single node (four for the pentagon, six for the heptagon, one for
//! RAID+m and replication) — which is what drives map-task locality.
//!
//! That same property is the storage layout: a [`PlacementMap`] keeps only
//! the `stripes × arity` host decisions, as one flat arena of `u32` node ids
//! plus its offsets grouped by host for the reverse direction, and
//! derives every per-block answer through the code's [`CodeShape`]. A few
//! bytes per block, which is what lets the `metadata_scale` experiment place
//! 10M blocks.

use rand::seq::SliceRandom;
use rand::Rng;

use drc_codes::ErasureCode;

use crate::index::{
    check_arena_bounds, check_block, check_node, check_stripe, ArenaBuild, CodeShape, NodeList,
    Postings, StripeArena,
};
use crate::topology::{Cluster, NodeId, RackId};
use crate::ClusterError;

pub use crate::index::GlobalBlockId;

/// How stripes are mapped onto cluster nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum PlacementPolicy {
    /// Each stripe picks uniformly-random distinct nodes (rack-aware when the
    /// cluster has enough racks for the code's rack groups). This is the
    /// HDFS-like default.
    #[default]
    Random,
    /// Stripe `s` uses nodes `s*L, s*L+1, ...` modulo the cluster size —
    /// deterministic and perfectly balanced; useful for tests, debugging and
    /// datacenter-scale placements (no per-stripe shuffle of the node pool).
    RoundRobin,
}

/// A full placement of `stripes` stripes of a code onto a cluster.
///
/// Immutable after [`PlacementMap::place`]: no method takes `&mut self`, so
/// the postings always agree with the arena they were derived from. (HDFS
/// repairs onto the like-numbered replacement node, which leaves every host
/// decision as placed.)
///
/// # Example
///
/// ```
/// use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
/// use drc_codes::CodeKind;
/// use rand::SeedableRng;
///
/// let code = CodeKind::Pentagon.build().unwrap();
/// let cluster = Cluster::new(ClusterSpec::simulation_25(4));
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let placement =
///     PlacementMap::place(code.as_ref(), &cluster, 5, PlacementPolicy::Random, &mut rng).unwrap();
/// assert_eq!(placement.stripe_count(), 5);
/// assert_eq!(placement.data_block_count(), 45); // 5 stripes x 9 data blocks
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    code_name: String,
    shape: CodeShape,
    arena: StripeArena,
    node_universe: usize,
    /// For each node of the universe, the arena offsets
    /// (`stripe * arity + local`) it hosts, ascending.
    postings: Postings,
}

impl PlacementMap {
    /// Places `stripes` stripes of `code` onto the *up* nodes of `cluster`.
    ///
    /// With [`PlacementPolicy::Random`], each stripe's code nodes are mapped
    /// to distinct cluster nodes chosen uniformly at random; if the cluster
    /// has at least as many racks as the code has rack groups, each rack
    /// group is confined to its own rack (the rack-aware layout described for
    /// the heptagon-local code in §2.2).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InsufficientNodes`] if the code length exceeds
    /// the number of up nodes, or [`ClusterError::InvalidPlacement`] if
    /// `stripes` is zero or `stripes × arity` (or the cluster size) exceeds
    /// the `u32` range the index stores offsets and node ids in.
    pub fn place<R: Rng + ?Sized>(
        code: &dyn ErasureCode,
        cluster: &Cluster,
        stripes: usize,
        policy: PlacementPolicy,
        rng: &mut R,
    ) -> Result<Self, ClusterError> {
        if stripes == 0 {
            return Err(ClusterError::InvalidPlacement {
                reason: "at least one stripe is required".to_string(),
            });
        }
        let arity = code.node_count();
        let node_universe = cluster.len();
        check_arena_bounds(arity, stripes, node_universe)?;
        // The up-node ring in id order, narrowed to the arena's cell type
        // once (`check_arena_bounds` made that lossless), in one allocation
        // whatever the cluster size.
        let mut up = Vec::with_capacity(node_universe);
        let up_ids = cluster.nodes().filter(|&n| cluster.is_up(n));
        up.extend(up_ids.map(|n| n.0 as u32));
        if arity > up.len() {
            return Err(ClusterError::InsufficientNodes {
                needed: arity,
                available: up.len(),
            });
        }
        // Placing 10M stripes must allocate nothing per stripe and never
        // recount the finished arena: beyond the index itself either arm
        // holds O(nodes) bytes, sized once (INTERNALS.md, "Build").
        let (arena, postings) = match policy {
            // Element `i` of stripe `s` is `up[(s * arity + i) % up.len()]`:
            // the flat arena is the ring repeated.
            PlacementPolicy::RoundRobin => StripeArena::cyclic(arity, stripes, &up, node_universe),
            PlacementPolicy::Random => {
                let mut build = ArenaBuild::new(arity, stripes, node_universe);
                let mut draw = RandomDraw::new(code, cluster, &up);
                for _ in 0..stripes {
                    build.push_row(draw.next_row(rng));
                }
                build.finish()
            }
        };
        Ok(PlacementMap {
            code_name: code.name().to_string(),
            shape: CodeShape::of(code),
            arena,
            node_universe,
            postings,
        })
    }

    /// Name of the code this placement was built for.
    pub fn code_name(&self) -> &str {
        &self.code_name
    }

    /// Number of stripes placed.
    pub fn stripe_count(&self) -> usize {
        self.arena.stripe_count()
    }

    /// Number of data blocks per stripe of the underlying code.
    pub fn data_blocks_per_stripe(&self) -> usize {
        self.shape.data_blocks()
    }

    /// Number of distinct blocks (data and parity) per stripe.
    pub fn distinct_blocks_per_stripe(&self) -> usize {
        self.shape.distinct_blocks()
    }

    /// The code's arity: cluster nodes spanned by one stripe.
    pub fn arity(&self) -> usize {
        self.shape.arity()
    }

    /// Total number of *data* blocks across all stripes.
    pub fn data_block_count(&self) -> usize {
        self.stripe_count() * self.data_blocks_per_stripe()
    }

    /// Number of cluster nodes the placement was built against; node ids
    /// `0..node_universe()` are valid query arguments.
    pub fn node_universe(&self) -> usize {
        self.node_universe
    }

    /// The cluster nodes holding a replica of `block`, in the code's replica
    /// order.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownBlock`] for a stripe or block index out of
    /// range — unknown ids are an error, not an empty answer.
    pub fn locations(&self, block: GlobalBlockId) -> Result<NodeList, ClusterError> {
        let mut nodes = NodeList::new();
        self.for_each_location(block, |n| nodes.push(n))?;
        Ok(nodes)
    }

    /// Calls `f` with every cluster node holding a replica of `block`, in
    /// the code's replica order, straight from the arena row — the
    /// [`locations`](Self::locations) answer without building a
    /// [`NodeList`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownBlock`] for a stripe or block index out of
    /// range; `f` is then never called.
    #[inline]
    pub fn for_each_location(
        &self,
        block: GlobalBlockId,
        mut f: impl FnMut(NodeId),
    ) -> Result<(), ClusterError> {
        check_block(&self.shape, self.stripe_count(), block)?;
        let row = self.arena.row(block.stripe());
        for &local in self.shape.locals_of_block(block.block()) {
            f(NodeId(row[local as usize] as usize));
        }
        Ok(())
    }

    /// The cluster nodes hosting stripe `stripe`'s local nodes, in local
    /// order.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownBlock`] if the stripe index is out of range.
    pub fn stripe_hosts(&self, stripe: usize) -> Result<NodeList, ClusterError> {
        check_stripe(self.stripe_count(), stripe)?;
        Ok(self
            .arena
            .row(stripe)
            .iter()
            .map(|&n| NodeId(n as usize))
            .collect())
    }

    /// All blocks (data and parity) stored on `node`, in ascending
    /// `(stripe, block)` order.
    ///
    /// Allocates the answer; repair-style scans should prefer
    /// [`PlacementMap::for_each_block_on_node`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] if `node` is outside the placement's
    /// node universe. A valid node storing nothing yields an empty vector.
    pub fn blocks_on_node(&self, node: NodeId) -> Result<Vec<GlobalBlockId>, ClusterError> {
        let mut blocks = Vec::new();
        self.for_each_block_on_node(node, |id| blocks.push(id))?;
        Ok(blocks)
    }

    /// Calls `f` with every block (data and parity) stored on `node`, in
    /// ascending `(stripe, block)` order, without allocating.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] if `node` is outside the placement's
    /// node universe.
    pub fn for_each_block_on_node(
        &self,
        node: NodeId,
        mut f: impl FnMut(GlobalBlockId),
    ) -> Result<(), ClusterError> {
        self.for_each_stripe_on_node(node, |stripe, local| {
            for &block in self.shape.blocks_of_local(local) {
                f(GlobalBlockId::new(stripe, block as usize));
            }
        })
    }

    /// Calls `f` with every `(stripe, local)` pair hosted by `node`, in
    /// ascending stripe order — the granularity repair works at.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] if `node` is outside the placement's
    /// node universe.
    pub fn for_each_stripe_on_node(
        &self,
        node: NodeId,
        mut f: impl FnMut(usize, usize),
    ) -> Result<(), ClusterError> {
        check_node(self.node_universe, node)?;
        for &offset in self.postings.of(node.0) {
            let (stripe, local) = self.arena.cell(offset);
            f(stripe, local);
        }
        Ok(())
    }

    /// Number of blocks stored on `node`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] if `node` is outside the placement's
    /// node universe.
    pub fn node_block_count(&self, node: NodeId) -> Result<usize, ClusterError> {
        let mut count = 0;
        self.for_each_stripe_on_node(node, |_, local| {
            count += self.shape.blocks_of_local(local).len();
        })?;
        Ok(count)
    }

    /// Iterates over every data block together with its replica locations,
    /// in ascending `(stripe, block)` order.
    pub fn iter_data_blocks(&self) -> impl Iterator<Item = (GlobalBlockId, NodeList)> + '_ {
        let data = self.data_blocks_per_stripe();
        (0..self.stripe_count()).flat_map(move |stripe| {
            (0..data).map(move |block| {
                let id = GlobalBlockId::new(stripe, block);
                let nodes = self
                    .locations(id)
                    // drc-lint: allow(panic-hygiene): iterator adaptor cannot return Err;
                    // placed stripes enumerate in-range ids, the only locations() failure.
                    .expect("data blocks of placed stripes are valid ids");
                (id, nodes)
            })
        })
    }

    /// The set of data blocks, in deterministic `(stripe, block)` order.
    pub fn data_blocks(&self) -> Vec<GlobalBlockId> {
        let data = self.data_blocks_per_stripe();
        (0..self.stripe_count())
            .flat_map(|stripe| (0..data).map(move |block| GlobalBlockId::new(stripe, block)))
            .collect()
    }

    /// Heap bytes resident in the index, by its own accounting: the
    /// capacities of the arena, the postings and the code shape.
    pub fn heap_bytes(&self) -> usize {
        self.code_name.capacity()
            + self.shape.heap_bytes()
            + self.arena.heap_bytes()
            + self.postings.heap_bytes()
    }
}

/// Row value of a stripe-local node no rack group has placed yet; no node
/// id reaches it (`check_arena_bounds` caps ids at `u32::MAX - 1`).
const UNPLACED: u32 = u32::MAX;

/// The [`PlacementPolicy::Random`] stripe draw and the scratch it reuses
/// from stripe to stripe. The rng is consumed exactly as if every pool were
/// collected afresh — one full shuffle of the rack order, one of each chosen
/// rack's up nodes, or one of the whole up ring — so a seed places the same
/// stripes whatever the buffers' history.
struct RandomDraw<'a> {
    up: &'a [u32],
    groups: &'a [Vec<usize>],
    /// Each rack's up nodes in id order; empty unless the draw is
    /// rack-aware (several rack groups and at least as many racks).
    rack_up: Vec<Vec<u32>>,
    /// Rack ids, reshuffled per stripe.
    rack_order: Vec<usize>,
    /// The rack given to each group of the current stripe.
    chosen: Vec<usize>,
    pool: Vec<u32>,
    /// One host per stripe-local node: the rack-aware draw's output.
    row: Vec<u32>,
}

impl<'a> RandomDraw<'a> {
    fn new(code: &'a dyn ErasureCode, cluster: &Cluster, up: &'a [u32]) -> Self {
        let groups = code.rack_groups();
        let racks = cluster.rack_count();
        let rack_up: Vec<Vec<u32>> = if groups.len() > 1 && racks >= groups.len() {
            (0..racks)
                .map(|rack| {
                    let nodes = cluster.nodes_in_rack(RackId(rack));
                    let up_in_rack = nodes.iter().filter(|&&n| cluster.is_up(n));
                    up_in_rack.map(|n| n.0 as u32).collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        RandomDraw {
            up,
            groups,
            rack_order: Vec::with_capacity(rack_up.len()),
            rack_up,
            chosen: Vec::with_capacity(groups.len()),
            pool: Vec::with_capacity(up.len()),
            row: vec![UNPLACED; code.node_count()],
        }
    }

    /// The next stripe's hosts in local order: distinct up nodes, each rack
    /// group confined to a rack of its own when the racks allow it, drawn
    /// uniformly from the whole up ring otherwise.
    fn next_row<R: Rng + ?Sized>(&mut self, rng: &mut R) -> &[u32] {
        if !self.rack_up.is_empty() && self.draw_rack_aware(rng) {
            return &self.row;
        }
        self.pool.clear();
        self.pool.extend_from_slice(self.up);
        self.pool.shuffle(rng);
        &self.pool[..self.row.len()]
    }

    /// Fills `row` with one rack per group, or reports that this stripe's
    /// rack order leaves some group without a large enough rack.
    fn draw_rack_aware<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        self.rack_order.clear();
        self.rack_order.extend(0..self.rack_up.len());
        self.rack_order.shuffle(rng);
        self.chosen.clear();
        for group in self.groups {
            // The first not-yet-used rack with enough up nodes.
            let rack = self.rack_order.iter().copied().find(|&rack| {
                !self.chosen.contains(&rack) && self.rack_up[rack].len() >= group.len()
            });
            match rack {
                Some(rack) => self.chosen.push(rack),
                None => return false,
            }
        }
        self.row.fill(UNPLACED);
        for (group, &rack) in self.groups.iter().zip(&self.chosen) {
            self.pool.clear();
            self.pool.extend_from_slice(&self.rack_up[rack]);
            self.pool.shuffle(rng);
            for (&local, &node) in group.iter().zip(&self.pool) {
                self.row[local] = node;
            }
        }
        !self.row.contains(&UNPLACED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;
    use drc_codes::CodeKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn rejects_zero_stripes_and_small_clusters() {
        let code = CodeKind::Pentagon.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(2));
        assert!(matches!(
            PlacementMap::place(
                code.as_ref(),
                &cluster,
                0,
                PlacementPolicy::Random,
                &mut rng(1)
            ),
            Err(ClusterError::InvalidPlacement { .. })
        ));
        // The paper's point about code length: a (10,9) RAID+m stripe spans 20
        // nodes and therefore does not fit a 9-node cluster.
        let raid_m = CodeKind::RAID_M_10_9.build().unwrap();
        let small = Cluster::new(ClusterSpec::setup2());
        assert!(matches!(
            PlacementMap::place(
                raid_m.as_ref(),
                &small,
                1,
                PlacementPolicy::Random,
                &mut rng(1)
            ),
            Err(ClusterError::InsufficientNodes {
                needed: 20,
                available: 9
            })
        ));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn rejects_placements_beyond_the_u32_arena_before_allocating() {
        // One stripe past the bound would reserve a 16 GiB arena (and wrap
        // its reverse-scan offsets) if the check did not come first.
        let code = CodeKind::TWO_REP.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::setup2());
        for stripes in [u32::MAX as usize / 2 + 1, usize::MAX] {
            assert!(matches!(
                PlacementMap::place(
                    code.as_ref(),
                    &cluster,
                    stripes,
                    PlacementPolicy::RoundRobin,
                    &mut rng(1)
                ),
                Err(ClusterError::InvalidPlacement { .. })
            ));
        }
    }

    #[test]
    fn stripe_nodes_are_distinct_and_up() {
        let code = CodeKind::Heptagon.build().unwrap();
        let mut cluster = Cluster::new(ClusterSpec::simulation_25(2));
        cluster.set_down(NodeId(0));
        cluster.set_down(NodeId(13));
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            40,
            PlacementPolicy::Random,
            &mut rng(3),
        )
        .unwrap();
        for stripe in 0..placement.stripe_count() {
            let hosts = placement.stripe_hosts(stripe).unwrap();
            let mut seen = std::collections::BTreeSet::new();
            for &n in &hosts {
                assert!(cluster.is_up(n), "placed on a down node");
                assert!(seen.insert(n), "node reused within a stripe");
            }
            assert_eq!(hosts.len(), 7);
        }
    }

    #[test]
    fn every_data_block_has_two_locations_for_double_replication_codes() {
        for kind in [CodeKind::Pentagon, CodeKind::Heptagon, CodeKind::TWO_REP] {
            let code = kind.build().unwrap();
            let cluster = Cluster::new(ClusterSpec::simulation_25(4));
            let placement = PlacementMap::place(
                code.as_ref(),
                &cluster,
                10,
                PlacementPolicy::Random,
                &mut rng(11),
            )
            .unwrap();
            for (id, nodes) in placement.iter_data_blocks() {
                assert_eq!(nodes.len(), 2, "{kind} block {id:?}");
                assert_ne!(nodes[0], nodes[1]);
            }
        }
    }

    #[test]
    fn blocks_of_same_stripe_node_colocate() {
        // Fig. 2's property: all blocks of one pentagon node map to one data node.
        let code = CodeKind::Pentagon.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            5,
            PlacementPolicy::RoundRobin,
            &mut rng(5),
        )
        .unwrap();
        for stripe in 0..placement.stripe_count() {
            let hosts = placement.stripe_hosts(stripe).unwrap();
            for local in 0..code.node_count() {
                let host = hosts[local];
                for &block in code.node_blocks(local) {
                    let id = GlobalBlockId::new(stripe, block);
                    assert!(placement.locations(id).unwrap().contains(&host));
                }
            }
        }
        // Each cluster node used by a stripe stores exactly 4 of its blocks.
        let hosts = placement.stripe_hosts(0).unwrap();
        for &node in &hosts {
            let count = placement
                .blocks_on_node(node)
                .unwrap()
                .iter()
                .filter(|b| b.stripe() == 0)
                .count();
            assert_eq!(count, 4);
        }
    }

    #[test]
    fn round_robin_walks_the_up_nodes_modulo_their_count() {
        // Arities that divide the pool, wrap mid-stripe, and nearly fill it,
        // on a pool with a hole (the cursor indexes `up`, not node ids).
        let mut cluster = Cluster::new(ClusterSpec::simulation_25(4));
        cluster.set_down(NodeId(3));
        let up = cluster.up_nodes();
        for kind in [
            CodeKind::TWO_REP,
            CodeKind::Pentagon,
            CodeKind::HeptagonLocal,
        ] {
            let code = kind.build().unwrap();
            let arity = code.node_count();
            let placement = PlacementMap::place(
                code.as_ref(),
                &cluster,
                60,
                PlacementPolicy::RoundRobin,
                &mut rng(1),
            )
            .unwrap();
            for stripe in 0..60 {
                let want: Vec<NodeId> = (0..arity)
                    .map(|i| up[(stripe * arity + i) % up.len()])
                    .collect();
                assert_eq!(
                    &placement.stripe_hosts(stripe).unwrap()[..],
                    &want[..],
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn rack_aware_placement_separates_heptagon_local_groups() {
        let code = CodeKind::HeptagonLocal.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(4)); // 3 racks
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            20,
            PlacementPolicy::Random,
            &mut rng(17),
        )
        .unwrap();
        for stripe in 0..placement.stripe_count() {
            let hosts = placement.stripe_hosts(stripe).unwrap();
            let rack_of = |local: usize| cluster.rack_of(hosts[local]).unwrap();
            // All of heptagon 0 in one rack, all of heptagon 1 in another,
            // the global node in a third.
            let r0 = rack_of(0);
            assert!((1..7).all(|l| rack_of(l) == r0));
            let r1 = rack_of(7);
            assert!((8..14).all(|l| rack_of(l) == r1));
            let rg = rack_of(14);
            assert_ne!(r0, r1);
            assert_ne!(r0, rg);
            assert_ne!(r1, rg);
        }
    }

    #[test]
    fn counts_and_lookup_accessors() {
        let code = CodeKind::TWO_REP.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::setup2());
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            12,
            PlacementPolicy::Random,
            &mut rng(23),
        )
        .unwrap();
        assert_eq!(placement.code_name(), "2-rep");
        assert_eq!(placement.stripe_count(), 12);
        assert_eq!(placement.data_blocks_per_stripe(), 1);
        assert_eq!(placement.data_block_count(), 12);
        assert_eq!(placement.data_blocks().len(), 12);
        assert_eq!(placement.node_universe(), 9);
        // Unknown ids are errors, not silently empty answers.
        assert_eq!(
            placement.locations(GlobalBlockId::new(99, 0)),
            Err(ClusterError::UnknownBlock {
                stripe: 99,
                block: 0
            })
        );
        assert_eq!(
            placement.locations(GlobalBlockId::new(0, 7)),
            Err(ClusterError::UnknownBlock {
                stripe: 0,
                block: 7
            })
        );
        let mut calls = 0;
        assert_eq!(
            placement.for_each_location(GlobalBlockId::new(0, 7), |_| calls += 1),
            Err(ClusterError::UnknownBlock {
                stripe: 0,
                block: 7
            })
        );
        assert_eq!(calls, 0, "no location of an unknown block");
        assert_eq!(
            placement.blocks_on_node(NodeId(999)),
            Err(ClusterError::UnknownNode { node: 999 })
        );
        assert!(placement.stripe_hosts(12).is_err());
        // Total stored blocks across nodes = stripes * stored blocks per stripe.
        let stored: usize = cluster
            .nodes()
            .map(|n| placement.node_block_count(n).unwrap())
            .sum();
        assert_eq!(stored, 12 * 2);
    }

    #[test]
    fn placement_is_deterministic_given_seed() {
        let code = CodeKind::Pentagon.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(2));
        let a = PlacementMap::place(
            code.as_ref(),
            &cluster,
            8,
            PlacementPolicy::Random,
            &mut rng(42),
        )
        .unwrap();
        let b = PlacementMap::place(
            code.as_ref(),
            &cluster,
            8,
            PlacementPolicy::Random,
            &mut rng(42),
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
