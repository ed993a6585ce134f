//! A simulated DataNode: stores block replicas and serves reads as timed
//! events on its node's disk and NIC in the cluster-wide [`ClusterNet`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use drc_cluster::NodeId;
use drc_sim::{ClusterNet, NodeIo, Reservation, Resource, SimTime};

use crate::block::{Block, BlockKey};

/// A DataNode holding block replicas in memory — each a [`Block`] handle: a
/// length, plus shared bytes unless the file was ingested length-only.
/// Every counter and timed event here is a function of the length alone.
///
/// The node tracks how many bytes it has served and received (lock-free
/// atomics — reads are concurrent once the event-driven substrate overlaps
/// them), which the RaidNode and the file-system facade use to account
/// network traffic. Its I/O resources (disk + NIC) are *handles into the
/// cluster-wide [`ClusterNet`]*, not private copies: every store/read is a
/// timed event on the same resources other layers reserve, so repair
/// traffic, degraded reads and a MapReduce job's shuffle fetches all queue
/// on the same disks and links. The returned [`Reservation`] says when the
/// operation starts and finishes in virtual time.
#[derive(Debug)]
pub struct DataNode {
    id: NodeId,
    net: Arc<ClusterNet>,
    blocks: RwLock<BTreeMap<BlockKey, Block>>,
    bytes_served: AtomicU64,
    bytes_received: AtomicU64,
}

impl DataNode {
    /// Creates an empty DataNode whose I/O happens on `net`'s resources for
    /// this node id.
    pub fn new(id: NodeId, net: Arc<ClusterNet>) -> Self {
        DataNode {
            id,
            net,
            blocks: RwLock::new(BTreeMap::new()),
            bytes_served: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
        }
    }

    /// The block map for reading. A poisoned lock only says a panic already
    /// happened on another thread; no operation here leaves the map half
    /// updated, so the guard is taken regardless.
    fn blocks(&self) -> RwLockReadGuard<'_, BTreeMap<BlockKey, Block>> {
        self.blocks.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The block map for writing; poison-transparent like [`Self::blocks`].
    fn blocks_mut(&self) -> RwLockWriteGuard<'_, BTreeMap<BlockKey, Block>> {
        self.blocks.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cluster node this DataNode runs on.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's modeled I/O resources (disk and NIC) in the shared
    /// [`ClusterNet`].
    pub fn io(&self) -> &NodeIo {
        self.net.node(self.id)
    }

    /// Stores (or overwrites) a block replica.
    pub fn store(&self, key: BlockKey, data: Block) {
        self.bytes_received
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.blocks_mut().insert(key, data);
    }

    /// Stores a block replica as a timed event issued at `now`: the incoming
    /// bytes traverse the shared `fabric` and the node's NIC, then land on
    /// its disk — the write finishes at the reservation's end. This is the
    /// store path the file system's write and repair passes use.
    pub fn store_timed(
        &self,
        key: BlockKey,
        data: Block,
        now: SimTime,
        fabric: &Resource,
    ) -> Reservation {
        let res = drc_sim::push_to(now, self.io(), fabric, data.len() as u64);
        self.store(key, data);
        res
    }

    /// Reads a block replica, if present, counting the bytes as served.
    pub fn read(&self, key: &BlockKey) -> Option<Block> {
        let data = self.blocks().get(key).cloned();
        if let Some(d) = &data {
            self.bytes_served
                .fetch_add(d.len() as u64, Ordering::Relaxed);
        }
        data
    }

    /// Reads a block replica as a timed event issued at `now`: the read
    /// occupies the node's disk and streams out through its NIC and the
    /// shared `fabric`, queueing behind earlier I/O. This is the read path
    /// the file system's replica reads and decode fetches use.
    ///
    /// Misses cost nothing (the node answers from metadata).
    pub fn read_timed(
        &self,
        key: &BlockKey,
        now: SimTime,
        fabric: &Resource,
    ) -> Option<(Block, Reservation)> {
        let data = self.read(key)?;
        let res = drc_sim::pull_from(now, self.io(), fabric, data.len() as u64);
        Some((data, res))
    }

    /// Reads a block replica *without* counting it as served.
    ///
    /// The streaming repair path gathers payload handles up front but
    /// accounts traffic per modeled transfer (only what the repair plan
    /// actually moves), so the gather itself must be accounting-neutral;
    /// pair with [`DataNode::record_served`] for each modeled transfer.
    pub fn peek(&self, key: &BlockKey) -> Option<Block> {
        self.blocks().get(key).cloned()
    }

    /// Counts `bytes` as served by this node, for callers that model a
    /// transfer's traffic separately from fetching the payload handle
    /// (see [`DataNode::peek`]).
    pub fn record_served(&self, bytes: u64) {
        self.bytes_served.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Returns `true` if the node holds a replica of the block.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.blocks().contains_key(key)
    }

    /// Removes every block (simulates a disk wipe on permanent failure).
    ///
    /// Sole-owner payloads go back to the block pool (see
    /// [`drc_gf::bufpool`]); replicas still referenced elsewhere (another
    /// node, a live [`crate::EncodedFile`]) — and zero-copy views of a
    /// caller's buffer, which this node never owned — just drop their
    /// handle here.
    pub fn wipe(&self) {
        let blocks = std::mem::take(&mut *self.blocks_mut());
        recycle_payloads(blocks);
    }

    /// Number of block replicas stored.
    pub fn block_count(&self) -> usize {
        self.blocks().len()
    }

    /// Total bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.blocks().values().map(|b| b.len() as u64).sum()
    }

    /// Bytes served to readers so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served.load(Ordering::Relaxed)
    }

    /// Bytes received from writers and repairs so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// The keys of every block stored on this node.
    pub fn block_keys(&self) -> Vec<BlockKey> {
        self.blocks().keys().copied().collect()
    }
}

impl Drop for DataNode {
    /// Returns every sole-owner payload to the block pool, so dropping one
    /// simulation cell's file system funds the next cell's writes instead
    /// of handing gigabytes back to the allocator.
    fn drop(&mut self) {
        let blocks = std::mem::take(
            self.blocks
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        recycle_payloads(blocks);
    }
}

/// Recycles the sole-owner payloads of a drained block map.
///
/// A block replicated on several nodes is the same `Bytes` handle on each,
/// and a block ingested from an [`crate::EncodedFile`] is additionally held
/// by that file (and by every other file system it was written to); only
/// the last handle standing unwraps, so every allocation is recycled
/// exactly once and a DataNode never shelves a buffer someone else still
/// reads. A view of a writer's payload never unwraps at all (its allocation
/// is the whole payload, not a block): views are simply dropped and the
/// payload is freed by whoever built it. A sized block has no buffer at all.
fn recycle_payloads(blocks: BTreeMap<BlockKey, Block>) {
    blocks.into_values().for_each(Block::recycle_if_sole);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namenode::FileId;
    use bytes::Bytes;

    fn key(stripe: usize, block: usize) -> BlockKey {
        BlockKey::new(FileId(1), stripe, block)
    }

    fn node(id: usize) -> DataNode {
        let net = Arc::new(ClusterNet::new(&drc_cluster::ClusterSpec::simulation_25(4)));
        DataNode::new(NodeId(id), net)
    }

    #[test]
    fn store_read_wipe_cycle() {
        let dn = node(3);
        assert_eq!(dn.id(), NodeId(3));
        assert_eq!(dn.block_count(), 0);
        dn.store(key(0, 0), Bytes::from(vec![1u8, 2, 3]).into());
        dn.store(key(0, 1), Bytes::from(vec![4u8; 10]).into());
        assert_eq!(dn.block_count(), 2);
        assert_eq!(dn.used_bytes(), 13);
        assert!(dn.contains(&key(0, 0)));
        assert_eq!(dn.read(&key(0, 0)).unwrap().bytes().unwrap()[..], [1, 2, 3]);
        assert!(dn.read(&key(9, 9)).is_none());
        assert_eq!(dn.block_keys(), vec![key(0, 0), key(0, 1)]);
        dn.wipe();
        assert_eq!(dn.block_count(), 0);
    }

    #[test]
    fn traffic_counters() {
        let dn = node(0);
        dn.store(key(0, 0), Bytes::from(vec![0u8; 100]).into());
        assert_eq!(dn.bytes_received(), 100);
        assert_eq!(dn.bytes_served(), 0);
        let _ = dn.read(&key(0, 0));
        let _ = dn.read(&key(0, 0));
        assert_eq!(dn.bytes_served(), 200);
        // Misses don't count.
        let _ = dn.read(&key(1, 1));
        assert_eq!(dn.bytes_served(), 200);
        // Peeks are accounting-neutral; record_served backfills explicitly.
        assert_eq!(dn.peek(&key(0, 0)).unwrap().len(), 100);
        assert_eq!(dn.bytes_served(), 200);
        dn.record_served(50);
        assert_eq!(dn.bytes_served(), 250);
    }

    #[test]
    fn wipe_drops_views_and_shelves_only_what_it_solely_owns() {
        // Capacities no other test uses, so the shelf lookups below cannot
        // be served by (or lose their buffer to) a concurrent test.
        let block = drc_gf::bufpool::MIN_POOLED_CAPACITY + 4099;
        let dn = node(0);
        // Two views of a writer's payload, a sole-owner parity buffer, and
        // a replica whose handle a second holder (another node) keeps.
        let payload = Bytes::from(vec![5u8; 2 * block]);
        dn.store(key(0, 0), payload.slice(..block).into());
        dn.store(key(0, 1), payload.slice(block..).into());
        let parity = vec![6u8; block];
        let parity_ptr = parity.as_ptr();
        dn.store(key(0, 2), Bytes::from(parity).into());
        dn.store(key(0, 4), Block::sized(block));
        let replica = Bytes::from(vec![7u8; block + 1]);
        dn.store(key(0, 3), replica.clone().into());

        dn.wipe();
        assert_eq!(dn.block_count(), 0);
        // The sole-owner buffer is on the shelf …
        let reused = drc_gf::bufpool::take(block);
        assert_eq!(reused.as_ptr(), parity_ptr, "parity buffer recycled");
        // … the shared replica is not (its other holder still reads it) …
        assert_eq!(replica.try_unwrap().unwrap(), vec![7u8; block + 1]);
        // … and the views are gone without the payload having moved: the
        // writer is its sole owner again.
        assert_eq!(payload.try_unwrap().unwrap(), vec![5u8; 2 * block]);
    }

    #[test]
    fn timed_io_queues_on_the_node_resources() {
        let fabric = Resource::new(0.0); // infinitely fast LAN for this test
        let mib = 1024 * 1024;
        // Timing and counters are functions of the length: a block with
        // bytes and a sized one are indistinguishable here.
        for block in [
            Block::from(Bytes::from(vec![7u8; 100 * mib])),
            Block::sized(100 * mib),
        ] {
            let dn = node(1);
            // simulation_25: 100 MiB/s disks, 60 MiB/s NICs — a 100 MiB store
            // is NIC-bound at 100/60 s.
            let w = dn.store_timed(key(0, 0), block.clone(), SimTime::ZERO, &fabric);
            assert!((w.duration().as_secs_f64() - 100.0 / 60.0).abs() < 1e-6);
            let (data, r) = dn.read_timed(&key(0, 0), SimTime::ZERO, &fabric).unwrap();
            assert_eq!(data, block);
            assert_eq!(r.start, w.end, "the read queues behind the write");
            assert!(dn.read_timed(&key(5, 5), SimTime::ZERO, &fabric).is_none());
            assert_eq!(
                (dn.used_bytes(), dn.bytes_received(), dn.bytes_served()),
                (100 * mib as u64, 100 * mib as u64, 100 * mib as u64)
            );
            assert!(dn.contains(&key(0, 0)));
        }
    }

    #[test]
    fn counters_are_safe_under_concurrent_reads() {
        let dn = node(2);
        dn.store(key(0, 0), Bytes::from(vec![1u8; 1000]).into());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let _ = dn.read(&key(0, 0));
                    }
                });
            }
        });
        assert_eq!(dn.bytes_served(), 4 * 100 * 1000);
    }
}
