//! A simulated DataNode: the block replicas one cluster node stores, and
//! the bytes it has served and received.
//!
//! A DataNode has one owner, the [`crate::DistributedFileSystem`], which
//! also owns the cluster's [`drc_sim::ClusterNet`] and issues every timed
//! store and read against the node's disk and NIC there. The node itself
//! only keeps the replica map and its two traffic counters, mutated through
//! `&mut self`: operations that overlap in virtual time are still issued
//! one after another by that owner, so nothing here is shared between
//! threads. The counters are the only per-node traffic record; the file
//! system's totals ([`crate::FsStats`]) are read off its timeline, not
//! summed from them.

use std::collections::BTreeMap;

use crate::block::{Block, BlockKey};

/// A DataNode holding block replicas in memory — each a [`Block`] handle: a
/// length, plus shared bytes unless the file was ingested length-only.
/// Every counter here is a function of the length alone.
///
/// The node counts how many bytes it has served and received: a store
/// counts itself, and the file system charges every pull it issues from
/// the node with `record_served`. Its mutators are the file system's; the
/// public surface is read-only.
#[derive(Debug, Default)]
pub struct DataNode {
    blocks: BTreeMap<BlockKey, Block>,
    bytes_served: u64,
    bytes_received: u64,
}

impl DataNode {
    /// Stores (or overwrites) a block replica.
    pub(crate) fn store(&mut self, key: BlockKey, data: Block) {
        self.bytes_received += data.len() as u64;
        self.blocks.insert(key, data);
    }

    /// Reads a block replica *without* counting it as served: a handle is
    /// not a transfer. The file system charges each pull it issues with
    /// `record_served` — a replica read its block, a repair or degraded
    /// read's sender one block per fetch of its plan.
    pub fn peek(&self, key: &BlockKey) -> Option<Block> {
        self.blocks.get(key).cloned()
    }

    /// Counts `bytes` as served by this node, for a pull the file system
    /// issued from it (see [`DataNode::peek`]).
    pub(crate) fn record_served(&mut self, bytes: u64) {
        self.bytes_served += bytes;
    }

    /// Returns `true` if the node holds a replica of the block.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.blocks.contains_key(key)
    }

    /// Removes every block (simulates a disk wipe on permanent failure).
    ///
    /// Sole-owner payloads go back to the block pool (see
    /// [`drc_gf::bufpool`]); replicas still referenced elsewhere (another
    /// node, a live [`crate::EncodedFile`]) — and zero-copy views of a
    /// caller's buffer, which this node never owned — just drop their
    /// handle here.
    pub(crate) fn wipe(&mut self) {
        recycle_payloads(std::mem::take(&mut self.blocks));
    }

    /// Number of block replicas stored.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.blocks.values().map(|b| b.len() as u64).sum()
    }

    /// Bytes served to readers so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Bytes received from writers and repairs so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// The keys of every block stored on this node.
    pub fn block_keys(&self) -> Vec<BlockKey> {
        self.blocks.keys().copied().collect()
    }
}

impl Drop for DataNode {
    /// Returns every sole-owner payload to the block pool, so dropping one
    /// simulation cell's file system funds the next cell's writes instead
    /// of handing gigabytes back to the allocator.
    fn drop(&mut self) {
        self.wipe();
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

    #[test]
    fn store_read_wipe_cycle() {
        let mut dn = DataNode::default();
        assert_eq!(dn.block_count(), 0);
        dn.store(key(0, 0), Bytes::from(vec![1u8, 2, 3]).into());
        dn.store(key(0, 1), Bytes::from(vec![4u8; 10]).into());
        assert_eq!(dn.block_count(), 2);
        assert_eq!(dn.used_bytes(), 13);
        assert!(dn.contains(&key(0, 0)));
        assert_eq!(dn.peek(&key(0, 0)).unwrap().bytes().unwrap()[..], [1, 2, 3]);
        assert!(dn.peek(&key(9, 9)).is_none());
        assert_eq!(dn.block_keys(), vec![key(0, 0), key(0, 1)]);
        dn.wipe();
        assert_eq!(dn.block_count(), 0);
    }

    #[test]
    fn traffic_counters() {
        let mut dn = DataNode::default();
        dn.store(key(0, 0), Bytes::from(vec![0u8; 100]).into());
        assert_eq!(dn.bytes_received(), 100);
        // Peeks are accounting-neutral; record_served charges explicitly.
        assert_eq!(dn.peek(&key(0, 0)).unwrap().len(), 100);
        assert!(dn.peek(&key(1, 1)).is_none());
        assert_eq!(dn.bytes_served(), 0);
        dn.record_served(50);
        assert_eq!(dn.bytes_served(), 50);
    }

    #[test]
    fn wipe_drops_views_and_shelves_only_what_it_solely_owns() {
        // Capacities no other test uses, so the shelf lookups below cannot
        // be served by (or lose their buffer to) a concurrent test.
        let block = drc_gf::bufpool::MIN_POOLED_CAPACITY + 4099;
        let mut dn = DataNode::default();
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
}
