//! The simulated NameNode: the file namespace and the block→location map.
//!
//! Liveness detection (which node is silent, since when, and when it is
//! declared dead) is not NameNode state: the file-system facade holds a
//! `drc_sim::FailureReplay` for that, the same one the MapReduce engine
//! consumes.

use std::collections::BTreeMap;
use std::sync::Arc;

use drc_cluster::{NodeList, PlacementMap};
use drc_codes::CodeKind;
use drc_sim::SimTime;

use crate::block::BlockKey;
use crate::HdfsError;

/// Identifier of a file in the namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// Metadata the NameNode keeps for one file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMetadata {
    /// The file id.
    pub id: FileId,
    /// The file's name (unique within the namespace).
    pub name: String,
    /// Logical file size in bytes (before padding).
    pub size: u64,
    /// Block size used when striping the file.
    pub block_size: u64,
    /// The coding scheme protecting the file.
    pub code: CodeKind,
    /// Number of stripes.
    pub stripes: usize,
    /// Number of data blocks per stripe.
    pub data_blocks_per_stripe: usize,
    /// The virtual instant the file's write was issued (the event-driven
    /// substrate's clock; writes before the substrate existed read as zero).
    pub created_at: SimTime,
    /// Whether the file's blocks were ingested with their bytes. `false`
    /// for a length-only file ([`crate::EncodedFile::sized`]), whose
    /// content-returning reads fail with [`HdfsError::NoContent`].
    pub has_content: bool,
    /// The stripe→cluster-node placement, shared (the engine clones file
    /// metadata freely; at 10M blocks the placement must not be deep-copied).
    pub placement: Arc<PlacementMap>,
}

impl FileMetadata {
    /// Number of data blocks that actually carry file content (the final
    /// stripe may be partially filled with padding blocks).
    pub fn content_blocks(&self) -> usize {
        (self.size as usize).div_ceil(self.block_size as usize)
    }

    /// The cluster nodes holding a replica of the given block.
    ///
    /// # Errors
    ///
    /// Returns the placement's [`drc_cluster::ClusterError::UnknownBlock`]
    /// (wrapped in [`HdfsError::Cluster`]) for out-of-range indices —
    /// unknown blocks are an error, never an empty location list.
    pub fn block_locations(&self, stripe: usize, block: usize) -> Result<NodeList, HdfsError> {
        Ok(self
            .placement
            .locations(drc_cluster::GlobalBlockId::new(stripe, block))?)
    }

    /// The keys of the data blocks that carry file content, in file order.
    pub fn content_block_keys(&self) -> Vec<BlockKey> {
        (0..self.content_blocks())
            .map(|i| BlockKey {
                file: self.id,
                stripe: i / self.data_blocks_per_stripe,
                block: i % self.data_blocks_per_stripe,
            })
            .collect()
    }
}

/// The file namespace plus block-location bookkeeping.
#[derive(Debug, Default)]
pub struct NameNode {
    /// Every file's metadata, indexed by [`FileId`]: ids are handed out
    /// 0, 1, 2, … and never removed, so the next id is the length.
    files: Vec<FileMetadata>,
    by_name: BTreeMap<String, FileId>,
}

impl NameNode {
    /// Creates an empty namespace.
    pub fn new() -> Self {
        NameNode::default()
    }

    /// Registers a new file and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`HdfsError::FileExists`] if the name is already taken.
    // One parameter per FileMetadata field the caller decides; a builder
    // would only restate this signature.
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        name: &str,
        size: u64,
        block_size: u64,
        code: CodeKind,
        data_blocks_per_stripe: usize,
        created_at: SimTime,
        has_content: bool,
        placement: PlacementMap,
    ) -> Result<FileId, HdfsError> {
        if self.by_name.contains_key(name) {
            return Err(HdfsError::FileExists {
                name: name.to_string(),
            });
        }
        let id = FileId(self.files.len() as u64);
        let meta = FileMetadata {
            id,
            name: name.to_string(),
            size,
            block_size,
            code,
            stripes: placement.stripe_count(),
            data_blocks_per_stripe,
            created_at,
            has_content,
            placement: Arc::new(placement),
        };
        self.files.push(meta);
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a file by id.
    ///
    /// # Errors
    ///
    /// Returns [`HdfsError::FileNotFound`] if the id is unknown.
    pub fn file(&self, id: FileId) -> Result<&FileMetadata, HdfsError> {
        usize::try_from(id.0)
            .ok()
            .and_then(|index| self.files.get(index))
            .ok_or_else(|| HdfsError::file_not_found(id))
    }

    /// Iterates over every file's metadata, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &FileMetadata> {
        self.files.iter()
    }

    /// Number of files in the namespace.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Returns `true` if the namespace is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drc_cluster::{Cluster, ClusterSpec, PlacementPolicy};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn placement(stripes: usize) -> PlacementMap {
        let cluster = Cluster::new(ClusterSpec::simulation_25(2));
        let code = CodeKind::Pentagon.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        PlacementMap::place(
            code.as_ref(),
            &cluster,
            stripes,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut nn = NameNode::new();
        assert!(nn.is_empty());
        let id = nn
            .register(
                "/data/a",
                1000,
                128,
                CodeKind::Pentagon,
                9,
                SimTime::ZERO,
                true,
                placement(2),
            )
            .unwrap();
        assert_eq!(nn.len(), 1);
        assert_eq!(nn.file(id).unwrap().name, "/data/a");
        assert!(nn
            .register(
                "/data/a",
                10,
                128,
                CodeKind::TWO_REP,
                1,
                SimTime::ZERO,
                true,
                placement(1)
            )
            .is_err());
        assert!(nn.file(FileId(id.0 + 1)).is_err());
    }

    #[test]
    fn metadata_block_math() {
        let mut nn = NameNode::new();
        let id = nn
            .register(
                "/f",
                1000,
                128,
                CodeKind::Pentagon,
                9,
                SimTime::ZERO,
                true,
                placement(2),
            )
            .unwrap();
        let meta = nn.file(id).unwrap();
        assert_eq!(meta.content_blocks(), 8); // ceil(1000 / 128)
        assert_eq!(meta.stripes, 2);
        let keys = meta.content_block_keys();
        assert_eq!(keys.len(), 8);
        assert!(keys.iter().all(|k| k.stripe == 0 && k.block < 9));
        assert_eq!(meta.block_locations(0, 0).unwrap().len(), 2);
        assert!(meta.block_locations(99, 0).is_err());
    }
}
