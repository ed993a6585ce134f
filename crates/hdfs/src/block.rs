//! Block identifiers and stored-block handles of the simulated file system.

use bytes::Bytes;

use crate::namenode::FileId;
use crate::HdfsError;

/// Globally unique identifier of one distinct coded block: the file it
/// belongs to, the stripe within the file, and the distinct-block index
/// within the stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockKey {
    /// Owning file.
    pub file: FileId,
    /// Stripe index within the file.
    pub stripe: usize,
    /// Distinct-block index within the stripe (`< k` for data blocks).
    pub block: usize,
}

impl BlockKey {
    /// Creates a block key.
    pub fn new(file: FileId, stripe: usize, block: usize) -> Self {
        BlockKey {
            file,
            stripe,
            block,
        }
    }
}

/// One stored block replica: its length and — unless the file was ingested
/// length-only ([`crate::EncodedFile::sized`]) — a shared handle to its
/// bytes.
///
/// Every timed event, plan and counter of the file system is a function of
/// block *lengths*; only the content-returning calls and the GF rebuilds
/// need the bytes. A sized block therefore moves through writes, reads,
/// degraded reads and repairs exactly like a real one, and a block rebuilt
/// from sized sources is a sized block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    len: usize,
    content: Option<Bytes>,
}

impl Block {
    /// A `len`-byte block with no bytes behind it.
    pub fn sized(len: usize) -> Self {
        Block { len, content: None }
    }

    /// The block's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block's bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HdfsError::NoContent`] for a sized block — never zeros.
    pub fn bytes(&self) -> Result<&Bytes, HdfsError> {
        self.content.as_ref().ok_or(HdfsError::NoContent {
            len: self.len as u64,
        })
    }

    /// The first `len` bytes of the block (a view when it has content).
    pub(crate) fn prefix(&self, len: usize) -> Block {
        debug_assert!(len <= self.len);
        match &self.content {
            Some(bytes) => bytes.slice(..len).into(),
            None => Block::sized(len),
        }
    }

    /// Returns the block's buffer to [`drc_gf::bufpool`] if this is the last
    /// handle to it. A view never unwraps (its allocation is a writer's
    /// whole payload, not a block), neither does a handle shared with
    /// another holder, and a sized block has no buffer — so every
    /// allocation is shelved exactly once, by its last owner.
    pub(crate) fn recycle_if_sole(self) {
        if let Some(Ok(buf)) = self.content.map(Bytes::try_unwrap) {
            drc_gf::bufpool::recycle(buf);
        }
    }
}

impl From<Bytes> for Block {
    fn from(content: Bytes) -> Self {
        Block {
            len: content.len(),
            content: Some(content),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sized_block_has_a_length_and_no_bytes() {
        let sized = Block::sized(4096);
        assert_eq!((sized.len(), sized.is_empty()), (4096, false));
        assert_eq!(sized.bytes(), Err(HdfsError::NoContent { len: 4096 }));
        assert_eq!(sized.prefix(100), Block::sized(100));
        assert!(Block::sized(0).is_empty());

        let real = Block::from(Bytes::from(vec![7u8; 4096]));
        assert_eq!(real.len(), 4096);
        assert_eq!(real.bytes().unwrap()[..], [7u8; 4096]);
        assert_eq!(real.prefix(100).bytes().unwrap()[..], [7u8; 100]);
        assert_ne!(real, sized, "same length, different kind");
    }

    #[test]
    fn ordering() {
        let a = BlockKey::new(FileId(0), 0, 1);
        let b = BlockKey::new(FileId(0), 1, 0);
        assert!(a < b);
    }
}
