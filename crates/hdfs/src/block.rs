//! Block identifiers used by the simulated file system.

use serde::{Deserialize, Serialize};

use crate::namenode::FileId;

/// Globally unique identifier of one distinct coded block: the file it
/// belongs to, the stripe within the file, and the distinct-block index
/// within the stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering() {
        let a = BlockKey::new(FileId(0), 0, 1);
        let b = BlockKey::new(FileId(0), 1, 0);
        assert!(a < b);
    }
}
