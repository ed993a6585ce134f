use std::fmt;

use drc_cluster::ClusterError;
use drc_codes::CodeError;

use crate::block::BlockKey;
use crate::namenode::FileId;

/// Errors produced by the simulated distributed file system.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HdfsError {
    /// The file id or path does not exist.
    FileNotFound {
        /// Description of the missing file (id or name).
        file: String,
    },
    /// A file with the same name already exists.
    FileExists {
        /// The conflicting name.
        name: String,
    },
    /// A block could not be found on any live DataNode and could not be
    /// reconstructed.
    BlockUnavailable {
        /// The block in question.
        block: BlockKey,
        /// Explanation (e.g. the underlying code error).
        reason: String,
    },
    /// A node id names no DataNode of this cluster
    /// ([`crate::DistributedFileSystem::repair_nodes`] was handed an unknown
    /// replacement).
    DataNodeUnavailable {
        /// The node index.
        node: usize,
    },
    /// An empty file or invalid write request.
    InvalidRequest {
        /// Explanation of the problem.
        reason: String,
    },
    /// The bytes of a file or block that was ingested length-only
    /// ([`crate::EncodedFile::sized`]) were asked for. A sized file takes
    /// part in every timed operation, but there is nothing to return.
    NoContent {
        /// Length of the file or block, in bytes.
        len: u64,
    },
    /// The underlying erasure code reported an error.
    Code(CodeError),
    /// The underlying cluster/placement layer reported an error.
    Cluster(ClusterError),
}

impl fmt::Display for HdfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdfsError::FileNotFound { file } => write!(f, "file not found: {file}"),
            HdfsError::FileExists { name } => write!(f, "file already exists: {name}"),
            HdfsError::BlockUnavailable { block, reason } => write!(
                f,
                "block (file {}, stripe {}, block {}) unavailable: {reason}",
                block.file.0, block.stripe, block.block
            ),
            HdfsError::DataNodeUnavailable { node } => write!(f, "datanode {node} unavailable"),
            HdfsError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            HdfsError::NoContent { len } => write!(
                f,
                "no content: the {len}-byte file or block was ingested length-only"
            ),
            HdfsError::Code(e) => write!(f, "erasure code error: {e}"),
            HdfsError::Cluster(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for HdfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HdfsError::Code(e) => Some(e),
            HdfsError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for HdfsError {
    fn from(e: CodeError) -> Self {
        HdfsError::Code(e)
    }
}

impl From<ClusterError> for HdfsError {
    fn from(e: ClusterError) -> Self {
        HdfsError::Cluster(e)
    }
}

impl HdfsError {
    /// Convenience constructor for a missing file id.
    pub fn file_not_found(id: FileId) -> Self {
        HdfsError::FileNotFound {
            file: format!("file id {}", id.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_sources() {
        use std::error::Error;
        let errs = vec![
            HdfsError::file_not_found(FileId(3)),
            HdfsError::FileExists { name: "a".into() },
            HdfsError::BlockUnavailable {
                block: BlockKey {
                    file: FileId(1),
                    stripe: 0,
                    block: 2,
                },
                reason: "all replicas down".into(),
            },
            HdfsError::DataNodeUnavailable { node: 4 },
            HdfsError::InvalidRequest {
                reason: "empty".into(),
            },
            HdfsError::NoContent { len: 1 << 20 },
            HdfsError::Code(CodeError::UnequalBlockLengths),
            HdfsError::Cluster(ClusterError::UnknownNode { node: 9 }),
        ];
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
        assert!(errs[6].source().is_some());
        assert!(errs[0].source().is_none());
    }
}
