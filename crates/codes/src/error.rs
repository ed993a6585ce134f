use std::fmt;

use drc_gf::GfError;

/// Errors produced by erasure-code construction, encoding, decoding and
/// repair planning.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodeError {
    /// The code was constructed with parameters outside its valid range.
    InvalidParameters {
        /// Name of the code being constructed.
        code: String,
        /// Explanation of what was wrong.
        reason: String,
    },
    /// Encode was called with the wrong number of data blocks.
    WrongDataBlockCount {
        /// Number of data blocks the code expects per stripe.
        expected: usize,
        /// Number of data blocks supplied.
        found: usize,
    },
    /// `encode_into` was given the wrong number of parity output buffers.
    WrongParityBlockCount {
        /// Number of non-data distinct blocks the code produces per stripe.
        expected: usize,
        /// Number of parity buffers supplied.
        found: usize,
    },
    /// Blocks passed to a single call did not all have the same length.
    UnequalBlockLengths,
    /// A block or node index was outside the valid range for the code.
    IndexOutOfRange {
        /// Description of what kind of index was out of range.
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive upper bound on valid indices.
        limit: usize,
    },
    /// The surviving blocks are insufficient to recover the lost data.
    Unrecoverable {
        /// Human-readable description of the failure pattern.
        detail: String,
    },
    /// A plan reads a block from a node that neither holds it nor was sent
    /// what rebuilds it earlier in the plan.
    NotHeld {
        /// The stripe-local sender.
        node: usize,
        /// The distinct block it was to send.
        block: usize,
    },
    /// A partial parity for `target` received at `node` combines `block`,
    /// which another partial for it combines too or its row does not weigh.
    NotATerm {
        /// The stripe-local receiver.
        node: usize,
        /// The block the partials rebuild.
        target: usize,
        /// The combined block.
        block: usize,
    },
    /// An underlying Galois-field operation failed.
    Gf(GfError),
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidParameters { code, reason } => {
                write!(f, "invalid parameters for {code}: {reason}")
            }
            CodeError::WrongDataBlockCount { expected, found } => {
                write!(f, "expected {expected} data blocks, found {found}")
            }
            CodeError::WrongParityBlockCount { expected, found } => {
                write!(
                    f,
                    "expected {expected} parity output buffers, found {found}"
                )
            }
            CodeError::UnequalBlockLengths => write!(f, "blocks have unequal lengths"),
            CodeError::IndexOutOfRange { what, index, limit } => {
                write!(f, "{what} index {index} out of range (limit {limit})")
            }
            CodeError::Unrecoverable { detail } => {
                write!(f, "failure pattern is unrecoverable: {detail}")
            }
            CodeError::NotHeld { node, block } => {
                write!(
                    f,
                    "the plan reads block {block} from node {node}, which does not hold it"
                )
            }
            CodeError::NotATerm {
                node,
                target,
                block,
            } => write!(
                f,
                "a partial for block {target} at node {node} combines block {block}, not a term of it"
            ),
            CodeError::Gf(e) => write!(f, "galois-field error: {e}"),
        }
    }
}

impl std::error::Error for CodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodeError::Gf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GfError> for CodeError {
    fn from(e: GfError) -> Self {
        CodeError::Gf(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_lowercase() {
        let errs = vec![
            CodeError::InvalidParameters {
                code: "pentagon".into(),
                reason: "n too small".into(),
            },
            CodeError::WrongDataBlockCount {
                expected: 9,
                found: 8,
            },
            CodeError::UnequalBlockLengths,
            CodeError::IndexOutOfRange {
                what: "node",
                index: 7,
                limit: 5,
            },
            CodeError::Unrecoverable {
                detail: "3 nodes lost".into(),
            },
            CodeError::Gf(GfError::SingularMatrix),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn gf_error_converts_and_sources() {
        use std::error::Error;
        let e: CodeError = GfError::DivisionByZero.into();
        assert!(e.source().is_some());
        assert!(CodeError::UnequalBlockLengths.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CodeError>();
    }
}
