//! Erasure codes with inherent double replication, for Hadoop-style storage.
//!
//! This crate is the core of the reproduction of *"Evaluation of Codes with
//! Inherent Double Replication for Hadoop"* (HotStorage 2014). It implements
//! the two coding schemes the paper evaluates — the **pentagon** /
//! **heptagon** repair-by-transfer regenerating codes and the
//! **heptagon-local** locally regenerating code — together with every
//! comparison scheme the paper uses: 2-/3-way replication, `(n, n-1)`
//! RAID+mirroring, and single-copy Reed–Solomon.
//!
//! All codes share the [`ErasureCode`] trait, which exposes:
//!
//! * the stripe *structure* (generator matrix + node layout) used by the
//!   placement, locality and reliability analyses,
//! * `encode` / `decode` over real block payloads, plus the zero-allocation
//!   [`ErasureCode::encode_into`] fast path and the buffer-reusing
//!   [`StripeEncoder`] built on it,
//! * failure analysis (`can_recover`, `fault_tolerance`,
//!   `count_fatal_patterns`), and
//! * repair and degraded-read *plans* whose network cost is measured in
//!   blocks — including the partial-parity repairs that give the array codes
//!   their repair-bandwidth advantage (§2.1, §3.1 of the paper) — and the
//!   executor that runs a plan against stored blocks ([`RepairPlan::execute`],
//!   [`ReadPlan::execute`]).
//!
//! # Quick start
//!
//! ```
//! use drc_codes::{CodeKind, ErasureCode};
//!
//! # fn main() -> Result<(), drc_codes::CodeError> {
//! let pentagon = CodeKind::Pentagon.build()?;
//!
//! // Encode a stripe of 9 data blocks.
//! let data: Vec<Vec<u8>> = (0..9).map(|i| vec![i as u8; 1024]).collect();
//! let coded = pentagon.encode(&data)?;
//! assert_eq!(coded.len(), 10); // 9 data blocks + 1 XOR parity, each stored twice
//!
//! // Any two node failures are survivable...
//! assert!(pentagon.can_recover(&[0, 3].into_iter().collect()));
//! // ...and repairing them moves only 10 blocks over the network.
//! let plan = pentagon.repair_plan(&[0, 3].into_iter().collect())?;
//! assert_eq!(plan.network_blocks(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codes;
mod encoder;
mod error;
mod execute;
mod layout;
mod reconstruct;
mod registry;
mod repair;
mod traits;

pub use codes::{PolygonCode, PolygonLocalCode, RaidMirrorCode, ReplicationCode, RsCode};
pub use encoder::StripeEncoder;
pub use error::CodeError;
pub use execute::BlockHandle;
pub use layout::{CodeStructure, NodeLayout};
pub use reconstruct::StripeReconstructor;
pub use registry::CodeKind;
pub use repair::{ReadPlan, RepairPlan, Transfer, TransferPayload};
pub use traits::{encode_parities_into, ErasureCode};
