//! A simulated HDFS with erasure-coded striping (the HDFS-RAID role).
//!
//! The paper's experiments run on Hadoop 0.20 with Facebook's HDFS-RAID
//! module, extended to support the array nature of the pentagon and heptagon
//! codes. This crate is the reproduction's stand-in for that storage layer:
//!
//! * [`NameNode`] — file namespace and block→location metadata,
//! * [`DataNode`] — one node's in-memory block replicas and traffic
//!   counters, owned by the file system, which issues its timed,
//!   resource-modeled disk and NIC I/O,
//! * [`DistributedFileSystem`] — the client write/read path (striping,
//!   encoding, degraded reads) and the RaidNode repair pass, all of which
//!   operate on real block payloads when the file has them, so every
//!   reconstruction is verified byte-for-byte,
//! * [`EncodedFile`] — a file striped and encoded once, ingested by
//!   [`DistributedFileSystem::write_encoded`] into any number of
//!   deployments without touching a payload byte again — or, built with
//!   [`EncodedFile::sized`], a file of block *lengths* only, for the
//!   virtual-time experiments that never read a byte back,
//! * [`Block`] — the stored-block handle: a length plus, unless the file
//!   is length-only, shared bytes,
//! * network-byte accounting that follows the codes' repair and degraded-read
//!   plans (including the partial-parity savings of §2.1/§3.1).
//!
//! Since PR 2 the layer runs on the event-driven substrate of `drc_sim`:
//! reads, writes and repair transfers are issued as timed events against
//! modeled disk/NIC/fabric bandwidth, so repair passes and degraded reads
//! *overlap* in virtual time and contend for the same resources (see the
//! timeline machinery on [`DistributedFileSystem`]). Byte accounting is
//! unchanged and independent of the virtual clock.
//!
//! # Example
//!
//! ```
//! use drc_cluster::ClusterSpec;
//! use drc_codes::CodeKind;
//! use drc_hdfs::DistributedFileSystem;
//!
//! # fn main() -> Result<(), drc_hdfs::HdfsError> {
//! let mut spec = ClusterSpec::simulation_25(4);
//! spec.block_size_mb = 1; // keep the example light
//! let mut fs = DistributedFileSystem::new(spec, 7);
//! let data = vec![42u8; 2 * 1024 * 1024];
//! let id = fs.write_file("/demo", &data, CodeKind::Pentagon)?;
//! assert_eq!(fs.read_file(id)?, data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod datanode;
mod encoded;
mod error;
mod fs;
mod namenode;

/// The shared, cheaply cloneable byte container block payloads are held in
/// (what [`EncodedFile::encode`] stripes without a copy and a [`Block`]
/// with content wraps).
pub use bytes::Bytes;

pub use block::{Block, BlockKey};
pub use datanode::DataNode;
pub use encoded::EncodedFile;
pub use error::HdfsError;
pub use fs::{
    DistributedFileSystem, FsStats, RepairReport, DEFAULT_DETECTION_TIMEOUT,
    DEFAULT_REPAIR_CHUNK_BYTES,
};
pub use namenode::{FileId, FileMetadata, NameNode};
