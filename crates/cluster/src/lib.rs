//! Cluster topology, block placement and failure injection.
//!
//! This crate models the physical substrate the paper's experiments run on:
//! a set of Hadoop data nodes with map/reduce slots, grouped into racks, with
//! known disk and network bandwidth. It provides:
//!
//! * [`ClusterSpec`] — hardware descriptions, including the paper's two
//!   experimental set-ups (§4) and the 25-node simulation cluster (§3),
//! * [`Cluster`] — runtime node state (rack membership, liveness),
//! * [`PlacementMap`] — mapping of erasure-code stripes onto cluster nodes,
//!   preserving the array-code property that all blocks of one stripe-local
//!   node land on the same cluster node (Fig. 2) — and stored as exactly
//!   those decisions: one flat arena of `u32` node ids plus its
//!   offsets grouped by host (CSR postings, see `INTERNALS.md`), a few
//!   bytes per block, which is what allows
//!   1000-node / 10M-block experiments,
//! * [`FailureTrace`] — timed failure injection: a sorted sequence of
//!   [`FailureEvent`]s (node down/up, rack bursts, slowdowns) the
//!   event-driven layers replay in virtual time; a static failure pattern
//!   is the trace with every failure at t = 0
//!   ([`FailureTrace::down_at_t0`] over [`sample_nodes`]),
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time, the
//!   instants a trace is stamped with and the simulation substrate
//!   (`drc_sim`, which re-exports both) reserves its resources in.
//!
//! # Example
//!
//! ```
//! use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
//! use drc_codes::CodeKind;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), drc_cluster::ClusterError> {
//! let cluster = Cluster::new(ClusterSpec::setup1());
//! let pentagon = CodeKind::Pentagon.build().unwrap();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let placement = PlacementMap::place(
//!     pentagon.as_ref(),
//!     &cluster,
//!     10,
//!     PlacementPolicy::Random,
//!     &mut rng,
//! )?;
//! // Every pentagon data block ends up with exactly two replicas.
//! assert!(placement.iter_data_blocks().all(|(_, nodes)| nodes.len() == 2));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod failure;
mod index;
mod placement;
mod spec;
mod time;
mod topology;

pub use error::ClusterError;
pub use failure::{sample_nodes, FailureEvent, FailureEventKind, FailureTrace};
pub use index::{CodeShape, GlobalBlockId, NodeList};
pub use placement::{PlacementMap, PlacementPolicy};
pub use spec::{ClusterSpec, Positive};
pub use time::{SimDuration, SimTime};
pub use topology::{Cluster, NodeId, RackId};
