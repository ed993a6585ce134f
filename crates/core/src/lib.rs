//! Reproduction of *"Evaluation of Codes with Inherent Double Replication
//! for Hadoop"* (HotStorage 2014) — top-level library.
//!
//! The repository implements the paper's coding schemes and every substrate
//! its evaluation needs, as a family of crates that this crate ties together:
//!
//! | Crate | Role |
//! |---|---|
//! | [`gf`] (`drc-gf`) | GF(2^8) arithmetic, matrices, Reed–Solomon codec |
//! | [`codes`] (`drc-codes`) | pentagon / heptagon / heptagon-local codes plus replication, RAID+m and RS baselines |
//! | [`cluster`] (`drc-cluster`) | cluster topology, block placement, failure injection |
//! | [`sim`] (`drc-sim`) | discrete-event substrate: virtual clock, event queue, modeled disk/NIC/link bandwidth, timelines |
//! | [`hdfs`] (`drc-hdfs`) | simulated HDFS + RaidNode on the event-driven substrate, operating on real block payloads |
//! | [`mapreduce`] (`drc-mapreduce`) | task schedulers (delay / max-matching / peeling), locality simulation, virtual-time MR engine |
//! | [`reliability`] (`drc-reliability`) | Markov-chain MTTDL models and Monte-Carlo validation |
//! | [`workloads`] (`drc-workloads`) | Terasort-style workload generation and load sweeps |
//!
//! The [`experiments`] module contains one driver per table / figure of the
//! paper (Table 1, the §3.1 repair-bandwidth analysis, Fig. 3, Fig. 4,
//! Fig. 5, and the §5 extension experiments); the `repro` binary in the
//! `drc-bench` crate prints them in a paper-comparable form.
//!
//! # Quick start
//!
//! ```
//! use drc_core::codes::{CodeKind, ErasureCode};
//! use drc_core::experiments::table1::run_table1;
//! use drc_core::reliability::ReliabilityParams;
//!
//! # fn main() -> Result<(), drc_core::DrcError> {
//! // The pentagon code: 9 data blocks stored as 20 blocks over 5 nodes.
//! let pentagon = CodeKind::Pentagon.build()?;
//! assert_eq!(pentagon.stored_blocks(), 20);
//!
//! // Reproduce Table 1 with the default failure/repair calibration.
//! let table1 = run_table1(&ReliabilityParams::default())?;
//! assert_eq!(table1.rows.len(), 6);
//! println!("{table1}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod experiments;
mod render;

pub use error::DrcError;
pub use render::{scientific, Row, Table, TextTable};

/// Re-export of the Galois-field substrate crate.
pub use drc_gf as gf;

/// Re-export of the erasure-codes crate (the paper's primary contribution).
pub use drc_codes as codes;

/// Re-export of the cluster/placement crate.
pub use drc_cluster as cluster;

/// Re-export of the discrete-event simulation substrate.
pub use drc_sim as sim;

/// Re-export of the simulated HDFS crate.
pub use drc_hdfs as hdfs;

/// Re-export of the MapReduce scheduling/execution crate.
pub use drc_mapreduce as mapreduce;

/// Re-export of the reliability (MTTDL) crate.
pub use drc_reliability as reliability;

/// Re-export of the workload-generation crate.
pub use drc_workloads as workloads;
