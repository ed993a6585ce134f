//! MapReduce task scheduling and execution simulation for the
//! double-replication Hadoop codes.
//!
//! The paper's central question is how the pentagon / heptagon array codes —
//! which concentrate several blocks of a stripe on the same node — affect
//! MapReduce behaviour. This crate provides the three layers needed to answer
//! it without a physical Hadoop cluster:
//!
//! * the **task–node bipartite graph** of §3.2 ([`TaskNodeGraph`]),
//! * the three **schedulers** compared in Fig. 3 ([`DelayScheduler`],
//!   [`MaxMatchingScheduler`], [`PeelingScheduler`]) behind the common
//!   [`TaskScheduler`] trait,
//! * the **locality simulation** ([`simulate_locality`]; Fig. 3 compares
//!   its schedulers on the same placements with
//!   [`simulate_locality_each`]) and the
//!   **discrete-event execution engine** ([`JobRun`], Fig. 4/5) that report
//!   data locality, job time and network traffic. Every phase — map waves,
//!   shuffle fetches, reduce merges and output writes — is discrete events
//!   on the `drc_sim` substrate; [`JobRun::on`] executes against a *shared*
//!   `ClusterNet` so the job contends with storage-layer repair and
//!   degraded-read traffic for the same NICs, disks and LAN fabric
//!   (per-link queueing is reported in [`LinkContention`]), and
//!   [`JobRun::failures`] replays a timed failure trace mid-job.
//!
//! # Example: one Fig. 3 point
//!
//! ```
//! use drc_codes::CodeKind;
//! use drc_mapreduce::{simulate_locality, LocalityConfig, SchedulerKind};
//!
//! # fn main() -> Result<(), drc_mapreduce::MapReduceError> {
//! let config = LocalityConfig::new(CodeKind::Pentagon, SchedulerKind::Delay, 4, 75.0)
//!     .with_trials(20);
//! let result = simulate_locality(&config)?;
//! assert!(result.mean_locality_percent > 50.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod engine;
mod error;
mod graph;
mod job;
mod locality;
mod scheduler;

pub use assignment::{Assignment, TaskAssignment};
pub use engine::{JobMetrics, JobRun, LinkContention};
pub use error::MapReduceError;
pub use graph::TaskNodeGraph;
pub use job::{JobSpec, MapTask, TaskId};
pub use locality::{simulate_locality, simulate_locality_each, LocalityConfig, LocalityResult};
pub use scheduler::{
    DelayScheduler, MaxMatchingScheduler, PeelingScheduler, SchedulerKind, TaskScheduler,
};
