//! Discrete-event simulation substrate for the cluster experiments.
//!
//! The paper's headline results hinge on *overlap*: degraded reads,
//! reconstruction traffic and task execution compete for the same disks and
//! links. This crate supplies the event-driven core that lets the simulated
//! HDFS and MapReduce layers model that contention in **virtual time**:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time, so
//!   ordering and accumulation are exactly deterministic,
//! * [`VirtualClock`] — the per-simulation clock operations advance,
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking, for completions a layer drains in virtual-time order,
//! * [`FailureReplay`] — a [`drc_cluster::FailureTrace`] replayed as timed
//!   [`ReplayStep`]s with heartbeat-timeout detection boundaries
//!   interleaved; the one failure clock the simulated HDFS and the
//!   MapReduce engine both consume,
//! * [`Resource`] — a bandwidth server (disk, NIC, shared LAN fabric) whose
//!   reservations serialise contending transfers; lock-free so shared
//!   components (DataNodes) can reserve through `&self`,
//! * [`ClusterNet`] — per-node disk + NIC resources and the shared fabric,
//!   built from [`drc_cluster::ClusterSpec`] bandwidth figures;
//!   [`ClusterNet::restore_node`] blocks a recovered node's outage window,
//! * [`Transfer`] — sequences one operation's acquisition of several pipes
//!   plus the fabric and reports per-link wait time, so layers that share
//!   the fabric (shuffle, repair, degraded reads) can attribute their
//!   queueing delay to the link that caused it,
//! * [`Phase`] / [`Timeline`] — serialisable per-phase timelines (start,
//!   end, bytes) that experiments emit so overlap is visible in reports.
//!
//! # Threading
//!
//! Virtual time is orthogonal to real parallelism. Nothing in this crate
//! spawns a thread: each experiment cell owns its substrate and runs on one
//! thread, and the experiment harness runs independent cells side by side.
//! Serial and threaded runs produce byte-identical results; only wall-clock
//! throughput differs.
//!
//! # Example
//!
//! ```
//! use drc_sim::{ClusterNet, EventQueue, SimTime};
//! use drc_cluster::{ClusterSpec, NodeId};
//!
//! let net = ClusterNet::new(&ClusterSpec::setup1());
//! // Two transfers from different sources overlap; two from the same
//! // source serialise on its NIC.
//! let a = net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 64 << 20);
//! let b = net.transfer(SimTime::ZERO, NodeId(2), NodeId(3), 64 << 20);
//! let c = net.transfer(SimTime::ZERO, NodeId(0), NodeId(4), 64 << 20);
//! assert_eq!(a.start, b.start);
//! assert!(c.start >= a.end);
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule_at(a.end, "transfer a done");
//! queue.schedule_at(b.end, "transfer b done");
//! while let Some((when, event)) = queue.pop() {
//!     assert_eq!(when, queue.now());
//!     let _ = event;
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod failure;
mod net;
mod resource;
mod time;
mod timeline;

pub use event::EventQueue;
pub use failure::{FailureReplay, ReplayStep};
pub use net::{
    chunk_sizes, fabric, pull_from, pull_train, push_to, push_train, transfer_between, ClusterNet,
    NodeIo, Transfer, TransferOutcome, MAX_PIPES,
};
pub use resource::{Reservation, Resource};
pub use time::{SimDuration, SimTime, VirtualClock};
pub use timeline::{Phase, Timeline, DETECTION_LAG_PREFIX};
