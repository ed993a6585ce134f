//! A discrete-event MapReduce execution engine.
//!
//! This is the substitute for the paper's physical Hadoop clusters (§4): it
//! executes a [`JobSpec`] against a block placement on a cluster, using one of
//! the task schedulers, and reports the three quantities Fig. 4 and Fig. 5
//! plot — job execution time, network traffic and data locality — plus
//! degraded-read statistics for the failure experiments.
//!
//! The model is deliberately simple but mechanistic: map tasks read their
//! block from local disk or over the network (or rebuild it with a degraded
//! read when every replica is unreachable), spend CPU time proportional to
//! the input, and occupy a map slot for their duration; the shuffle moves the
//! map output across the network to the reducers; reducers then merge and
//! write their output. Absolute times depend on the bandwidth constants in
//! [`ClusterSpec`], but the *differences between codes* come only from
//! locality and degraded reads — exactly the mechanism the paper identifies.
//!
//! # Event model
//!
//! Every phase of the job is discrete events on the `drc_sim` substrate —
//! there is no closed-form time left in the engine:
//!
//! * **Map waves** — map slots are unit-capacity [`Resource`]s; every task
//!   duration the schedulers' placements induce is consumed as a
//!   virtual-time reservation, and each wave's remote-read bytes queue
//!   through the shared LAN fabric.
//! * **Shuffle** — each reducer is placed round-robin over the up nodes and
//!   issues one fetch event per *source node*, all of them through one
//!   [`ClusterNet::gather`]: a fetch acquires the source node's NIC, the
//!   destination node's NIC and the shared LAN fabric, holding all three
//!   for the bottleneck service time. The share produced on the reducer's
//!   own node never touches the network. Per-link queueing delay is
//!   accumulated into [`JobMetrics::shuffle_contention`].
//! * **Reduce** — a reducer occupies one of its node's reduce-slot
//!   [`Resource`]s from fetch start through merge CPU and the output write,
//!   which reserves the node's *disk* in the same [`ClusterNet`].
//!
//! # One entry point
//!
//! [`JobRun`] is the only way in. By default a job executes against a
//! private, idle [`ClusterNet`] from the virtual epoch with nothing failing;
//! [`JobRun::on`] puts it on a **shared** net (e.g.
//! `DistributedFileSystem::cluster_net`), which is where the paper's
//! headline contention appears: a repair pass or a batch of degraded reads
//! issued in the same virtual window reserves the same NICs, disks and
//! fabric, so shuffle fetches queue behind reconstruction traffic and the
//! job visibly slows down (the `shuffle-contention` experiment).
//! [`JobRun::failures`] adds a timed [`FailureTrace`] consumed *mid-job*
//! through a [`FailureReplay`] — the same replay the simulated HDFS drains,
//! so both layers notice a failure at the same instant. The replay decides
//! when nodes go silent, rejoin and are declared dead; the engine keeps what
//! is its own: the scheduler's stale view of the cluster, which disks a
//! fail-stop wiped, and the look-ahead that tells whether an attempt will
//! be lost to a failure still in the trace's future.
//!
//! A job runs as two steps, the map waves and then the shuffle with the
//! reduce waves, and [`JobMetrics::timeline`] records their per-wave
//! [`PhaseKind`]s, so contention between waves, reconstruction and shuffle
//! traffic is visible instead of being summed serially.
//!
//! # Byte accounting
//!
//! Byte totals are computed exactly (round-to-nearest, saturating at
//! `u64::MAX`, from ratios finite and non-negative by construction) and
//! are **independent of the event model**: the events decide *when* traffic
//! moves, never *how much*. An event-driven run reports the same
//! `shuffle_bytes` / `network_traffic_bytes` as the closed-form accounting,
//! whatever the substrate's congestion state.

use std::collections::BTreeSet;

use rand::RngCore;
use serde::Serialize;

use drc_cluster::{Cluster, ClusterSpec, FailureTrace, NodeId, PlacementMap};
use drc_codes::ErasureCode;
use drc_sim::{ClusterNet, FailureReplay, PhaseKind, ReplayStep, SimDuration, SimTime, Timeline};

use crate::assignment::Assignment;
use crate::graph::TaskNodeGraph;
use crate::job::{JobSpec, MapTask};
use crate::scheduler::TaskScheduler;
use crate::MapReduceError;

/// Per-link queueing delay accumulated by the shuffle's fetch events.
///
/// Each fetch of a reducer's [`ClusterNet::gather`] holds the source NIC,
/// destination NIC and the shared LAN fabric; whenever one of those links
/// is still busy with earlier traffic (other fetches, or repair /
/// degraded-read transfers sharing the [`ClusterNet`]), the wait is
/// attributed here. Waits on different links can
/// cover the same virtual-time window — each figure answers "how long would
/// this link alone have delayed the fetches".
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct LinkContention {
    /// Seconds fetches waited for busy source (map-side) NICs.
    pub source_nic_wait_s: f64,
    /// Seconds fetches waited for busy destination (reduce-side) NICs.
    pub dest_nic_wait_s: f64,
    /// Seconds the saturated shared LAN fabric added to fetch completions
    /// beyond the bottleneck NIC's service time.
    pub fabric_wait_s: f64,
}

impl LinkContention {
    /// Total attributed wait across all links.
    pub fn total_s(&self) -> f64 {
        self.source_nic_wait_s + self.dest_nic_wait_s + self.fabric_wait_s
    }
}

/// Measurements from one simulated job execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobMetrics {
    /// Name of the job.
    pub job: String,
    /// Name of the code whose placement was used.
    pub code: String,
    /// Total job execution time in seconds (map phase + reduce phase).
    pub job_time_s: f64,
    /// Duration of the map phase in seconds.
    pub map_phase_s: f64,
    /// Duration of the shuffle + reduce phase in seconds.
    pub reduce_phase_s: f64,
    /// Total bytes that crossed the network during the job.
    pub network_traffic_bytes: u64,
    /// Bytes of map input fetched remotely (replica reads from other nodes).
    pub remote_input_bytes: u64,
    /// Bytes fetched to serve degraded reads (reconstruction traffic).
    pub degraded_read_bytes: u64,
    /// Bytes of map output moved across the network during the shuffle.
    pub shuffle_bytes: u64,
    /// Number of map tasks.
    pub map_tasks: usize,
    /// Number of map tasks that ran on a node holding their block.
    pub local_map_tasks: usize,
    /// Number of map tasks that needed a degraded read (no live replica).
    pub degraded_reads: usize,
    /// Map-task attempts lost to mid-job node failures and executed again
    /// on surviving nodes (zero unless [`JobRun::failures`] supplied a
    /// trace that fired during the map phase).
    pub tasks_reexecuted: usize,
    /// Per-phase virtual-time record: one [`PhaseKind::MapWave`] per
    /// scheduling wave (plus a [`PhaseKind::DegradedWave`] span when
    /// reconstruction traffic was in flight), one [`PhaseKind::Shuffle`]
    /// covering the reducer fetch events, one [`PhaseKind::ReduceWave`] per
    /// reduce-slot wave, and a [`PhaseKind::DetectionLag`] per non-zero
    /// blind window of a traced failure.
    pub timeline: Timeline,
    /// Per-link seconds the shuffle's fetch events spent queueing behind
    /// other traffic on the NICs and the shared fabric.
    pub shuffle_contention: LinkContention,
}

impl JobMetrics {
    /// Data locality in percent (the paper's metric).
    pub fn data_locality_percent(&self) -> f64 {
        if self.map_tasks == 0 {
            return 100.0;
        }
        self.local_map_tasks as f64 / self.map_tasks as f64 * 100.0
    }

    /// Network traffic in GiB (the unit of Fig. 4 and Fig. 5).
    pub fn network_traffic_gb(&self) -> f64 {
        self.network_traffic_bytes as f64 / (1024.0 * 1024.0 * 1024.0)
    }
}

/// Scales a byte count by a ratio that is finite and non-negative by
/// construction (a [`JobSpec`]'s validated shuffle ratio, or a fraction in
/// `[0, 1)`), rounding to the nearest byte and saturating at `u64::MAX`.
fn scale_bytes(bytes: u64, ratio: f64) -> u64 {
    let scaled = bytes as f64 * ratio;
    if scaled >= u64::MAX as f64 {
        return u64::MAX;
    }
    scaled.round() as u64
}

/// The first of a node's slots to come free (the first minimum).
/// `JobRun::run` rejects a zero slot count, so `slots` is never empty.
fn earliest(slots: &mut [SimTime]) -> &mut SimTime {
    let first = (1..slots.len()).fold(0, |best, i| if slots[i] < slots[best] { i } else { best });
    &mut slots[first]
}

/// The liveness the engine tracks while consuming a failure trace: the
/// [`FailureReplay`] knows which nodes have *actually* fail-stopped (and
/// when); `view` is what the scheduler has been told. Between a fail-stop
/// and its detection boundary the two disagree — that window is exactly
/// where attempts are lost and re-executed.
struct Liveness {
    replay: FailureReplay,
    /// The scheduler's view of the cluster: it learns about a fail-stop
    /// only at its detection boundary.
    view: Cluster,
    /// `wiped[n]`: node `n` fail-stopped at some point during the job: its
    /// disk was wiped, so its replicas stay unreadable even after a `NodeUp`
    /// re-admits the node for task execution (the engine does not model
    /// the storage layer's repairs restoring them mid-job).
    wiped: Vec<bool>,
    /// The engine built the net itself (no [`JobRun::on`]), so nobody else
    /// can apply the trace's slowdowns to it.
    owns_net: bool,
}

impl Liveness {
    fn new(
        cluster: &Cluster,
        failures: Option<(&FailureTrace, SimDuration)>,
        owns_net: bool,
    ) -> Self {
        let timeout = failures.map_or(SimDuration::ZERO, |(_, timeout)| timeout);
        let mut replay = FailureReplay::new(cluster.len(), timeout);
        if let Some((trace, _)) = failures {
            replay.schedule(trace, cluster);
        }
        Liveness {
            replay,
            view: cluster.clone(),
            wiped: vec![false; cluster.len()],
            owns_net,
        }
    }

    /// Brings the engine's state up to `t`: every replay step due by then,
    /// in the replay's order (so detection never depends on where the job's
    /// wave boundaries happen to fall). Crossed boundaries mark the
    /// scheduler's `view` down and put each non-zero blind window on the
    /// timeline as a [`PhaseKind::DetectionLag`] phase. Slowdowns reach
    /// `net` only when the engine owns it: a shared net's owner applies
    /// them, so a shared trace is never applied twice.
    fn advance(&mut self, t: SimTime, net: &ClusterNet, timeline: &mut Timeline) {
        while let Some((at, step)) = self.replay.next_due(t, &self.view) {
            match step {
                ReplayStep::Down(node) => self.wiped[node.0] = true,
                ReplayStep::Up(node) => self.view.set_up(node),
                ReplayStep::Slowdown(node, factor) => {
                    if self.owns_net {
                        net.set_node_slowdown(node, factor);
                    }
                }
                ReplayStep::Detected { node, silent_since } => {
                    self.view.set_down(node);
                    timeline.record_detection_lag(node, silent_since, at);
                }
            }
        }
    }

    /// Returns `true` if `node` can serve a replica read right now: it is
    /// up in the scheduler's view, and was never wiped by a fail-stop (a
    /// silent node is wiped; a `NodeUp` re-admits the node for task
    /// execution, but it comes back with an empty disk).
    fn replica_alive(&self, node: NodeId) -> bool {
        self.view.is_up(node) && !self.wiped[node.0]
    }

    /// When the scheduler gives up on an attempt lost to `node`'s fail-stop
    /// at `fail_at`: the detection boundary — or earlier, if the node
    /// rejoins first (a rejoining node immediately reports the attempt
    /// gone, so a recovery that cancels detection never stretches the job
    /// by a blind window that ends in nothing).
    fn attempt_resolution(&self, node: NodeId, fail_at: SimTime) -> SimTime {
        let boundary = fail_at + self.replay.detection_timeout();
        self.replay
            .upcoming()
            .find(|&(at, step)| step == ReplayStep::Up(node) && at >= fail_at)
            .map_or(boundary, |(at, _)| at.min(boundary))
    }

    /// The instant `node` fail-stops, if an attempt in the window ending at
    /// `end` would be lost to it: either the node is already silently down
    /// (its past failure instant is returned), or the first upcoming
    /// fail-stop for it falls before `end`.
    fn first_failure_before(&self, node: NodeId, end: SimTime) -> Option<SimTime> {
        self.replay.silent_since(node).or_else(|| {
            self.replay
                .upcoming()
                .find(|&(at, step)| step == ReplayStep::Down(node) && at < end)
                .map(|(at, _)| at)
        })
    }
}

/// One MapReduce job execution, configured then [`run`](JobRun::run).
///
/// `code` must be the code `placement` was built with; it plans the degraded
/// reads of blocks whose every replica is unreachable. Left at its defaults
/// the job executes on a private, idle [`ClusterNet`] built from the
/// cluster's spec, starting at the virtual epoch, with nothing failing.
#[derive(Clone, Copy)]
pub struct JobRun<'a> {
    job: &'a JobSpec,
    code: &'a dyn ErasureCode,
    placement: &'a PlacementMap,
    cluster: &'a Cluster,
    scheduler: &'a dyn TaskScheduler,
    site: Option<(&'a ClusterNet, SimTime)>,
    failures: Option<(&'a FailureTrace, SimDuration)>,
}

impl<'a> JobRun<'a> {
    /// `job` on `cluster` against `placement`, map tasks scheduled by
    /// `scheduler`.
    pub fn new(
        job: &'a JobSpec,
        code: &'a dyn ErasureCode,
        placement: &'a PlacementMap,
        cluster: &'a Cluster,
        scheduler: &'a dyn TaskScheduler,
    ) -> Self {
        JobRun {
            job,
            code,
            placement,
            cluster,
            scheduler,
            site: None,
            failures: None,
        }
    }

    /// Issues every event against `net` (per-node NICs and disks plus the
    /// shared LAN fabric), starting at `start` — reservations never begin
    /// earlier. This is the entry for contention studies: hand in a file
    /// system's `cluster_net()` and a repair pass or degraded reads issued
    /// in the same virtual window compete with the job's map-wave traffic
    /// and shuffle fetches for the same links.
    #[must_use]
    pub fn on(mut self, net: &'a ClusterNet, start: SimTime) -> Self {
        self.site = Some((net, start));
        self
    }

    /// Consumes a timed failure trace *mid-job*. `trace` instants are
    /// absolute, on the same virtual epoch as the job's start;
    /// `detection_timeout` is how long after a node fail-stops the
    /// scheduler learns about it.
    ///
    /// * a node that fail-stops takes every map attempt running (or
    ///   scheduled) on it with it — the attempt resolves at the node's
    ///   **detection boundary** (failure instant + `detection_timeout`) and
    ///   the task re-executes on a surviving node in a later wave
    ///   ([`JobMetrics::tasks_reexecuted`] counts the lost attempts); this
    ///   is the mechanism that makes job slowdown detection-lag-dependent,
    /// * during the blind window the scheduler keeps scheduling onto the
    ///   dead node (its view is stale) and reads treat the node's replicas
    ///   as unreachable: reads issued after the failure go degraded exactly
    ///   as if the replica set had shrunk,
    /// * each non-zero blind window appears on [`JobMetrics::timeline`] as
    ///   a [`PhaseKind::DetectionLag`] phase (half-open `[failure,
    ///   boundary)`),
    /// * `NodeUp` events re-admit nodes for scheduling from their instant
    ///   on, with an empty disk,
    /// * `Slowdown` events slow the node's disk and NIC from their instant
    ///   on when the job runs on the private net it builds itself; on a net
    ///   handed in with [`on`](JobRun::on) they are left to the layer that
    ///   owns it (the file system's failure engine), so a shared trace is
    ///   never applied twice.
    ///
    /// An empty trace is byte- and time-identical to no trace at all.
    #[must_use]
    pub fn failures(mut self, trace: &'a FailureTrace, detection_timeout: SimDuration) -> Self {
        self.failures = Some((trace, detection_timeout));
        self
    }

    /// Executes the job.
    ///
    /// # Errors
    ///
    /// Returns [`MapReduceError::InvalidConfig`] if the cluster has no map
    /// slots per node, or no reduce slots per node for a job with reduce
    /// tasks, or a task references a block that is not in the placement,
    /// or [`MapReduceError::UnreadableBlock`] if a block cannot be served
    /// at all (more failures, static or traced, than the code tolerates).
    /// A rejected configuration reserves nothing.
    pub fn run(self, rng: &mut dyn RngCore) -> Result<JobMetrics, MapReduceError> {
        let (spec, reduces) = (self.cluster.spec(), self.job.reduce_tasks() > 0);
        for (what, none) in [
            ("map_slots_per_node", spec.map_slots_per_node == 0),
            (
                "reduce_slots_per_node",
                reduces && spec.reduce_slots_per_node == 0,
            ),
        ] {
            if none {
                let reason = format!("{what} must be at least 1");
                return Err(MapReduceError::InvalidConfig { reason });
            }
        }
        match self.site {
            Some((net, start)) => execute(self, net, start, rng),
            None => {
                let private_net = ClusterNet::new(self.cluster.spec());
                execute(self, &private_net, SimTime::ZERO, rng)
            }
        }
    }
}

/// Executes `run` against `net` from `start`: the map waves, then the
/// shuffle and the reduce waves, each adding its counters and phases to
/// the job's metrics.
fn execute(
    run: JobRun<'_>,
    net: &ClusterNet,
    start: SimTime,
    rng: &mut dyn RngCore,
) -> Result<JobMetrics, MapReduceError> {
    for task in run.job.map_tasks() {
        if let Err(e) = run.placement.for_each_location(task.block, |_| ()) {
            return Err(MapReduceError::InvalidConfig {
                reason: format!("task block {:?} is not in the placement: {e}", task.block),
            });
        }
    }
    let mut liveness = Liveness::new(run.cluster, run.failures, run.site.is_none());
    let mut m = JobMetrics {
        job: run.job.name().to_string(),
        code: run.placement.code_name().to_string(),
        map_tasks: run.job.map_tasks().len(),
        ..JobMetrics::default()
    };
    let map_end = map_waves(&run, net, start, &mut liveness, &mut m, rng)?;
    // Failures that landed during the final wave (or detection boundaries
    // crossed by its end) are in force before reducers are placed.
    liveness.advance(map_end, net, &mut m.timeline);
    // Reducers land on the nodes the scheduler believes are up at the end
    // of the map phase (identical to the caller's cluster when no trace
    // event fired).
    let up = liveness.view.up_nodes();
    let job_end = shuffle_and_reduce(run.job, run.cluster.spec(), &up, net, map_end, &mut m);
    m.job_time_s = job_end.since(start).as_secs_f64();
    m.map_phase_s = map_end.since(start).as_secs_f64();
    m.reduce_phase_s = job_end.since(map_end).as_secs_f64();
    m.network_traffic_bytes = m.remote_input_bytes + m.degraded_read_bytes + m.shuffle_bytes;
    Ok(m)
}

/// The map phase: scheduling waves from `start` until every task has
/// completed, one [`PhaseKind::MapWave`] (plus a
/// [`PhaseKind::DegradedWave`] when reconstruction traffic was in flight)
/// per wave. An attempt lost to a fail-stop stays pending and re-executes
/// in a later wave. Returns when the last wave finished.
fn map_waves(
    run: &JobRun<'_>,
    net: &ClusterNet,
    start: SimTime,
    liveness: &mut Liveness,
    m: &mut JobMetrics,
    rng: &mut dyn RngCore,
) -> Result<SimTime, MapReduceError> {
    let spec = run.cluster.spec();
    let block_mb = spec.block_size_mb as f64;
    let block_bytes = spec.block_size_bytes();
    let mut pending: Vec<MapTask> = run.job.map_tasks().to_vec();
    let slots = spec.map_slots_per_node;
    // Map slots as the instants each comes free: a task starts on its
    // node's earliest-free slot no earlier than its wave and holds it for
    // its duration (the FIFO grant of a `Resource`), so slot contention and
    // wave pipelining fall out of the same rule as the I/O. One flat table
    // over the whole cluster — node `n` owns
    // `map_slots[n * slots..(n + 1) * slots]` — so nodes revived by
    // `NodeUp` events mid-job have slots too.
    let mut map_slots = vec![SimTime::ZERO; run.cluster.len() * slots];
    // Per-wave scratch, reused across waves: the task–node graph, the
    // scheduler's capacities (parallel to the graph's nodes) and which
    // pending tasks completed.
    let mut graph = TaskNodeGraph::default();
    let mut capacities: Vec<usize> = Vec::new();
    let mut completed: Vec<bool> = Vec::new();
    // The shared LAN fabric of the execution site: aggregate remote traffic
    // queues through it at cluster-wide bandwidth, behind whatever other
    // traffic (repairs, degraded reads) already reserved it.
    let lan = net.fabric();
    let mut map_end = start;
    let mut wave_start = start;
    let mut wave_index = 0usize;

    while !pending.is_empty() {
        // Everything that happened up to this wave's start is now in force;
        // boundaries crossed mean the scheduler finally sees those nodes as
        // dead.
        liveness.advance(wave_start, net, &mut m.timeline);
        graph.rebuild(&pending, run.placement, &liveness.view);
        capacities.clear();
        capacities.resize(graph.nodes().len(), slots);
        let assignment: Assignment = run.scheduler.assign(&graph, &capacities, rng);
        if assignment.is_empty() {
            return Err(MapReduceError::InvalidConfig {
                reason: "scheduler made no progress (no capacity available)".to_string(),
            });
        }
        // Tasks whose attempt completes this wave; failed attempts stay
        // pending and re-execute after their node's detection boundary.
        completed.clear();
        completed.resize(pending.len(), false);
        let mut wave_network_bytes = 0u64;
        let mut wave_degraded_bytes = 0u64;
        let mut wave_end = wave_start;

        for a in assignment.iter() {
            let task = pending[a.task.0];
            // An attempt on a node that already fail-stopped (silently —
            // detected nodes are out of the graph) is lost outright: it
            // resolves when the scheduler gives up on the node and the task
            // becomes re-schedulable.
            if let Some(fail_at) = liveness.first_failure_before(a.node, wave_start) {
                let resolve = liveness.attempt_resolution(a.node, fail_at).max(wave_start);
                wave_end = wave_end.max(resolve);
                m.tasks_reexecuted += 1;
                continue;
            }
            // Read cost: replicas on *actually* down nodes (detected or
            // not) cannot serve, so reads issued after a failure go
            // degraded even inside the blind window. A "local" assignment
            // is only truly local if the node's replica survived — a
            // wiped-then-revived node is back for task execution, but the
            // scheduler's placement edge points at data its fail-stop
            // destroyed, so the read falls through to the remote/degraded
            // path like any other dead replica.
            let local = a.local && liveness.replica_alive(a.node);
            let (read_s, remote_bytes, degraded_bytes, degraded) = if local {
                (block_mb / spec.disk_bandwidth_mbps.get(), 0u64, 0u64, false)
            } else {
                let mut replicas_alive = false;
                run.placement.for_each_location(task.block, |n| {
                    replicas_alive |= liveness.replica_alive(n);
                })?;
                if replicas_alive {
                    // Plain remote read of one block.
                    (
                        block_mb / spec.network_bandwidth_mbps.get(),
                        block_bytes,
                        0u64,
                        false,
                    )
                } else {
                    // Degraded read: rebuild from the code's plan, given
                    // which stripe-local nodes are down for this block's
                    // stripe (the set type is the codes crate's interface).
                    let stripe_nodes = run.placement.stripe_hosts(task.block.stripe())?;
                    let down_local: BTreeSet<usize> = stripe_nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| !liveness.replica_alive(**n))
                        .map(|(i, _)| i)
                        .collect();
                    let plan = run
                        .code
                        .degraded_read_plan(task.block.block(), &down_local)
                        .map_err(|source| MapReduceError::UnreadableBlock {
                            block: task.block,
                            source,
                        })?;
                    let bytes = plan.network_blocks as u64 * block_bytes;
                    (
                        plan.network_blocks as f64 * block_mb / spec.network_bandwidth_mbps.get(),
                        0u64,
                        bytes,
                        true,
                    )
                }
            };

            let run_s = run.job.task_overhead_s() + read_s + block_mb * run.job.map_cpu_s_per_mb();
            // Consume the task's duration on the earliest-free slot of the
            // assigned node.
            let slot = earliest(&mut map_slots[a.node.0 * slots..(a.node.0 + 1) * slots]);
            let end = wave_start.max(*slot) + SimDuration::from_secs_f64(run_s);
            *slot = end;

            // A fail-stop inside the attempt's window kills it mid-run: the
            // slot time is burnt, nothing is read or produced, and the task
            // resolves (for rescheduling) once the scheduler gives up on
            // the node.
            if let Some(fail_at) = liveness.first_failure_before(a.node, end) {
                let resolve = liveness.attempt_resolution(a.node, fail_at).max(wave_start);
                wave_end = wave_end.max(resolve);
                m.tasks_reexecuted += 1;
                continue;
            }

            if local {
                m.local_map_tasks += 1;
            }
            if degraded {
                m.degraded_reads += 1;
            }
            m.remote_input_bytes += remote_bytes;
            m.degraded_read_bytes += degraded_bytes;
            wave_network_bytes += remote_bytes + degraded_bytes;
            wave_degraded_bytes += degraded_bytes;
            completed[a.task.0] = true;
            wave_end = wave_end.max(end);
        }
        // The cluster's LAN is shared: if the wave's remote reads exceed what
        // the aggregate network can move while the slots are busy, the map
        // phase is network-bound and stretches accordingly. This is the
        // mechanism behind the paper's observation that lost locality costs
        // job time, not just traffic. A fully-local wave reserves nothing,
        // so it cannot queue behind unrelated fabric traffic.
        if wave_network_bytes > 0 {
            let lan_res = lan.reserve_bytes(wave_start, wave_network_bytes);
            wave_end = wave_end.max(lan_res.end);
        }
        m.timeline.record(
            PhaseKind::MapWave(wave_index),
            wave_start,
            wave_end,
            wave_network_bytes,
        );
        if wave_degraded_bytes > 0 {
            m.timeline.record(
                PhaseKind::DegradedWave(wave_index),
                wave_start,
                wave_end,
                wave_degraded_bytes,
            );
        }
        map_end = map_end.max(wave_end);
        wave_index += 1;

        // Remove completed tasks (lost attempts stay pending and re-execute
        // once their node's death is detected); renumber for the next wave.
        let mut index = 0;
        pending.retain(|_| {
            index += 1;
            !completed[index - 1]
        });
        for (i, t) in pending.iter_mut().enumerate() {
            t.id = crate::job::TaskId(i);
        }
        wave_start = map_end;
    }
    Ok(map_end)
}

/// The shuffle + reduce phase from `map_end`: reducers placed round-robin
/// over `up`, each fetching its share through one [`ClusterNet::gather`],
/// then merging and writing its output. Records one [`PhaseKind::Shuffle`]
/// phase and one [`PhaseKind::ReduceWave`] per reduce-slot wave, and
/// returns when the last output write finished (the job's end).
///
/// Byte accounting is closed-form and exact (the events only decide *when*
/// the traffic moves): map output scales the input by the shuffle ratio,
/// and everything except the share produced on the reducer's own node
/// crosses the network.
fn shuffle_and_reduce(
    job: &JobSpec,
    spec: &ClusterSpec,
    up: &[NodeId],
    net: &ClusterNet,
    map_end: SimTime,
    m: &mut JobMetrics,
) -> SimTime {
    let block_bytes = spec.block_size_bytes();
    let input_bytes = job.map_tasks().len() as u64 * block_bytes;
    let map_output_bytes = scale_bytes(input_bytes, job.shuffle_ratio());
    let n_up = up.len().max(1);
    let network_fraction = 1.0 - 1.0 / n_up as f64;
    let shuffle_bytes = scale_bytes(map_output_bytes, network_fraction);
    m.shuffle_bytes = shuffle_bytes;
    let mut end = map_end;
    if job.reduce_tasks() > 0 && map_output_bytes > 0 && !up.is_empty() {
        // Reducers are placed round-robin over the up nodes and occupy one
        // of their node's reduce slots from task start to output write.
        let slots_per_node = spec.reduce_slots_per_node;
        // Reducer `r` runs on `up[r % up.len()]`, whose reduce slots come
        // free at `reduce_slots[i * slots_per_node..(i + 1) * slots_per_node]`
        // for `i = r % up.len()`.
        let mut reduce_slots = vec![SimTime::ZERO; up.len() * slots_per_node];
        let reducers = job.reduce_tasks();
        let per_reducer_bytes = map_output_bytes as f64 / reducers as f64;
        let per_reducer_mb = per_reducer_bytes / (1024.0 * 1024.0);
        // Map output is modeled as spread uniformly over the up nodes; each
        // reducer fetches one share per *source node* (its own node's share
        // is local and never touches the network). Per-fetch sizes only
        // shape event durations — the byte totals above stay exact.
        // drc-lint: allow(lossy-float-cast): explicitly rounded; operands are
        // finite by construction (reducers > 0 and n_up > 0 guarded above) and
        // the headline byte totals route through `scale_bytes` — these only
        // size per-fetch events.
        let per_source_bytes = (per_reducer_bytes / n_up as f64).round() as u64;
        let overhead = SimDuration::from_secs_f64(job.task_overhead_s());
        let merge_cpu = SimDuration::from_secs_f64(per_reducer_mb * job.reduce_cpu_s_per_mb());
        // drc-lint: allow(lossy-float-cast): explicitly rounded, reducers > 0
        // guarded above; sizes the reduce-output write event only.
        let write_bytes = per_reducer_bytes.round() as u64;
        let wave_size = up.len() * slots_per_node;
        let mut fetch_span: Option<(SimTime, SimTime)> = None;
        let mut wave_spans: Vec<(SimTime, SimTime)> = Vec::new();
        // A reducer's remote sources, `up` minus its own node; one buffer
        // for the whole job.
        let mut sources: Vec<NodeId> = Vec::with_capacity(up.len());

        for r in 0..reducers {
            let at = r % up.len();
            let dest = up[at];
            let dest_io = net.node(dest);
            let slot = earliest(&mut reduce_slots[at * slots_per_node..(at + 1) * slots_per_node]);
            let task_start = map_end.max(*slot);
            let fetch_start = task_start + overhead;
            let mut fetch_done = fetch_start;
            // One fetch event per remote source: source NIC + destination
            // NIC + shared fabric, held together for the bottleneck time.
            if per_source_bytes > 0 {
                sources.clear();
                sources.extend(up.iter().copied().filter(|&src| src != dest));
                net.gather(fetch_start, dest, &sources, per_source_bytes, |_, fetch| {
                    let waits = fetch.pipe_waits();
                    m.shuffle_contention.source_nic_wait_s += waits[0].as_secs_f64();
                    m.shuffle_contention.dest_nic_wait_s += waits[1].as_secs_f64();
                    m.shuffle_contention.fabric_wait_s += fetch.fabric_delay.as_secs_f64();
                    fetch_done = fetch_done.max(fetch.reservation.end);
                    fetch_span = Some(match fetch_span {
                        None => (fetch.reservation.start, fetch.reservation.end),
                        Some((s, e)) => {
                            (s.min(fetch.reservation.start), e.max(fetch.reservation.end))
                        }
                    });
                });
            }
            // Merge CPU after the last fetch lands, then the output write on
            // the node's disk (shared with any storage-layer traffic).
            let write_res = dest_io
                .disk
                .reserve_bytes(fetch_done + merge_cpu, write_bytes);
            *slot = write_res.end;
            end = end.max(write_res.end);

            let wave = r / wave_size;
            match wave_spans.get_mut(wave) {
                Some((s, e)) => {
                    *s = (*s).min(task_start);
                    *e = (*e).max(write_res.end);
                }
                None => wave_spans.push((task_start, write_res.end)),
            }
        }

        match fetch_span {
            Some((s, e)) => m.timeline.record(PhaseKind::Shuffle, s, e, shuffle_bytes),
            // Per-source shares rounded to zero bytes (a degenerate, tiny
            // shuffle): keep the bytes on the record as an instant phase.
            None if shuffle_bytes > 0 => {
                m.timeline
                    .record(PhaseKind::Shuffle, map_end, map_end, shuffle_bytes)
            }
            None => {}
        }
        for (wave, (s, e)) in wave_spans.iter().enumerate() {
            m.timeline.record(PhaseKind::ReduceWave(wave), *s, *e, 0);
        }
    }

    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::scheduler::{DelayScheduler, SchedulerKind};
    use drc_cluster::{ClusterSpec, PlacementPolicy, Positive};
    use drc_codes::CodeKind;
    use drc_sim::{overlap, PhaseClass};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run(
        kind: CodeKind,
        spec: ClusterSpec,
        tasks: usize,
        down: &[usize],
        seed: u64,
    ) -> JobMetrics {
        let code = kind.build().unwrap();
        let mut cluster = Cluster::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let stripes = tasks.div_ceil(code.data_blocks());
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            stripes,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        for &n in down {
            cluster.set_down(NodeId(n));
        }
        let blocks: Vec<_> = placement.data_blocks().into_iter().take(tasks).collect();
        let job = JobSpec::new("terasort", blocks).with_reduce_tasks(8);
        JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .run(&mut rng)
        .unwrap()
    }

    #[test]
    fn healthy_cluster_metrics_are_consistent() {
        let m = run(
            CodeKind::Pentagon,
            ClusterSpec::simulation_25(2),
            50,
            &[],
            3,
        );
        assert_eq!(m.map_tasks, 50);
        assert_eq!(m.degraded_reads, 0);
        assert!(m.job_time_s > 0.0);
        assert!(m.map_phase_s > 0.0 && m.reduce_phase_s > 0.0);
        assert!((m.job_time_s - (m.map_phase_s + m.reduce_phase_s)).abs() < 1e-9);
        assert!(m.data_locality_percent() > 0.0 && m.data_locality_percent() <= 100.0);
        // Remote input bytes match the number of non-local tasks.
        let expected_remote = (m.map_tasks - m.local_map_tasks) as u64 * 128 * 1024 * 1024;
        assert_eq!(m.remote_input_bytes, expected_remote);
        assert_eq!(
            m.network_traffic_bytes,
            m.remote_input_bytes + m.degraded_read_bytes + m.shuffle_bytes
        );
        assert!(m.network_traffic_gb() > 0.0);
    }

    #[test]
    fn lost_locality_costs_traffic_and_time() {
        // The pentagon loses locality relative to 2-rep at full load on a
        // 2-slot cluster (Fig. 4), which must show up as extra network
        // traffic and a longer map phase.
        let mut pent_traffic = 0.0;
        let mut rep_traffic = 0.0;
        let mut pent_time = 0.0;
        let mut rep_time = 0.0;
        let mut pent_local = 0.0;
        let mut rep_local = 0.0;
        for seed in 0..5 {
            let pent = run(
                CodeKind::Pentagon,
                ClusterSpec::simulation_25(2),
                50,
                &[],
                seed,
            );
            let rep = run(
                CodeKind::TWO_REP,
                ClusterSpec::simulation_25(2),
                50,
                &[],
                seed,
            );
            pent_traffic += pent.network_traffic_gb();
            rep_traffic += rep.network_traffic_gb();
            pent_time += pent.job_time_s;
            rep_time += rep.job_time_s;
            pent_local += pent.data_locality_percent();
            rep_local += rep.data_locality_percent();
        }
        assert!(pent_local < rep_local);
        assert!(pent_traffic > rep_traffic);
        assert!(pent_time >= rep_time);
    }

    #[test]
    fn degraded_reads_happen_when_both_replicas_are_down() {
        // Force failures until some block loses every replica; pentagon
        // degraded reads then fetch 3 blocks each.
        let code = CodeKind::Pentagon.build().unwrap();
        let mut cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            1,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        // Take both hosts of data block 0 of stripe 0 down.
        let block = drc_cluster::GlobalBlockId::new(0, 0);
        for &n in &placement.locations(block).unwrap() {
            cluster.set_down(n);
        }
        let job = JobSpec::new("degraded", vec![block]);
        let metrics = JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .run(&mut rng)
        .unwrap();
        assert_eq!(metrics.degraded_reads, 1);
        assert_eq!(metrics.degraded_read_bytes, 3 * 128 * 1024 * 1024);
        assert_eq!(metrics.local_map_tasks, 0);
    }

    #[test]
    fn unreadable_blocks_are_an_error() {
        let code = CodeKind::TWO_REP.build().unwrap();
        let mut cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            1,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let block = drc_cluster::GlobalBlockId::new(0, 0);
        for &n in &placement.locations(block).unwrap() {
            cluster.set_down(n);
        }
        let job = JobSpec::new("doomed", vec![block]);
        let err = JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .run(&mut rng);
        assert!(matches!(err, Err(MapReduceError::UnreadableBlock { .. })));
    }

    #[test]
    fn unknown_blocks_are_rejected() {
        use drc_cluster::GlobalBlockId;
        let code = CodeKind::TWO_REP.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            1,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let past_stripe = GlobalBlockId::new(7, 0);
        let past_block = GlobalBlockId::new(0, placement.distinct_blocks_per_stripe());
        for (bad, expected) in [
            (
                past_stripe,
                "task block GlobalBlockId { stripe: 7, block: 0 } is not in the placement: \
                 unknown block (stripe 7, block 0)"
                    .to_string(),
            ),
            (
                past_block,
                format!(
                    "task block {past_block:?} is not in the placement: {}",
                    placement.locations(past_block).unwrap_err()
                ),
            ),
        ] {
            // Known blocks first: the check covers every task, not the
            // first one only.
            let mut blocks = placement.data_blocks();
            blocks.push(bad);
            let job = JobSpec::new("bogus", blocks).with_reduce_tasks(4);
            // A reservation made before the check would show on this net.
            let net = ClusterNet::new(cluster.spec());
            let result = JobRun::new(
                &job,
                code.as_ref(),
                &placement,
                &cluster,
                &DelayScheduler::default(),
            )
            .on(&net, SimTime::ZERO)
            .run(&mut rng);
            match result {
                Err(MapReduceError::InvalidConfig { reason }) => assert_eq!(reason, expected),
                other => panic!("{bad:?}: {other:?}"),
            }
            assert!(untouched(&net), "{bad:?}");
        }
    }

    #[test]
    fn overload_executes_in_multiple_waves() {
        // 150% load on setup 1: 75 tasks over 50 slots -> two waves, roughly
        // double the map-phase time of a 50%-load run.
        let half = run(CodeKind::TWO_REP, ClusterSpec::setup1(), 25, &[], 11);
        let over = run(CodeKind::TWO_REP, ClusterSpec::setup1(), 75, &[], 11);
        assert_eq!(over.map_tasks, 75);
        assert!(over.map_phase_s > 1.5 * half.map_phase_s);
    }

    #[test]
    fn more_reduce_tasks_spread_the_reduce_phase() {
        let code = CodeKind::TWO_REP.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::setup2());
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            18,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let blocks = placement.data_blocks();
        let narrow = JobSpec::new("sort", blocks.clone()).with_reduce_tasks(1);
        let wide = JobSpec::new("sort", blocks).with_reduce_tasks(18);
        let m_narrow = JobRun::new(
            &narrow,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .run(&mut rng)
        .unwrap();
        let m_many = JobRun::new(
            &wide,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .run(&mut rng)
        .unwrap();
        assert!(m_many.reduce_phase_s < m_narrow.reduce_phase_s);
    }

    #[test]
    fn timeline_records_waves_and_reduce_phase() {
        // 150% load on setup 1 needs at least two scheduling waves.
        let m = run(CodeKind::TWO_REP, ClusterSpec::setup1(), 75, &[], 11);
        let waves = m.timeline.of(PhaseClass::Map).count();
        assert!(waves >= 2, "overload must produce multiple wave phases");
        // The shuffle's fetch events and the reduce waves are phases of
        // their own, and the fetch phase carries the shuffle bytes.
        assert_eq!(m.timeline.bytes_of(PhaseClass::Shuffle), m.shuffle_bytes);
        assert!(m.timeline.of(PhaseClass::Reduce).count() >= 1);
        // Reducers fetch while earlier reducers still merge: the two phase
        // groups overlap.
        let fetch = m
            .timeline
            .of(PhaseClass::Shuffle)
            .next()
            .expect("a shuffle phase");
        assert!(fetch.start >= SimTime::ZERO && fetch.end > fetch.start);
        // The timeline's end is the job's virtual completion.
        assert!((m.timeline.end().as_secs_f64() - m.job_time_s).abs() < 1e-6);
        // Wave network bytes sum to the job's input traffic.
        let wave_bytes: u64 = m.timeline.of(PhaseClass::Map).map(|p| p.bytes).sum();
        assert_eq!(wave_bytes, m.remote_input_bytes + m.degraded_read_bytes);
    }

    #[test]
    fn shuffle_contention_is_reported_and_busy_links_delay_the_job() {
        use drc_cluster::PlacementPolicy;
        let code = CodeKind::TWO_REP.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            10,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let job = JobSpec::new("contend", placement.data_blocks()).with_reduce_tasks(25);
        let run_at = |net: &drc_sim::ClusterNet, rng: &mut ChaCha8Rng| {
            JobRun::new(
                &job,
                code.as_ref(),
                &placement,
                &cluster,
                &DelayScheduler::default(),
            )
            .on(net, SimTime::ZERO)
            .run(rng)
            .unwrap()
        };
        // Idle substrate: reducers still compete with *each other* for NICs,
        // so some contention is visible even without storage traffic.
        let mut rng_a = ChaCha8Rng::seed_from_u64(99);
        let idle_net = drc_sim::ClusterNet::new(cluster.spec());
        let idle = run_at(&idle_net, &mut rng_a);
        assert!(idle.shuffle_contention.total_s() >= 0.0);

        // Busy substrate: every NIC is reserved until well past the idle
        // job's completion — the shuffle must queue behind it, the job is
        // strictly delayed, and the waits are attributed to the NICs.
        let mut rng_b = ChaCha8Rng::seed_from_u64(99);
        let busy_net = drc_sim::ClusterNet::new(cluster.spec());
        let hold = SimTime::ZERO + SimDuration::from_secs_f64(2.0 * idle.job_time_s + 10.0);
        for n in cluster.up_nodes() {
            busy_net.node(n).nic.occupy_until(hold);
        }
        let busy = run_at(&busy_net, &mut rng_b);
        assert_eq!(busy.network_traffic_bytes, idle.network_traffic_bytes);
        assert!(busy.job_time_s > idle.job_time_s, "busy links must delay");
        assert!(
            busy.shuffle_contention.source_nic_wait_s > idle.shuffle_contention.source_nic_wait_s
        );
        assert!(busy.shuffle_contention.dest_nic_wait_s > idle.shuffle_contention.dest_nic_wait_s);
        // The map phase never touches NICs, so the whole delay is reduce-side.
        assert!((busy.map_phase_s - idle.map_phase_s).abs() < 1e-9);
        assert!(busy.reduce_phase_s > idle.reduce_phase_s);
    }

    #[test]
    fn mid_job_failure_reexecutes_tasks_and_slowdown_grows_with_detection_lag() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        let code = CodeKind::Pentagon.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(2));
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            6,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let job = JobSpec::new("failing", placement.data_blocks()).with_reduce_tasks(8);
        let run = |trace: &FailureTrace, timeout_s: f64| {
            let net = drc_sim::ClusterNet::new(cluster.spec());
            let mut rng = ChaCha8Rng::seed_from_u64(43);
            JobRun::new(
                &job,
                code.as_ref(),
                &placement,
                &cluster,
                &DelayScheduler::default(),
            )
            .on(&net, SimTime::ZERO)
            .failures(trace, SimDuration::from_secs_f64(timeout_s))
            .run(&mut rng)
            .unwrap()
        };

        let healthy = run(&FailureTrace::new(), 1.0);
        assert_eq!(healthy.tasks_reexecuted, 0);

        // Fail a node that certainly runs tasks (every node hosts blocks at
        // this load) a little into the map phase.
        let fail_at = healthy.map_phase_s * 0.25;
        let victim = NodeId(5);
        let trace = FailureTrace::from_events(vec![FailureEvent::at_secs(
            fail_at,
            FailureEventKind::NodeDown { node: victim },
        )]);
        let short = run(&trace, 0.5);
        let long = run(&trace, 5.0);
        for (label, m) in [("short", &short), ("long", &long)] {
            assert!(
                m.tasks_reexecuted >= 1,
                "{label}: tasks on the dead node must re-execute"
            );
            assert!(
                m.map_phase_s >= healthy.map_phase_s,
                "{label}: lost attempts never shorten the map phase"
            );
            let lag = m
                .timeline
                .of(PhaseClass::DetectionLag)
                .next()
                .expect("a detection-lag phase");
            // The trace instant is rounded to the nearest nanosecond.
            assert!((lag.start.as_secs_f64() - fail_at).abs() < 1e-9);
            assert_eq!(lag.bytes, 0);
        }
        // The blind window is the mechanism: with a detection timeout long
        // enough that lost attempts resolve after the healthy wave ends,
        // the map phase (and with it the job) strictly stretches, and a
        // 10x longer timeout stretches it further.
        assert!(
            long.map_phase_s > healthy.map_phase_s,
            "the blind window must extend the map phase (healthy {:.3}s, long {:.3}s)",
            healthy.map_phase_s,
            long.map_phase_s
        );
        assert!(
            long.map_phase_s > short.map_phase_s && long.job_time_s > short.job_time_s,
            "detection lag must translate into job slowdown (short {:.3}s/{:.3}s, long {:.3}s/{:.3}s)",
            short.map_phase_s,
            short.job_time_s,
            long.map_phase_s,
            long.job_time_s
        );
        // Byte accounting stays exact: totals still partition.
        assert_eq!(
            short.network_traffic_bytes,
            short.remote_input_bytes + short.degraded_read_bytes + short.shuffle_bytes
        );
    }

    #[test]
    fn a_quick_rejoin_resolves_lost_attempts_before_the_detection_boundary() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        // A node hosting map tasks blips out for one second under an
        // enormous detection timeout: the lost attempts must resolve when
        // the node rejoins, not five minutes later at a boundary the
        // recovery cancelled.
        let code = CodeKind::Pentagon.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(2));
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            6,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let job = JobSpec::new("blip", placement.data_blocks()).with_reduce_tasks(8);
        let run = |trace: &FailureTrace| {
            let net = drc_sim::ClusterNet::new(cluster.spec());
            let mut rng = ChaCha8Rng::seed_from_u64(43);
            JobRun::new(
                &job,
                code.as_ref(),
                &placement,
                &cluster,
                &DelayScheduler::default(),
            )
            .on(&net, SimTime::ZERO)
            .failures(trace, SimDuration::from_secs_f64(300.0))
            .run(&mut rng)
            .unwrap()
        };
        let healthy = run(&FailureTrace::new());
        let fail_at = healthy.map_phase_s * 0.25;
        let victim = NodeId(5);
        let blip = FailureTrace::from_events(vec![
            FailureEvent::at_secs(fail_at, FailureEventKind::NodeDown { node: victim }),
            FailureEvent::at_secs(fail_at + 1.0, FailureEventKind::NodeUp { node: victim }),
        ]);
        let m = run(&blip);
        assert!(m.tasks_reexecuted >= 1, "the blip must cost an attempt");
        assert!(
            m.map_phase_s < healthy.map_phase_s + 30.0,
            "a 1 s blip must not stretch the map phase by the 300 s blind \
             window (healthy {:.3}s, blipped {:.3}s)",
            healthy.map_phase_s,
            m.map_phase_s
        );
        // The recovery cancelled detection, so no blind-window phase.
        assert_eq!(m.timeline.of(PhaseClass::DetectionLag).count(), 0);
    }

    #[test]
    fn a_private_net_applies_traced_slowdowns_and_a_shared_one_leaves_them_to_its_owner() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace, Positive};
        // Every node runs at a quarter speed from t = 0. On the net the
        // engine builds for itself nobody else can apply that, so the job
        // must be strictly slower; on a caller's net the owner applies it.
        let code = CodeKind::Pentagon.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(2));
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            6,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let job = JobSpec::new("slow", placement.data_blocks()).with_reduce_tasks(8);
        let factor = Positive::new(4.0).unwrap();
        let slow = FailureTrace::from_events(
            cluster
                .up_nodes()
                .into_iter()
                .map(|node| FailureEvent::at_secs(0.0, FailureEventKind::Slowdown { node, factor }))
                .collect(),
        );
        let scheduler = DelayScheduler::default();
        let run = |trace: &FailureTrace, shared: Option<&drc_sim::ClusterNet>| {
            let mut rng = ChaCha8Rng::seed_from_u64(43);
            let run = JobRun::new(&job, code.as_ref(), &placement, &cluster, &scheduler);
            match shared {
                Some(net) => run.on(net, SimTime::ZERO),
                None => run,
            }
            .failures(trace, SimDuration::from_secs_f64(1.0))
            .run(&mut rng)
            .unwrap()
        };
        let healthy = run(&FailureTrace::new(), None);
        let slowed = run(&slow, None);
        assert!(
            slowed.job_time_s > healthy.job_time_s,
            "a private net must run the traced slowdown (healthy {:.4}s, traced {:.4}s)",
            healthy.job_time_s,
            slowed.job_time_s
        );
        assert_eq!(slowed.network_traffic_bytes, healthy.network_traffic_bytes);
        let shared = drc_sim::ClusterNet::new(cluster.spec());
        assert_eq!(
            run(&slow, Some(&shared)).job_time_s,
            healthy.job_time_s,
            "on a shared net the net's owner applies slowdowns"
        );
    }

    #[test]
    fn local_assignments_on_wiped_then_revived_nodes_read_degraded() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        // Every replica holder of block 0 fail-stops at t = 0 (zero
        // detection timeout) and is revived immediately after: the nodes
        // are back for scheduling — the delay scheduler will happily place
        // the task "locally" on one of them — but their disks are empty,
        // so the read must be a degraded reconstruction, never a local hit.
        let code = CodeKind::Pentagon.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            1,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let block = drc_cluster::GlobalBlockId::new(0, 0);
        let mut events: Vec<FailureEvent> = Vec::new();
        for &node in &placement.locations(block).unwrap() {
            events.push(FailureEvent::at_ns(0, FailureEventKind::NodeDown { node }));
            events.push(FailureEvent::at_ns(1, FailureEventKind::NodeUp { node }));
        }
        let trace = FailureTrace::from_events(events);
        let job = JobSpec::new("revived", vec![block]);
        let net = drc_sim::ClusterNet::new(cluster.spec());
        let metrics = JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .on(&net, SimTime::ZERO + SimDuration::from_secs_f64(1.0))
        .failures(&trace, SimDuration::ZERO)
        .run(&mut rng)
        .unwrap();
        assert_eq!(metrics.local_map_tasks, 0, "wiped data cannot be local");
        assert_eq!(metrics.degraded_reads, 1);
        assert_eq!(metrics.degraded_read_bytes, 3 * 128 * 1024 * 1024);
        assert_eq!(metrics.tasks_reexecuted, 0, "the nodes are alive again");
    }

    #[test]
    fn reads_after_an_undetected_failure_go_degraded() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        // Both replicas of block 0 fail at t = 0 with a *large* detection
        // timeout: the scheduler still believes they are up, but the reads
        // must go degraded immediately (a silent node serves nothing).
        let code = CodeKind::Pentagon.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            1,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let block = drc_cluster::GlobalBlockId::new(0, 0);
        let victims: Vec<NodeId> = placement.locations(block).unwrap().to_vec();
        let trace = FailureTrace::from_events(
            victims
                .iter()
                .map(|&node| FailureEvent::at_ns(0, FailureEventKind::NodeDown { node }))
                .collect(),
        );
        // Only the failed block is read, from elsewhere: the job's single
        // task cannot land on a victim or the attempt would just die.
        let job = JobSpec::new("blind-degraded", vec![block]);
        let net = drc_sim::ClusterNet::new(cluster.spec());
        let metrics = JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .on(&net, SimTime::ZERO)
        .failures(&trace, SimDuration::from_secs_f64(1e6))
        .run(&mut rng)
        .unwrap();
        assert_eq!(metrics.degraded_reads, 1);
        assert_eq!(metrics.degraded_read_bytes, 3 * 128 * 1024 * 1024);
        assert_eq!(metrics.local_map_tasks, 0);
    }

    /// No disk, NIC or fabric of `net` holds a reservation.
    fn untouched(net: &ClusterNet) -> bool {
        let idle = |r: &drc_sim::Resource| r.next_free() == SimTime::ZERO;
        let mut nodes = (0..net.len()).map(|n| net.node(NodeId(n)));
        idle(net.fabric()) && nodes.all(|io| idle(&io.disk) && idle(&io.nic))
    }

    #[test]
    fn zero_slots_are_rejected_before_any_reservation() {
        // The slot picks need at least one slot per node, so the check
        // comes before anything is reserved.
        let code = CodeKind::TWO_REP.build().unwrap();
        for (map_slots, reduce_slots, reduces, expected) in [
            (0, 1, 4, Some("map_slots_per_node must be at least 1")),
            (4, 0, 4, Some("reduce_slots_per_node must be at least 1")),
            (4, 0, 0, None), // no reduce task needs a reduce slot
        ] {
            let mut spec = ClusterSpec::simulation_25(map_slots);
            spec.reduce_slots_per_node = reduce_slots;
            let cluster = Cluster::new(spec);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let placement = PlacementMap::place(
                code.as_ref(),
                &cluster,
                4,
                PlacementPolicy::Random,
                &mut rng,
            )
            .unwrap();
            let job = JobSpec::new("slots", placement.data_blocks()).with_reduce_tasks(reduces);
            // A reservation made before the check would show on this
            // well-formed shared net.
            let net = ClusterNet::new(&ClusterSpec::simulation_25(4));
            let scheduler = DelayScheduler::default();
            let result = JobRun::new(&job, code.as_ref(), &placement, &cluster, &scheduler)
                .on(&net, SimTime::ZERO)
                .run(&mut rng);
            match (result, expected) {
                (Ok(metrics), None) => assert_eq!(metrics.map_tasks, 4),
                (Err(MapReduceError::InvalidConfig { reason }), Some(expected)) => {
                    assert_eq!(reason, expected);
                    assert!(untouched(&net), "{expected}");
                }
                (other, _) => panic!("{map_slots} / {reduce_slots} slots: {other:?}"),
            }
        }
    }

    #[test]
    fn a_vanishingly_slow_cluster_is_slower_than_nominal() {
        // At 1e-310 MiB/s every transfer over ≈ 19 KB takes +∞ seconds,
        // which must saturate rather than round to zero time.
        let nominal = run(
            CodeKind::Pentagon,
            ClusterSpec::simulation_25(2),
            20,
            &[],
            9,
        );
        let mut spec = ClusterSpec::simulation_25(2);
        spec.disk_bandwidth_mbps = Positive::new(1e-310).unwrap();
        spec.network_bandwidth_mbps = spec.disk_bandwidth_mbps;
        let slow = run(CodeKind::Pentagon, spec, 20, &[], 9);
        assert!(slow.job_time_s > nominal.job_time_s, "{slow:?}");
    }

    #[test]
    fn scale_bytes_rounds_and_saturates() {
        // Round-to-nearest instead of the old silent truncation …
        assert_eq!(scale_bytes(10, 0.25), 3); // 2.5 rounds away from 0
        assert_eq!(scale_bytes(3, 1.0 / 3.0), 1);
        assert_eq!(scale_bytes(1 << 30, 1.0), 1 << 30);
        // … and saturation instead of a wrapping cast.
        assert_eq!(scale_bytes(u64::MAX, 2.0), u64::MAX);
        assert_eq!(scale_bytes(1, f64::MAX), u64::MAX);
        assert_eq!(scale_bytes(0, 1.0), 0);
    }

    #[test]
    fn degraded_read_spans_appear_on_the_timeline() {
        let code = CodeKind::Pentagon.build().unwrap();
        let mut cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            1,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let block = drc_cluster::GlobalBlockId::new(0, 0);
        for &n in &placement.locations(block).unwrap() {
            cluster.set_down(n);
        }
        let job = JobSpec::new("degraded", vec![block]);
        let metrics = JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .run(&mut rng)
        .unwrap();
        assert_eq!(
            metrics.timeline.bytes_of(PhaseClass::DegradedRead),
            metrics.degraded_read_bytes
        );
        let timeline = &metrics.timeline;
        let map_degraded = overlap(
            timeline.of(PhaseClass::Map),
            timeline.of(PhaseClass::DegradedRead),
        );
        assert!(map_degraded.0 > 0);
    }

    #[test]
    fn scheduler_kind_integration() {
        // The engine works with every scheduler kind.
        let code = CodeKind::Heptagon.build().unwrap();
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            5,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        let job = JobSpec::new("sweep", placement.data_blocks());
        for kind in SchedulerKind::all() {
            let scheduler = kind.build();
            let m = JobRun::new(
                &job,
                code.as_ref(),
                &placement,
                &cluster,
                scheduler.as_ref(),
            )
            .run(&mut rng)
            .unwrap();
            assert_eq!(m.map_tasks, 100);
            assert!(m.job_time_s.is_finite());
        }
    }
}
