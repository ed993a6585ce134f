//! The modeled cluster I/O fabric: per-node disks and NICs plus the shared
//! LAN, with bandwidths drawn from [`ClusterSpec`].

use drc_cluster::{ClusterSpec, NodeId, Positive, SimDuration, SimTime};

use crate::resource::{Reservation, Resource};

/// The I/O resources of one data node.
#[derive(Debug)]
pub struct NodeIo {
    /// The node's disk (sequential bandwidth; reads and writes share it).
    pub disk: Resource,
    /// The node's network interface (ingress and egress share it, as on the
    /// single shared LAN of the paper's set-ups).
    pub nic: Resource,
}

/// The most pipes one [`Transfer`] can hold: the widest path in the model is
/// a node-to-node copy (source disk + NIC, destination NIC + disk).
pub const MAX_PIPES: usize = 4;

/// A multi-resource transfer in the making: the operation must hold several
/// pipes (NICs, disks) at once and queue its bytes through the shared fabric.
///
/// [`Transfer::issue`] sequences the acquisitions — the operation starts once
/// every pipe is free, lasts the bottleneck pipe's service time (or longer if
/// the fabric is saturated), and holds every pipe for its whole duration —
/// and reports *per-pipe wait time*, so callers can attribute queueing delay
/// to the link that caused it (the contention accounting behind the MapReduce
/// engine's shuffle metrics).
///
/// A transfer holds at most [`MAX_PIPES`] pipes, stored inline: building and
/// issuing one never touches the heap (the storage layer issues one per
/// block write, read and repair copy). [`Transfer::via`] panics on a fifth
/// pipe rather than dropping it. A fan-in of many two-NIC transfers into one
/// node — a reducer's shuffle fetches — is [`ClusterNet::gather`], which
/// grants each fetch by the same rule.
///
/// # Example
///
/// ```
/// use drc_sim::{Resource, SimTime, Transfer};
///
/// let fabric = Resource::new(1000.0);
/// let src = Resource::new(100.0);
/// let dst = Resource::new(100.0);
/// // A first transfer makes the source busy for 1 s …
/// Transfer::new(&fabric, 100 << 20).via(&src).issue(SimTime::ZERO);
/// // … so a second transfer through the same source waits 1 s on it.
/// let out = Transfer::new(&fabric, 100 << 20)
///     .via(&src)
///     .via(&dst)
///     .issue(SimTime::ZERO);
/// assert_eq!(out.pipe_waits()[0].as_secs_f64(), 1.0); // src was busy
/// assert_eq!(out.pipe_waits()[1].as_secs_f64(), 0.0); // dst was free
/// assert_eq!(out.reservation.start.as_secs_f64(), 1.0);
/// ```
#[derive(Debug)]
pub struct Transfer<'a> {
    fabric: &'a Resource,
    bytes: u64,
    /// The first `held` entries are the pipes; the rest is filler.
    pipes: [&'a Resource; MAX_PIPES],
    held: usize,
}

/// What [`Transfer::issue`] (or one fetch of [`ClusterNet::gather`])
/// granted, plus where the operation queued.
#[derive(Debug, Clone, Copy)]
pub struct TransferOutcome {
    /// The virtual-time window the transfer occupies end-to-end.
    pub reservation: Reservation,
    /// Extra completion delay the saturated shared fabric added beyond the
    /// bottleneck pipe's service time (zero when the fabric kept up).
    pub fabric_delay: SimDuration,
    /// The first `held` entries are the per-pipe waits.
    waits: [SimDuration; MAX_PIPES],
    held: usize,
}

impl TransferOutcome {
    /// Per-pipe wait, in [`Transfer::via`] order: how long each pipe's
    /// earlier reservations pushed this transfer's start past its issue
    /// instant. Waits on different pipes cover the same wall-clock window
    /// when several pipes are busy simultaneously; each entry answers "how
    /// long would this pipe alone have delayed the start".
    pub fn pipe_waits(&self) -> &[SimDuration] {
        &self.waits[..self.held]
    }
}

impl<'a> Transfer<'a> {
    /// Starts describing a transfer of `bytes` that will queue through
    /// `fabric`.
    pub fn new(fabric: &'a Resource, bytes: u64) -> Self {
        Transfer {
            fabric,
            bytes,
            pipes: [fabric; MAX_PIPES],
            held: 0,
        }
    }

    /// Adds a pipe the transfer must hold for its whole duration.
    ///
    /// # Panics
    ///
    /// Panics if the transfer already holds [`MAX_PIPES`] pipes.
    #[must_use]
    pub fn via(mut self, pipe: &'a Resource) -> Self {
        assert!(
            self.held < MAX_PIPES,
            "a Transfer holds at most {MAX_PIPES} pipes"
        );
        self.pipes[self.held] = pipe;
        self.held += 1;
        self
    }

    /// Issues the transfer at `now`: acquires every pipe, queues the bytes
    /// through the fabric, and reports the granted window plus per-link
    /// waits.
    pub fn issue(self, now: SimTime) -> TransferOutcome {
        let pipes = &self.pipes[..self.held];
        let mut frees = [SimTime::ZERO; MAX_PIPES];
        for (free, pipe) in frees.iter_mut().zip(pipes) {
            *free = pipe.next_free();
        }
        let slowest = pipes
            .iter()
            .map(|pipe| pipe.service_time(self.bytes))
            .max()
            .unwrap_or_default();
        let out = grant(now, &frees[..self.held], slowest, |start| {
            self.fabric.reserve_bytes(start, self.bytes).end
        });
        for pipe in pipes {
            pipe.occupy_until(out.reservation.end);
        }
        out
    }
}

/// The reservation rule of one transfer, over the pipe cursors `frees` its
/// issuer read: the operation starts once `now` and every pipe allow,
/// queues its bytes through the fabric from that start (`fabric` reserves
/// them and returns the fabric window's end), and lasts the bottleneck
/// pipe's `slowest` service time — or until the fabric lets go, if that is
/// later. The issuer then occupies every pipe through the outcome's end.
/// [`Transfer::issue`] and [`ClusterNet::gather`] both grant here, so the
/// rule is written once.
fn grant(
    now: SimTime,
    frees: &[SimTime],
    slowest: SimDuration,
    fabric: impl FnOnce(SimTime) -> SimTime,
) -> TransferOutcome {
    let mut start = now;
    let mut waits = [SimDuration::ZERO; MAX_PIPES];
    for (wait, &free) in waits.iter_mut().zip(frees) {
        *wait = free.since(now);
        start = start.max(free);
    }
    let pipe_end = start + slowest;
    let end = pipe_end.max(fabric(start));
    TransferOutcome {
        reservation: Reservation { start, end },
        fabric_delay: end.since(pipe_end),
        waits,
        held: frees.len(),
    }
}

/// An inbound transfer from outside the modeled cluster (a client write, a
/// decoded block landing on a replacement): destination NIC + disk + fabric.
pub fn push_to(now: SimTime, dst: &NodeIo, fabric: &Resource, bytes: u64) -> Reservation {
    Transfer::new(fabric, bytes)
        .via(&dst.nic)
        .via(&dst.disk)
        .issue(now)
        .reservation
}

/// An outbound transfer to a consumer outside the modeled cluster (a client
/// read, a helper block streaming to a reconstruction): source disk + NIC +
/// fabric.
pub fn pull_from(now: SimTime, src: &NodeIo, fabric: &Resource, bytes: u64) -> Reservation {
    Transfer::new(fabric, bytes)
        .via(&src.disk)
        .via(&src.nic)
        .issue(now)
        .reservation
}

/// Splits a payload into `chunk`-byte pieces for a streamed, pipelined
/// transfer: every piece is `chunk` bytes except a final partial remainder.
///
/// A `chunk` of zero (or one at least as large as the payload) yields the
/// whole payload as a single piece, which is how callers express "don't
/// stream". A zero-byte payload yields nothing.
pub fn chunk_sizes(bytes: u64, chunk: u64) -> impl Iterator<Item = u64> {
    let step = if chunk == 0 { bytes.max(1) } else { chunk };
    (0..bytes.div_ceil(step)).map(move |i| step.min(bytes - i * step))
}

/// Issues a chunk train through a pipe set: chunk `i` is issued at
/// `starts[i]` (clamped to the pipes' FIFO availability and the previous
/// chunk's end), while the shared fabric carries the train as a **single
/// flow** — one reservation for the total payload, made at the first
/// chunk's granted start.
///
/// The single fabric flow is the load-bearing choice. Every [`Resource`]
/// grants FIFO in issuance order and never backfills, so reserving the
/// fabric chunk-by-chunk at each chunk's (late) start would walk
/// `next_free` to the train's end and serialise unrelated epoch-issued
/// transfers behind a fabric that is physically almost idle. One
/// total-bytes reservation at the train's start occupies the fabric
/// exactly as the equivalent monolithic transfer would; a saturated fabric
/// still delays the train — the final chunk's end is clamped to the fabric
/// reservation's end, exactly as [`Transfer::issue`] clamps a monolithic
/// transfer. A single-chunk train is therefore bit-identical to the
/// monolithic path.
///
/// Returns each chunk's completion instant.
///
/// # Panics
///
/// Panics if `starts` and `sizes` have different lengths.
fn reserve_train(
    starts: &[SimTime],
    pipes: &[&Resource],
    fabric: &Resource,
    sizes: &[u64],
) -> Vec<SimTime> {
    assert_eq!(starts.len(), sizes.len(), "one start per chunk");
    let Some(&first_requested) = starts.first() else {
        return Vec::new();
    };
    let mut first_start = first_requested;
    for pipe in pipes {
        first_start = first_start.max(pipe.next_free());
    }
    let total: u64 = sizes.iter().sum();
    let fabric_end = fabric.reserve_bytes(first_start, total).end;
    let mut ends = Vec::with_capacity(sizes.len());
    let mut prev = SimTime::ZERO;
    for (i, (&at, &clen)) in starts.iter().zip(sizes).enumerate() {
        let mut start = at.max(prev);
        for pipe in pipes {
            start = start.max(pipe.next_free());
        }
        let slowest = pipes
            .iter()
            .map(|pipe| pipe.service_time(clen))
            .max()
            .unwrap_or_default();
        let mut end = start + slowest;
        if i == sizes.len() - 1 {
            end = end.max(fabric_end);
        }
        for pipe in pipes {
            pipe.occupy_until(end);
        }
        ends.push(end);
        prev = end;
    }
    ends
}

/// The chunk-train form of [`pull_from`]: an outbound stream of
/// `sizes`-byte chunks, all issued at `now`, serving back-to-back on the
/// source's disk + NIC while the fabric carries the train as one flow.
/// Returns each chunk's completion instant, so a consumer can start
/// per-chunk downstream work (a store, a decode) the moment that chunk
/// lands instead of waiting for the whole payload.
pub fn pull_train(now: SimTime, src: &NodeIo, fabric: &Resource, sizes: &[u64]) -> Vec<SimTime> {
    let starts = vec![now; sizes.len()];
    reserve_train(&starts, &[&src.disk, &src.nic], fabric, sizes)
}

/// The chunk-train form of [`push_to`]: an inbound stream of `sizes`-byte
/// chunks where chunk `i` becomes available at `starts[i]` (typically the
/// instant an upstream fetch train delivered it), landing through the
/// destination's NIC + disk while the fabric carries the train as one
/// flow. Returns each chunk's completion instant.
///
/// # Panics
///
/// Panics if `starts` and `sizes` have different lengths.
pub fn push_train(
    starts: &[SimTime],
    dst: &NodeIo,
    fabric: &Resource,
    sizes: &[u64],
) -> Vec<SimTime> {
    reserve_train(starts, &[&dst.nic, &dst.disk], fabric, sizes)
}

/// Disk, NIC and shared-fabric resources for a whole cluster.
///
/// Built from the bandwidth figures of a [`ClusterSpec`]: each node gets a
/// disk and a NIC at the spec's per-node rates, and the LAN fabric moves
/// aggregate traffic at `network_bandwidth_mbps × data_nodes`. A transfer
/// holds its endpoints' resources for the bottleneck service time and queues
/// its bytes through the fabric, so transfers between disjoint node pairs
/// overlap while anything sharing a disk, a NIC or an oversubscribed fabric
/// serialises — exactly the contention the paper's degraded-read and repair
/// experiments measure. Every layer — HDFS writes, repairs and degraded
/// reads, the MapReduce engine's map waves and shuffle fetches — queues
/// through the same fabric when they share a [`ClusterNet`].
///
/// A net has one owner, which lends it by `&mut` to the layer whose traffic
/// runs next (the file system lends its net to the MapReduce engine's
/// `JobRun::on`). Its resources are `!Sync`, and so is the net:
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<drc_sim::ClusterNet>();
/// ```
#[derive(Debug)]
pub struct ClusterNet {
    nodes: Vec<NodeIo>,
    fabric: Resource,
}

impl ClusterNet {
    /// Builds the resource model for a cluster spec.
    pub fn new(spec: &ClusterSpec) -> Self {
        let (disk, nic) = (spec.disk_bandwidth_mbps, spec.network_bandwidth_mbps);
        let nodes = (0..spec.data_nodes).map(|_| NodeIo {
            disk: Resource::new(disk.get()),
            nic: Resource::new(nic.get()),
        });
        ClusterNet {
            nodes: nodes.collect(),
            fabric: Resource::new(nic.get() * spec.data_nodes as f64),
        }
    }

    /// Number of modeled nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the model has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The I/O resources of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not part of the modeled cluster.
    pub fn node(&self, node: NodeId) -> &NodeIo {
        &self.nodes[node.0]
    }

    /// The shared LAN fabric.
    pub fn fabric(&self) -> &Resource {
        &self.fabric
    }

    /// Restores a node's disk and NIC at virtual instant `at` (a timed
    /// recovery event fired): both resources are occupied through `at`, so
    /// no later reservation can be granted a window inside the outage —
    /// nothing issued after a recovery can pretend it ran while the node
    /// was dark. (Nothing stops a caller from reserving a down node's disk
    /// *during* the outage, exactly as nothing stops a packet being sent to
    /// a dead host; who is down is the issuing layer's knowledge.)
    pub fn restore_node(&mut self, at: SimTime, node: NodeId) {
        let io = self.node(node);
        io.disk.occupy_until(at);
        io.nic.occupy_until(at);
    }

    /// Slows a node's disk and NIC down by `factor` (2.0 = half speed,
    /// 1.0 = nominal) for every reservation made from now on — the
    /// substrate half of a `Slowdown` failure-trace event.
    pub fn set_node_slowdown(&mut self, node: NodeId, factor: Positive) {
        let io = self.node(node);
        io.disk.set_slowdown(factor);
        io.nic.set_slowdown(factor);
    }

    /// A network transfer of `bytes` from `from`'s disk to `to`'s disk,
    /// issued at `now`.
    ///
    /// The transfer starts once every involved resource is free, lasts the
    /// bottleneck pipe's service time (or longer if the shared fabric is
    /// saturated by other traffic), and holds source disk + NIC, destination
    /// NIC + disk for its whole duration (the stages stream concurrently).
    pub fn transfer(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: u64) -> Reservation {
        let (src, dst) = (self.node(from), self.node(to));
        Transfer::new(&self.fabric, bytes)
            .via(&src.disk)
            .via(&src.nic)
            .via(&dst.nic)
            .via(&dst.disk)
            .issue(now)
            .reservation
    }

    /// A fan-in into `dest`: one fetch of `bytes` from each node of
    /// `sources`, in order, all issued at `now`. Each fetch is exactly
    /// `Transfer::new(fabric, bytes).via(&src.nic).via(&dest.nic).issue(now)`
    /// — same windows, same waits (source NIC first), same cursors
    /// afterwards — and `each(src, &outcome)` sees it as soon as it is
    /// granted.
    ///
    /// What is cheaper is the arithmetic: the fabric's and the
    /// destination's service times are computed once per call, a source's
    /// only when its NIC's (bandwidth, slowdown) pair differs from the
    /// previous source's.
    ///
    /// `sources` may name `dest` (that fetch holds the destination NIC
    /// through both of its pipes, as a `Transfer` through one resource twice
    /// does) and may name a node more than once.
    ///
    /// The net is borrowed mutably for the whole fan-in, so `each` cannot
    /// reserve on it in between:
    ///
    /// ```compile_fail
    /// use drc_cluster::{ClusterSpec, NodeId};
    /// use drc_sim::{ClusterNet, SimTime};
    ///
    /// let mut net = ClusterNet::new(&ClusterSpec::setup1());
    /// net.gather(SimTime::ZERO, NodeId(0), &[NodeId(1)], 1 << 20, |_, _| {
    ///     net.fabric().reserve_bytes(SimTime::ZERO, 1 << 20);
    /// });
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `dest` or a source is not part of the modeled cluster.
    pub fn gather(
        &mut self,
        now: SimTime,
        dest: NodeId,
        sources: &[NodeId],
        bytes: u64,
        mut each: impl FnMut(NodeId, &TransferOutcome),
    ) {
        let dest_nic = &self.node(dest).nic;
        let dest_time = dest_nic.service_time(bytes);
        let fabric_time = self.fabric.service_time(bytes);
        // The previous source NIC's (bandwidth, slowdown) bits and its
        // service time for `bytes`.
        let mut memo: Option<((u64, u64), SimDuration)> = None;
        for &src in sources {
            let nic = &self.node(src).nic;
            let key = (nic.bandwidth_mib_s().to_bits(), nic.slowdown().to_bits());
            let src_time = match memo {
                Some((seen, time)) if seen == key => time,
                _ => {
                    let time = nic.service_time(bytes);
                    memo = Some((key, time));
                    time
                }
            };
            let frees = [nic.next_free(), dest_nic.next_free()];
            let out = grant(now, &frees, src_time.max(dest_time), |start| {
                self.fabric.reserve_for(start, fabric_time).end
            });
            nic.occupy_until(out.reservation.end);
            dest_nic.occupy_until(out.reservation.end);
            each(src, &out);
        }
    }

    /// Forgets every reservation and slowdown (all resources idle at the
    /// epoch).
    pub fn reset(&mut self) {
        for n in &self.nodes {
            n.disk.reset();
            n.nic.reset();
        }
        self.fabric.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> ClusterNet {
        ClusterNet::new(&ClusterSpec::simulation_25(4))
    }

    #[test]
    fn chunk_sizes_cover_payload_exactly() {
        assert_eq!(chunk_sizes(10, 4).collect::<Vec<_>>(), vec![4, 4, 2]);
        assert_eq!(chunk_sizes(8, 4).collect::<Vec<_>>(), vec![4, 4]);
        assert_eq!(chunk_sizes(3, 4).collect::<Vec<_>>(), vec![3]);
        assert_eq!(chunk_sizes(3, 0).collect::<Vec<_>>(), vec![3]);
        assert_eq!(chunk_sizes(3, u64::MAX).collect::<Vec<_>>(), vec![3]);
        assert_eq!(chunk_sizes(0, 4).count(), 0);
        assert_eq!(chunk_sizes(0, 0).count(), 0);
        let total: u64 = chunk_sizes(1 << 26, 300_000).sum();
        assert_eq!(total, 1 << 26);
    }

    #[test]
    fn single_chunk_train_is_bit_identical_to_the_monolithic_path() {
        let mut a = net();
        let mut b = net();
        let bytes = 37 << 20;
        // Pre-load identical traffic so pipes are busy at issuance.
        a.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 8 << 20);
        b.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 8 << 20);
        let pull = pull_from(SimTime::ZERO, a.node(NodeId(0)), a.fabric(), bytes);
        let train = pull_train(SimTime::ZERO, b.node(NodeId(0)), b.fabric(), &[bytes]);
        assert_eq!(train, vec![pull.end]);
        let push = push_to(pull.end, a.node(NodeId(1)), a.fabric(), bytes);
        let strain = push_train(&[pull.end], b.node(NodeId(1)), b.fabric(), &[bytes]);
        assert_eq!(strain, vec![push.end]);
        assert_eq!(
            a.node(NodeId(1)).disk.next_free(),
            b.node(NodeId(1)).disk.next_free()
        );
        assert_eq!(a.fabric().next_free(), b.fabric().next_free());
    }

    #[test]
    fn train_chunks_serve_back_to_back_and_cover_the_payload_time() {
        let net = net();
        let sizes = vec![16 << 20; 8]; // 128 MiB in 16 MiB chunks
        let ends = pull_train(SimTime::ZERO, net.node(NodeId(0)), net.fabric(), &sizes);
        assert_eq!(ends.len(), 8);
        assert!(ends.windows(2).all(|w| w[0] < w[1]), "chunks are ordered");
        // NIC-bound at 60 MiB/s: the train's tail matches the monolithic
        // transfer (modulo per-chunk ns rounding).
        let expect = 128.0 / 60.0;
        assert!((ends.last().unwrap().as_secs_f64() - expect).abs() < 1e-6);
        // …and the first chunk lands after one chunk's service time.
        assert!((ends[0].as_secs_f64() - 16.0 / 60.0).abs() < 1e-6);
    }

    #[test]
    fn trains_on_disjoint_nodes_do_not_couple_through_the_fabric() {
        // Regression: reserving the fabric chunk-by-chunk at each chunk's
        // late start walked `next_free` to the first train's end and
        // serialised the second (physically independent) train behind it.
        // A train is one fabric flow: both trains must end together.
        let net = net();
        let sizes = vec![1 << 20; 128];
        let a = pull_train(SimTime::ZERO, net.node(NodeId(0)), net.fabric(), &sizes);
        let b = pull_train(SimTime::ZERO, net.node(NodeId(1)), net.fabric(), &sizes);
        let (a_end, b_end) = (a.last().unwrap(), b.last().unwrap());
        assert!(
            b_end.since(*a_end).as_secs_f64() < 0.01,
            "independent trains must overlap (a={a_end:?} b={b_end:?})"
        );
    }

    #[test]
    fn push_train_chunks_wait_for_their_start_instants() {
        let net = net();
        let chunk = 6 << 20; // 0.1 s on the 60 MiB/s NIC
                             // Chunks delivered every 0.3 s but served in 0.1 s: each store
                             // waits for its delivery, none queue on the pipes.
        let starts = vec![SimTime::ZERO, SimTime(300_000_000), SimTime(600_000_000)];
        let ends = push_train(&starts, net.node(NodeId(2)), net.fabric(), &[chunk; 3]);
        for (s, e) in starts.iter().zip(&ends) {
            assert!((e.since(*s).as_secs_f64() - 0.1).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_train_is_a_no_op() {
        let net = net();
        assert!(pull_train(SimTime::ZERO, net.node(NodeId(0)), net.fabric(), &[]).is_empty());
        assert!(push_train(&[], net.node(NodeId(0)), net.fabric(), &[]).is_empty());
        assert_eq!(net.node(NodeId(0)).disk.next_free(), SimTime::ZERO);
        assert_eq!(net.fabric().next_free(), SimTime::ZERO);
    }

    #[test]
    fn disjoint_transfers_overlap_shared_endpoints_serialise() {
        let mut net = net();
        let block = 128 << 20;
        let a = net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), block);
        let b = net.transfer(SimTime::ZERO, NodeId(2), NodeId(3), block);
        let c = net.transfer(SimTime::ZERO, NodeId(0), NodeId(4), block);
        assert_eq!(a.start, b.start, "independent node pairs start together");
        assert!(c.start >= a.end, "same source NIC/disk must queue");
        // Bottleneck is the 60 MiB/s NIC: 128 MiB take ~2.13 s.
        let expect = 128.0 / 60.0;
        assert!((a.duration().as_secs_f64() - expect).abs() < 1e-6);
    }

    #[test]
    fn local_reads_only_use_the_disk() {
        let net = net();
        let r = net
            .node(NodeId(5))
            .disk
            .reserve_bytes(SimTime::ZERO, 100 << 20);
        assert!((r.duration().as_secs_f64() - 1.0).abs() < 1e-6);
        // The NIC stayed free.
        assert_eq!(net.node(NodeId(5)).nic.next_free(), SimTime::ZERO);
    }

    #[test]
    fn transfer_reports_per_pipe_waits_and_fabric_delay() {
        let fabric = Resource::new(100.0);
        let src = Resource::new(100.0);
        let dst = Resource::new(100.0);
        // Keep the source busy for 2 s and the fabric busy for 1 s.
        src.occupy_until(SimTime(2_000_000_000));
        fabric.reserve_bytes(SimTime::ZERO, 100 << 20);
        let out = Transfer::new(&fabric, 100 << 20)
            .via(&src)
            .via(&dst)
            .issue(SimTime::ZERO);
        // The transfer waited 2 s on the source and none on the destination.
        assert_eq!(out.pipe_waits().len(), 2);
        assert_eq!(out.pipe_waits()[0].as_secs_f64(), 2.0);
        assert_eq!(out.pipe_waits()[1].as_secs_f64(), 0.0);
        assert_eq!(out.reservation.start, SimTime(2_000_000_000));
        // Pipes and fabric run at the same rate and the fabric freed up
        // before the start, so it adds no completion delay here.
        assert_eq!(out.fabric_delay, SimDuration::ZERO);
        assert_eq!(out.reservation.duration().as_secs_f64(), 1.0);
        // Both pipes are held through the end.
        assert_eq!(src.next_free(), out.reservation.end);
        assert_eq!(dst.next_free(), out.reservation.end);
    }

    #[test]
    fn saturated_fabric_extends_the_transfer() {
        // Fabric slower than the pipes: the transfer is fabric-bound and the
        // extra time is reported as fabric delay.
        let fabric = Resource::new(50.0);
        let pipe = Resource::new(100.0);
        let out = Transfer::new(&fabric, 100 << 20)
            .via(&pipe)
            .issue(SimTime::ZERO);
        assert_eq!(out.reservation.duration().as_secs_f64(), 2.0);
        assert_eq!(out.fabric_delay.as_secs_f64(), 1.0);
        assert_eq!(out.pipe_waits(), [SimDuration::ZERO]);
    }

    #[test]
    fn a_pipeless_transfer_only_queues_through_the_fabric() {
        let fabric = Resource::new(100.0);
        let a = Transfer::new(&fabric, 100 << 20).issue(SimTime::ZERO);
        assert!(a.pipe_waits().is_empty());
        assert_eq!(a.reservation.start, SimTime::ZERO);
        // No pipe bounds the service time, so the fabric's 1 s is all delay.
        assert_eq!(a.fabric_delay.as_secs_f64(), 1.0);
        let b = Transfer::new(&fabric, 100 << 20).issue(SimTime::ZERO);
        assert_eq!(b.reservation.start, SimTime::ZERO);
        assert_eq!(b.reservation.end.as_secs_f64(), 2.0);
    }

    #[test]
    fn four_pipes_report_four_waits_in_via_order() {
        let fabric = Resource::new(1000.0);
        let pipes: Vec<Resource> = (0..MAX_PIPES).map(|_| Resource::new(100.0)).collect();
        for (i, pipe) in pipes.iter().enumerate() {
            pipe.occupy_until(SimTime(i as u64 * 1_000_000_000));
        }
        let out = pipes
            .iter()
            .fold(Transfer::new(&fabric, 100 << 20), Transfer::via)
            .issue(SimTime::ZERO);
        let waits: Vec<f64> = out.pipe_waits().iter().map(|w| w.as_secs_f64()).collect();
        assert_eq!(waits, [0.0, 1.0, 2.0, 3.0]);
        assert_eq!(out.reservation.start.as_secs_f64(), 3.0);
        assert_eq!(out.reservation.end.as_secs_f64(), 4.0);
        for pipe in &pipes {
            assert_eq!(pipe.next_free(), out.reservation.end);
        }
    }

    #[test]
    #[should_panic(expected = "at most 4 pipes")]
    fn a_fifth_pipe_is_rejected_not_dropped() {
        let fabric = Resource::new(100.0);
        let pipe = Resource::new(100.0);
        let _ = (0..=MAX_PIPES).fold(Transfer::new(&fabric, 1), |t, _| t.via(&pipe));
    }

    #[test]
    fn cluster_transfer_holds_source_disk_nic_and_destination_nic_disk() {
        // `ClusterNet::transfer` is the four-pipe Transfer over both
        // endpoints' disk and NIC: identical windows for identical traffic.
        let mut a = net();
        let b = net();
        let block = 128 << 20;
        for i in 0..8usize {
            let (src, dst) = (NodeId(i % 3), NodeId(3 + i % 4));
            let legacy = a.transfer(SimTime::ZERO, src, dst, block);
            let via = Transfer::new(b.fabric(), block)
                .via(&b.node(src).disk)
                .via(&b.node(src).nic)
                .via(&b.node(dst).nic)
                .via(&b.node(dst).disk)
                .issue(SimTime::ZERO);
            assert_eq!(legacy, via.reservation, "transfer {i}");
        }
    }

    #[test]
    fn reset_clears_reservations() {
        let mut net = net();
        net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1 << 30);
        net.set_node_slowdown(NodeId(3), Positive::new(8.0).unwrap());
        net.reset();
        assert_eq!(net.node(NodeId(0)).disk.next_free(), SimTime::ZERO);
        assert_eq!(net.fabric().next_free(), SimTime::ZERO);
        assert_eq!(net.node(NodeId(3)).disk.slowdown(), 1.0);
        assert_eq!(net.len(), 25);
        assert!(!net.is_empty());
    }

    #[test]
    fn restore_blocks_the_outage_window() {
        let mut net = net();
        // Recovery at t=30s: nothing can be granted a window inside the
        // outage, so a transfer issued "at the epoch" afterwards starts at
        // the recovery instant.
        let up_at = SimTime(30_000_000_000);
        net.restore_node(up_at, NodeId(7));
        let r = net.transfer(SimTime::ZERO, NodeId(7), NodeId(8), 1 << 20);
        assert!(r.start >= up_at);
    }

    #[test]
    fn node_slowdown_stretches_io() {
        let mut net = net();
        // simulation_25: 100 MiB/s disks. At 4x slowdown, 100 MiB take 4 s.
        net.set_node_slowdown(NodeId(1), Positive::new(4.0).unwrap());
        let r = net
            .node(NodeId(1))
            .disk
            .reserve_bytes(SimTime::ZERO, 100 << 20);
        assert!((r.duration().as_secs_f64() - 4.0).abs() < 1e-6);
        net.set_node_slowdown(NodeId(1), Positive::new(1.0).unwrap());
        let healthy = net
            .node(NodeId(1))
            .disk
            .reserve_bytes(SimTime::ZERO, 100 << 20);
        assert!((healthy.duration().as_secs_f64() - 1.0).abs() < 1e-6);
    }
}
