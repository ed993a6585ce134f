//! The file-system facade and the RaidNode, rebuilt on the event-driven
//! substrate.
//!
//! [`DistributedFileSystem`] plays the role of the whole HDFS + HDFS-RAID
//! deployment of §4: a NameNode for metadata, one DataNode per cluster node
//! for block storage, a client write/read path that stripes and encodes files
//! with a chosen [`CodeKind`], and a RaidNode that repairs lost replicas after
//! node failures.
//!
//! Repairs and degraded reads are *planned* by the code around every node
//! that cannot serve the stripe (down, or wiped and not yet repaired), so
//! the network cost follows the paper's partial-parity accounting exactly,
//! and then *executed* by the code's plan executor
//! ([`drc_codes::RepairPlan::execute`] / [`drc_codes::ReadPlan::execute`])
//! against the handles the usable nodes hold: every rebuilt byte comes from
//! the transfers the pass charged, and none from a dead node.
//! A file ingested length-only ([`EncodedFile::sized`]) is planned, timed
//! and accounted identically — plans and events depend on block lengths
//! alone — and only the GF evaluation is skipped: there are no bytes to
//! produce.
//!
//! # Virtual time and overlap
//!
//! Every operation is issued at the file system's current virtual instant
//! ([`DistributedFileSystem::now`]) and executed as timed events against
//! the modeled resources: each DataNode's disk, each node's NIC and the
//! shared LAN fabric. Operations issued
//! without advancing the clock **overlap in virtual time** — a RaidNode
//! repair pass and a batch of degraded reads issued back-to-back contend for
//! the same disks and links instead of executing serially, which is exactly
//! the contention the paper's experiments measure. Call
//! [`DistributedFileSystem::sync`] to advance that instant past everything
//! in flight; inspect [`DistributedFileSystem::timeline`] for the per-phase
//! record (and [`drc_sim::overlap`] for how long two kinds of work ran
//! concurrently).
//!
//! The resources themselves live in one cluster-wide
//! [`drc_sim::ClusterNet`] that the file system owns, next to its DataNodes:
//! a DataNode is a plain replica map, and every timed store and read on its
//! disk and NIC is issued here. The net is lent out by `&mut` through
//! [`DistributedFileSystem::cluster_net_mut`]: hand it to the MapReduce
//! engine's `JobRun::on` and a job's shuffle fetches queue on the same NICs
//! and fabric as a repair pass overlapping it in virtual time (the
//! `shuffle_contention` experiment measures exactly that).
//!
//! # Trace-driven failures, detection and auto-repair
//!
//! Failures need not be static configuration: schedule a
//! [`drc_cluster::FailureTrace`] with
//! [`DistributedFileSystem::schedule_trace`] and drive it with
//! [`DistributedFileSystem::process_events_until`]. The trace runs through a
//! [`FailureReplay`] — the same replay the MapReduce engine consumes, so both
//! layers agree on when a failure is noticed: nodes fail-stop at their trace
//! instants and go silent, and — one
//! [`DistributedFileSystem::detection_timeout`] later — are declared dead,
//! at which point this layer executes their repairs as timed events on the
//! same shared [`ClusterNet`] everything else contends on. Failure intervals are
//! half-open like [`Timeline`] phases: a node down at `t` and restored at
//! `t'` is unavailable over `[t, t')`, and the detection-lag window
//! `[t, t + timeout)` appears on the timeline as a
//! [`PhaseKind::DetectionLag`] phase.
//! A trace with every failure at t = 0 processed under a zero detection
//! timeout reproduces the static model (`fail_node_permanently` +
//! [`DistributedFileSystem::repair_nodes`]) byte-for-byte.
//!
//! The [`Timeline`] is the only traffic count: every operation records its
//! phase as soon as its traffic is reserved, on error paths too, and
//! [`FsStats`] and [`RepairReport`] read their byte totals off the phases.
//! Byte accounting is independent of the virtual clock.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use drc_cluster::{Cluster, ClusterSpec, FailureTrace, NodeId, PlacementMap, PlacementPolicy};
use drc_codes::{CodeError, CodeKind, ErasureCode};
use drc_sim::{
    chunk_sizes, ClusterNet, FailureReplay, PhaseClass, PhaseKind, ReplayStep, SimDuration,
    SimTime, Timeline,
};

use crate::block::{Block, BlockKey};
use crate::datanode::DataNode;
use crate::encoded::{encode_stripe, pooled_block, EncodedFile};
use crate::namenode::{FileId, FileMetadata, NameNode};
use crate::HdfsError;

/// Aggregate statistics of the file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsStats {
    /// Number of files.
    pub files: usize,
    /// Total stored block replicas across all DataNodes.
    pub stored_blocks: usize,
    /// Total bytes stored across all DataNodes (including parity and replicas).
    pub stored_bytes: u64,
    /// Bytes moved over the network by writes: the `Write` phases' bytes.
    pub write_network_bytes: u64,
    /// Bytes moved by reads: the `Read` plus `DegradedRead` phases' bytes.
    pub read_network_bytes: u64,
    /// Bytes moved over the network by repairs: the `Repair` phases' bytes.
    pub repair_network_bytes: u64,
}

/// The outcome of one RaidNode repair pass, read off the
/// [`PhaseKind::Repair`] phases it recorded (one per repaired stripe).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Stripes that had at least one replica restored: the pass's phases.
    pub stripes_repaired: usize,
    /// Block replicas written back to replacement nodes (counted).
    pub blocks_restored: usize,
    /// Network bytes of the pass's phases (per the codes' repair plans).
    pub network_bytes: u64,
    /// Stripes that could not be repaired, beyond code tolerance (counted).
    pub unrecoverable_stripes: usize,
    /// The virtual instant the pass was issued.
    pub issued_at: SimTime,
    /// The virtual instant the last stripe finished repairing, its phase's
    /// end (equals `issued_at` when there was nothing to do).
    pub completed_at: SimTime,
}

/// The default heartbeat detection timeout: a silent node is declared dead
/// (and its repairs launched) this much virtual time after its heartbeats
/// stop. Three seconds is the real HDFS heartbeat *interval*;
/// the production dead-node interval (10.5 minutes) would dwarf the
/// second-scale virtual experiments, so the simulated NameNode detects at
/// heartbeat granularity. Configure per instance with
/// [`DistributedFileSystem::set_detection_timeout`].
pub const DEFAULT_DETECTION_TIMEOUT: SimDuration = SimDuration(3_000_000_000);

/// The default streaming granularity for repairs and degraded reads: blocks
/// move and rebuild in 1 MiB chunks, so a stripe's store traffic overlaps
/// the next chunk's helper fetches instead of waiting for whole blocks.
/// Configure per instance with
/// [`DistributedFileSystem::set_repair_chunk_bytes`]; `u64::MAX` (or any
/// value ≥ the block size) degenerates to the monolithic whole-block
/// schedule, which is the serial baseline the `repair_pipeline` experiment
/// compares against.
pub const DEFAULT_REPAIR_CHUNK_BYTES: u64 = 1 << 20;

/// One stripe's deferred replacement-store schedule: each chunk `ci` of the
/// rebuilt blocks is pushed onto every destination at `fetch_done[ci]` (the
/// instant that chunk's slowest helper fetch lands).
///
/// The repair pass issues *every* stripe's fetch trains first and only then
/// issues stores, globally sorted by start time: resources grant FIFO in
/// issuance order, so issuing one stripe's late store windows before another
/// stripe's epoch-issued fetches would queue those fetches behind stores
/// that, in virtual time, happen after them.
struct PendingStores {
    file: FileId,
    stripe: usize,
    plan_bytes: u64,
    sizes: Vec<u64>,
    fetch_done: Vec<SimTime>,
    dests: Vec<NodeId>,
}

/// The simulated HDFS deployment.
pub struct DistributedFileSystem {
    cluster: Cluster,
    namenode: NameNode,
    /// One DataNode per cluster node, indexed by [`NodeId`].
    datanodes: Vec<DataNode>,
    code_cache: BTreeMap<CodeKind, Arc<dyn ErasureCode>>,
    /// The cluster-wide resource model (per-node disks and NICs plus the
    /// shared LAN fabric). Every DataNode's timed I/O is issued on it here,
    /// and [`DistributedFileSystem::cluster_net_mut`] lends the same model
    /// to other layers (the MapReduce engine's shuffle), so all traffic
    /// queues on the same links.
    net: ClusterNet,
    /// The virtual instant operations are issued at; only moves forward.
    now: SimTime,
    timeline: Timeline,
    rng: ChaCha8Rng,
    /// The scheduled failure traces and the detection boundaries they
    /// imply, drained by [`DistributedFileSystem::process_events_until`].
    replay: FailureReplay,
    /// Streaming granularity for repair and degraded-read transfers (see
    /// [`DEFAULT_REPAIR_CHUNK_BYTES`]).
    repair_chunk_bytes: u64,
}

impl std::fmt::Debug for DistributedFileSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedFileSystem")
            .field("nodes", &self.cluster.len())
            .field("files", &self.namenode.len())
            .field("now", &self.now)
            .finish()
    }
}

impl DistributedFileSystem {
    /// Creates a file system over a fresh cluster with the given spec.
    pub fn new(spec: ClusterSpec, seed: u64) -> Self {
        let net = ClusterNet::new(&spec);
        let cluster = Cluster::new(spec);
        let replay = FailureReplay::new(cluster.len(), DEFAULT_DETECTION_TIMEOUT);
        let datanodes = std::iter::repeat_with(DataNode::default)
            .take(cluster.len())
            .collect();
        DistributedFileSystem {
            cluster,
            namenode: NameNode::new(),
            datanodes,
            code_cache: BTreeMap::new(),
            net,
            now: SimTime::ZERO,
            timeline: Timeline::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            replay,
            repair_chunk_bytes: DEFAULT_REPAIR_CHUNK_BYTES,
        }
    }

    /// The underlying cluster state.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The NameNode (metadata) view.
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// Access to a DataNode (for inspection in tests and experiments).
    pub fn datanode(&self, node: NodeId) -> Option<&DataNode> {
        self.datanodes.get(node.0)
    }

    /// The cluster-wide resource model this file system's traffic runs on.
    ///
    /// Lend it by `&mut` to other layers (e.g. the MapReduce engine's
    /// `JobRun::on`) to make their traffic contend with writes, repairs and
    /// degraded reads for the same per-node disks, NICs and the shared LAN
    /// fabric — the contention the paper's experiments are about.
    pub fn cluster_net_mut(&mut self) -> &mut ClusterNet {
        &mut self.net
    }

    /// The current virtual instant operations are issued at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The per-phase virtual-time record of everything executed so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Advances the clock past every operation in flight and returns the new
    /// instant. Operations issued *before* a `sync` overlap in virtual time;
    /// operations issued *after* start once the earlier ones are done.
    pub fn sync(&mut self) -> SimTime {
        let end = self.timeline.end();
        self.now = self.now.max(end);
        self.now
    }

    fn code(&mut self, kind: CodeKind) -> Result<Arc<dyn ErasureCode>, HdfsError> {
        if let Some(c) = self.code_cache.get(&kind) {
            return Ok(Arc::clone(c));
        }
        let built = kind.build()?;
        self.code_cache.insert(kind, Arc::clone(&built));
        Ok(built)
    }

    /// Writes `data` as a new file protected by `code`, striping it into
    /// blocks of the cluster's configured block size. Every data block is
    /// copied into a pooled buffer of its own and every stripe is encoded
    /// as it is written.
    ///
    /// Every replica store is a timed event (client → node NIC → disk over
    /// the shared fabric); stores to different nodes overlap.
    ///
    /// # Errors
    ///
    /// Returns an error if the name exists, the data is empty or the code
    /// does not fit the cluster (a refused write registers, stores and
    /// times nothing).
    pub fn write_file(
        &mut self,
        name: &str,
        data: &[u8],
        code_kind: CodeKind,
    ) -> Result<FileId, HdfsError> {
        let block_size = self.block_size();
        self.write_stripes(name, data.len(), code_kind, true, |code, stripe| {
            encode_stripe(code, stripe, block_size, |start| {
                pooled_block(data, start, block_size)
            })
        })
    }

    /// [`DistributedFileSystem::write_file`] for a file that was striped
    /// and encoded ahead of time: every stored block is a clone of one of
    /// `file`'s handles, so ingesting it touches no payload byte and the
    /// same [`EncodedFile`] can be written to any number of file systems.
    /// Placement, timed events, accounting and stored bytes are identical
    /// to `write_file`'s of the same bytes under the same code.
    ///
    /// A length-only file ([`EncodedFile::sized`]) goes through the same
    /// loop: the stored handles carry lengths and no bytes, and everything
    /// observable except the content-returning reads stays as it would be
    /// for a payload of that length.
    ///
    /// # Errors
    ///
    /// As [`DistributedFileSystem::write_file`], and if `file` was striped
    /// at a block size other than this cluster's.
    pub fn write_encoded(&mut self, name: &str, file: &EncodedFile) -> Result<FileId, HdfsError> {
        if file.block_size() != self.block_size() {
            return Err(HdfsError::InvalidRequest {
                reason: format!(
                    "file encoded with {}-byte blocks, the cluster stores {}-byte blocks",
                    file.block_size(),
                    self.block_size()
                ),
            });
        }
        let has_content = file.has_content();
        self.write_stripes(
            name,
            file.len(),
            file.code(),
            has_content,
            |code, stripe| Ok(file.stripe_blocks(code, stripe)),
        )
    }

    fn block_size(&self) -> usize {
        self.cluster.spec().block_size_bytes() as usize
    }

    /// The one stripe loop behind both write entry points: registers a
    /// `len`-byte file, then places and distributes it stripe by stripe.
    /// `stripe_blocks(code, stripe)` yields that stripe's distinct blocks
    /// (data zero-padded to the block size, then parities) — encoded on the
    /// spot, ahead of time, or length-only (`has_content` false): the only
    /// thing the entry points differ in.
    fn write_stripes(
        &mut self,
        name: &str,
        len: usize,
        code_kind: CodeKind,
        has_content: bool,
        stripe_blocks: impl Fn(&dyn ErasureCode, usize) -> Result<Vec<Block>, HdfsError>,
    ) -> Result<FileId, HdfsError> {
        if len == 0 {
            return Err(HdfsError::InvalidRequest {
                reason: "cannot write an empty file".to_string(),
            });
        }
        let code = self.code(code_kind)?;
        let block_size = self.block_size();
        let k = code.data_blocks();
        let content_blocks = len.div_ceil(block_size);
        let stripes = content_blocks.div_ceil(k);
        let placement = PlacementMap::place(
            code.as_ref(),
            &self.cluster,
            stripes,
            PlacementPolicy::Random,
            &mut self.rng,
        )?;
        let issued = self.now;
        let id = self.namenode.register(
            name,
            len as u64,
            block_size as u64,
            code_kind,
            k,
            issued,
            has_content,
            placement,
        )?;
        let meta = self.namenode.file(id)?.clone();

        // Distribute. Every pooled payload returns to the pool when its
        // last holder drops it. A stripe that fails leaves the stores issued
        // before it on the Write phase.
        let (mut bytes, mut write_end) = (0u64, issued);
        let mut distribute = || -> Result<(), HdfsError> {
            for stripe in 0..stripes {
                let blocks = stripe_blocks(code.as_ref(), stripe)?;
                for (block_index, content) in blocks.into_iter().enumerate() {
                    let key = BlockKey::new(id, stripe, block_index);
                    for &node in &meta.block_locations(stripe, block_index)? {
                        let (io, fabric) = (self.net.node(node), self.net.fabric());
                        let res = drc_sim::push_to(issued, io, fabric, content.len() as u64);
                        bytes += content.len() as u64;
                        self.datanodes[node.0].store(key, content.clone());
                        write_end = write_end.max(res.end);
                    }
                }
            }
            Ok(())
        };
        let written = distribute();
        let kind = PhaseKind::Write { file: id.0 };
        self.timeline.record(kind, issued, write_end, bytes);
        written.map(|()| id)
    }

    /// Reads back a whole file, transparently performing degraded reads for
    /// blocks whose replicas are all unreachable, into one caller-owned
    /// buffer.
    ///
    /// All block reads are issued at the same virtual instant (HDFS clients
    /// fetch stripes in parallel); reads hitting the same disk queue behind
    /// each other.
    ///
    /// # Errors
    ///
    /// Returns [`HdfsError::BlockUnavailable`] if a block cannot be read even
    /// with reconstruction, and [`HdfsError::NoContent`] — before any timed
    /// event is issued — for a file that was ingested length-only.
    pub fn read_file(&mut self, id: FileId) -> Result<Vec<u8>, HdfsError> {
        let meta = self.namenode.file(id)?;
        if !meta.has_content {
            return Err(HdfsError::NoContent { len: meta.size });
        }
        let mut out = drc_gf::bufpool::bulk_with_capacity(meta.size as usize);
        self.read_content_blocks(id, |block| {
            out.extend_from_slice(block.bytes()?);
            // A block rebuilt for a degraded read is this handle's alone:
            // shelve it for the next rebuild. A replica's is shared.
            block.recycle_if_sole();
            Ok(())
        })?;
        Ok(out)
    }

    /// [`DistributedFileSystem::read_file`] without the file-sized copy:
    /// the file's content blocks in order, each the replica's (or the
    /// reconstruction's) own handle, the last one cut to the file's length.
    /// Timed events, phases and accounting are `read_file`'s — for a
    /// length-only file too, whose handles have lengths and no bytes
    /// ([`Block::bytes`] is the typed error).
    ///
    /// # Errors
    ///
    /// Returns [`HdfsError::BlockUnavailable`] if a block cannot be read even
    /// with reconstruction.
    pub fn read_file_blocks(&mut self, id: FileId) -> Result<Vec<Block>, HdfsError> {
        let mut blocks = Vec::new();
        self.read_content_blocks(id, |block| {
            blocks.push(block);
            Ok(())
        })?;
        Ok(blocks)
    }

    /// The one whole-file read loop: hands every content block to `sink` in
    /// file order (the last one truncated to the file's length) and records
    /// the [`PhaseKind::Read`] phase, also when a block fails: the reads
    /// issued before it stay on the record.
    fn read_content_blocks(
        &mut self,
        id: FileId,
        mut sink: impl FnMut(Block) -> Result<(), HdfsError>,
    ) -> Result<(), HdfsError> {
        let meta = self.namenode.file(id)?.clone();
        let issued = self.now;
        // Phase bytes are disjoint: a degraded read records its own phase,
        // so the Read phase carries the replica bytes it issued.
        let (mut replica_bytes, mut read_end) = (0u64, issued);
        let mut remaining = meta.size as usize;
        let read = meta.content_block_keys().into_iter().try_for_each(|key| {
            let (block, done) = match self.read_replica(&meta, key, issued)? {
                Some(replica) => {
                    replica_bytes += replica.0.len() as u64;
                    replica
                }
                None => self.read_degraded(&meta, key, issued)?,
            };
            read_end = read_end.max(done);
            let take = remaining.min(block.len());
            remaining -= take;
            if take < block.len() {
                sink(block.prefix(take))?;
                // The sink saw a view; if it kept none, a rebuilt tail
                // block is this handle's alone again.
                block.recycle_if_sole();
                Ok(())
            } else {
                sink(block)
            }
        });
        let kind = PhaseKind::Read { file: id.0 };
        self.timeline.record(kind, issued, read_end, replica_bytes);
        read
    }

    /// The replica read: the first up node holding `key` serves it as a
    /// timed pull on its disk + NIC and is charged its length. `None` when
    /// no up node holds it (a miss costs nothing: the node answers from
    /// metadata).
    fn read_replica(
        &mut self,
        meta: &FileMetadata,
        key: BlockKey,
        issued: SimTime,
    ) -> Result<Option<(Block, SimTime)>, HdfsError> {
        for &node in &meta.block_locations(key.stripe, key.block)? {
            if !self.cluster.is_up(node) {
                continue;
            }
            let dn = &mut self.datanodes[node.0];
            if let Some(data) = dn.peek(&key) {
                dn.record_served(data.len() as u64);
                let (io, fabric) = (self.net.node(node), self.net.fabric());
                let res = drc_sim::pull_from(issued, io, fabric, data.len() as u64);
                return Ok(Some((data, res.end)));
            }
        }
        Ok(None)
    }

    /// The degraded read: plan around every unusable node, issue the plan's
    /// fetches, record the [`PhaseKind::DegradedRead`] phase, then execute
    /// the plan against what the usable nodes hold. Returns the block and
    /// its virtual completion.
    fn read_degraded(
        &mut self,
        meta: &FileMetadata,
        key: BlockKey,
        issued: SimTime,
    ) -> Result<(Block, SimTime), HdfsError> {
        let code = self.code(meta.code)?;
        let hosts = meta.placement.stripe_hosts(key.stripe)?;
        let unusable = self.unusable_nodes(meta, key.stripe, &hosts, code.as_ref());
        let unavailable = |e: CodeError| HdfsError::BlockUnavailable {
            block: key,
            reason: e.to_string(),
        };
        let plan = code
            .degraded_read_plan(key.block, &unusable)
            .map_err(unavailable)?;
        let bytes = plan.network_blocks as u64 * meta.block_size;
        // The plan's fetches, each as a chunk-streamed train of timed pulls
        // on the sender's disk + NIC + fabric, so modeled and accounted
        // traffic agree. The phase goes on the record before the plan runs:
        // the fetches are reserved whether or not it succeeds.
        let senders: Vec<NodeId> = plan.transfers.iter().map(|t| hosts[t.from_node]).collect();
        let (_, fetch_done) = self.issue_fetch_trains(&senders, meta.block_size, issued);
        let done = fetch_done.last().copied().unwrap_or(issued);
        let kind = PhaseKind::DegradedRead {
            file: meta.id.0,
            stripe: key.stripe,
            block: key.block,
        };
        self.timeline.record(kind, issued, done, bytes);
        let view = self.stripe_view(meta.id, key.stripe, &hosts, &unusable);
        let (content, moved) = plan.execute(code.structure(), view).map_err(unavailable)?;
        debug_assert_eq!(moved, bytes, "executed = charged");
        Ok((content, done))
    }

    /// The stripe-local nodes that cannot serve `stripe`: down, or holding
    /// none of its blocks (wiped and not yet repaired). Degraded reads plan
    /// around them, and repairs plan around the ones they do not replace.
    fn unusable_nodes(
        &self,
        meta: &FileMetadata,
        stripe: usize,
        hosts: &[NodeId],
        code: &dyn ErasureCode,
    ) -> BTreeSet<usize> {
        let holds_none = |local: usize, dn: &DataNode| {
            code.node_blocks(local)
                .iter()
                .all(|&b| !dn.contains(&BlockKey::new(meta.id, stripe, b)))
        };
        hosts
            .iter()
            .enumerate()
            .filter(|&(local, node)| {
                !self.cluster.is_up(*node) || holds_none(local, &self.datanodes[node.0])
            })
            .map(|(local, _)| local)
            .collect()
    }

    /// What the plan executor may read of `stripe`: stripe-local `local`'s
    /// handle to `block`, unless the node is `excluded`. Accounting-neutral
    /// ([`DataNode::peek`]): the senders are charged from the plan
    /// (`DataNode::record_served` in [`Self::issue_fetch_trains`]), and the
    /// handles are shared `Bytes` (or bare lengths), never copies.
    fn stripe_view<'a>(
        &'a self,
        file: FileId,
        stripe: usize,
        hosts: &'a [NodeId],
        excluded: &'a BTreeSet<usize>,
    ) -> impl Fn(usize, usize) -> Option<Block> + 'a {
        move |local, block| {
            if excluded.contains(&local) {
                return None;
            }
            let node = hosts.get(local)?;
            self.datanodes[node.0].peek(&BlockKey::new(file, stripe, block))
        }
    }

    /// Fail-stops a node now: it is down and its blocks are gone. This is
    /// the file system's only failure — what [`ReplayStep::Down`] means when
    /// [`DistributedFileSystem::process_events_until`] drains a trace, which
    /// calls this. A node comes back only empty: re-provisioned by
    /// [`DistributedFileSystem::repair_nodes`], or rejoining through a
    /// trace's `NodeUp`.
    ///
    /// It stays a direct entry for the callers whose victims are already
    /// down when their measurement starts: through a trace, each would need
    /// a schedule, a drain, and a detection boundary that `repair_nodes`
    /// then has to cancel. A node this cluster does not have is ignored.
    pub fn fail_node_permanently(&mut self, node: NodeId) {
        self.cluster.set_down(node);
        if let Some(dn) = self.datanodes.get_mut(node.0) {
            dn.wipe();
        }
    }

    /// How long after a node's heartbeats stop it is declared dead and the
    /// failure engine launches the auto-repair.
    pub fn detection_timeout(&self) -> SimDuration {
        self.replay.detection_timeout()
    }

    /// Sets the heartbeat detection timeout (see
    /// [`DEFAULT_DETECTION_TIMEOUT`]). A zero timeout detects failures the
    /// instant they occur — the configuration under which a t = 0 trace
    /// reproduces a cluster whose victims start down byte-for-byte.
    ///
    /// A detection boundary is `silent instant + timeout`, evaluated with
    /// the timeout in force when the engine reaches it: changing the timeout
    /// after scheduling moves the boundary of every node not yet declared
    /// dead, out or in. A boundary a lowered timeout moves behind what the
    /// engine has already processed fires at that frontier.
    pub fn set_detection_timeout(&mut self, timeout: SimDuration) {
        self.replay.set_detection_timeout(timeout);
    }

    /// The streaming granularity of repair and degraded-read transfers.
    pub fn repair_chunk_bytes(&self) -> u64 {
        self.repair_chunk_bytes
    }

    /// Sets the streaming chunk size (see [`DEFAULT_REPAIR_CHUNK_BYTES`]).
    ///
    /// Every repair/degraded-read transfer is issued as a train of
    /// chunk-sized reservations, so a stripe's replacement stores begin the
    /// moment the first chunk's helper fetches land — overlapping the
    /// remaining fetches — instead of waiting for whole blocks. `u64::MAX`
    /// (or anything ≥ the block size; `0` is treated the same) reproduces
    /// the monolithic whole-block schedule. Restored bytes and traffic
    /// accounting are identical at every chunk size; only the virtual-time
    /// schedule changes.
    pub fn set_repair_chunk_bytes(&mut self, chunk: u64) {
        self.repair_chunk_bytes = chunk;
    }

    /// Schedules a failure trace for the engine to replay. Nothing executes
    /// until [`DistributedFileSystem::process_events_until`] drains it.
    ///
    /// Traces compose: scheduling a second trace merges its events into the
    /// pending ones in time order. The past cannot be rewritten, though —
    /// an event whose instant precedes what the engine has already
    /// processed fires at that processing frontier, so inject traces before
    /// draining past their instants if exact timing matters. Events naming
    /// nodes (or racks) this cluster does not have are dropped.
    pub fn schedule_trace(&mut self, trace: &FailureTrace) {
        self.replay.schedule(trace, &self.cluster);
    }

    /// Number of pending failure-engine steps: per-node trace events not yet
    /// applied plus one detection boundary per silent, undetected node.
    pub fn pending_events(&self) -> usize {
        self.replay.pending()
    }

    /// Drives the failure engine up to (and including) `horizon`: drains
    /// the [`FailureReplay`] — which decides *when* nodes fail, rejoin and
    /// are declared dead (expansion, ordering, the half-open same-instant
    /// rule; see its docs) — and gives each step its storage meaning:
    ///
    /// * [`ReplayStep::Down`] — the node fail-stops: it is down and its disk
    ///   is wiped (the repair-relevant permanent failure).
    /// * [`ReplayStep::Detected`] — the node stayed silent for a whole
    ///   `detection_timeout`: a [`PhaseKind::DetectionLag`] phase (zero bytes)
    ///   records the blind window on the timeline when the lag is non-zero,
    ///   and all nodes detected at the same instant are repaired as **one
    ///   batched pass** (exactly what
    ///   [`DistributedFileSystem::repair_nodes`] would do for that set), so
    ///   multi-node repair plans see the full failure pattern.
    /// * [`ReplayStep::Up`] — the node rejoins (empty, unless a repair
    ///   already re-provisioned it); a node that recovers before its
    ///   detection boundary is never declared dead and no repair runs.
    /// * [`ReplayStep::Slowdown`] — the node's disk and NIC bandwidth are
    ///   divided by the factor from that instant on.
    ///
    /// Returns the repair passes this call executed, in detection order.
    /// This is the only record of them: a caller that drains in several
    /// calls keeps the returned lists. The virtual clock is *not*
    /// advanced: like every other operation, engine work issued here
    /// overlaps whatever else is issued before the next
    /// [`DistributedFileSystem::sync`].
    ///
    /// # Errors
    ///
    /// Propagates internal repair errors; unrecoverable stripes are counted
    /// in the reports, not returned as errors.
    pub fn process_events_until(
        &mut self,
        horizon: SimTime,
    ) -> Result<Vec<RepairReport>, HdfsError> {
        let mut new_reports = Vec::new();
        // The nodes declared dead at `detected_at`. Boundaries sharing an
        // instant come out back to back, so the batch is complete — and is
        // repaired, re-provisioning its nodes — before anything at a later
        // instant is even looked at.
        let mut detected: Vec<NodeId> = Vec::new();
        let mut detected_at = SimTime::ZERO;
        loop {
            if !detected.is_empty() && self.replay.next_at() != Some(detected_at) {
                new_reports.push(self.repair_pass(&detected, detected_at)?);
                detected.clear();
            }
            let Some((at, step)) = self.replay.next_due(horizon, &self.cluster) else {
                return Ok(new_reports);
            };
            match step {
                ReplayStep::Down(node) => self.fail_node_permanently(node),
                // A recovery for a node that is already serving (e.g. an
                // auto-repair re-provisioned it before the trace's own
                // recovery instant) must not occupy its resources through
                // `at` — that would phantom-delay every later I/O on a node
                // that never stopped serving.
                ReplayStep::Up(node) => {
                    if !self.cluster.is_up(node) {
                        self.cluster.set_up(node);
                        self.net.restore_node(at, node);
                    }
                }
                ReplayStep::Slowdown(node, factor) => self.net.set_node_slowdown(node, factor),
                ReplayStep::Detected { node, silent_since } => {
                    self.timeline.record_detection_lag(node, silent_since, at);
                    detected.push(node);
                    detected_at = at;
                }
            }
        }
    }

    /// Drives the failure engine until no pending event remains (including
    /// the detection boundaries and repairs the drained events spawn).
    ///
    /// # Errors
    ///
    /// As [`DistributedFileSystem::process_events_until`].
    pub fn process_all_events(&mut self) -> Result<Vec<RepairReport>, HdfsError> {
        self.process_events_until(SimTime(u64::MAX))
    }

    /// The RaidNode's repair pass: for every stripe that lost replicas on
    /// permanently-failed (wiped) or down nodes, plan the repair with the
    /// stripe's code around every node that cannot serve it, execute the
    /// plan to rebuild the missing blocks, and write them to the replacement
    /// nodes (the same node ids, assumed to be re-provisioned and now up).
    ///
    /// Every stripe's repair is issued at the same virtual instant: helper
    /// reads and replacement writes become timed events that overlap across
    /// stripes (and with any degraded reads issued before the next
    /// [`DistributedFileSystem::sync`]), queueing only where they share a
    /// disk, a NIC or the fabric. Per-stripe completions go onto the
    /// timeline in virtual-time order.
    ///
    /// Every repaired node in `replacements` is marked up again.
    ///
    /// The failure engine's auto-repair queue executes exactly this pass
    /// (via the shared internals) at each detection instant, so a manual
    /// `repair_nodes` call and a trace-driven repair of the same failure
    /// set move identical bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HdfsError::DataNodeUnavailable`] if `replacements` names a
    /// node this cluster does not have; the pass then has no effect at all
    /// (no report, phase, reservation or counter). Otherwise an error means
    /// an internal inconsistency; unrecoverable stripes are *counted* in the
    /// report rather than failing the pass.
    pub fn repair_nodes(&mut self, replacements: &[NodeId]) -> Result<RepairReport, HdfsError> {
        if let Some(node) = replacements.iter().find(|n| n.0 >= self.datanodes.len()) {
            return Err(HdfsError::DataNodeUnavailable { node: node.0 });
        }
        self.repair_pass(replacements, self.now)
    }

    /// The repair pass shared by [`DistributedFileSystem::repair_nodes`]
    /// (issued at the current clock) and the failure engine's auto-repair
    /// queue (issued at the detection instant). Every stripe goes through
    /// scan → plan → execute → fetch trains (an unexecutable plan issues
    /// no traffic); the pass then commits all the deferred stores at once,
    /// also when a file failed to plan (the earlier fetches are reserved).
    fn repair_pass(
        &mut self,
        replacements: &[NodeId],
        issued: SimTime,
    ) -> Result<RepairReport, HdfsError> {
        let mut report = RepairReport {
            issued_at: issued,
            ..RepairReport::default()
        };
        let replaced: BTreeSet<NodeId> = replacements.iter().copied().collect();
        let mut stores: Vec<PendingStores> = Vec::new();
        // Collect the work per file first to avoid borrowing conflicts.
        let files: Vec<FileMetadata> = self.namenode.iter().cloned().collect();
        let plan_files = || -> Result<(), HdfsError> {
            for meta in files {
                let code = self.code(meta.code)?;
                for (stripe, failed_local) in
                    self.scan_lost_replicas(&meta, &replaced, code.as_ref())?
                {
                    let hosts = meta.placement.stripe_hosts(stripe)?;
                    let mut excluded = self.unusable_nodes(&meta, stripe, &hosts, code.as_ref());
                    let unusable: BTreeSet<usize> =
                        excluded.difference(&failed_local).copied().collect();
                    excluded.extend(&failed_local);
                    let Ok(plan) = code.repair_plan_around(&failed_local, &unusable) else {
                        report.unrecoverable_stripes += 1;
                        continue;
                    };
                    let plan_bytes = plan.network_blocks() as u64 * meta.block_size;
                    let slots =
                        self.missing_slots(&meta, stripe, &hosts, &failed_local, code.as_ref());
                    if slots.is_empty() {
                        continue;
                    }
                    let view = self.stripe_view(meta.id, stripe, &hosts, &excluded);
                    let Ok((restored, moved)) = plan.execute(code.structure(), view) else {
                        report.unrecoverable_stripes += 1;
                        continue;
                    };
                    debug_assert_eq!(moved, plan_bytes, "executed = charged");
                    self.commit_restored(&slots, &restored);
                    report.blocks_restored += slots.len();
                    let senders: Vec<NodeId> =
                        plan.transfers.iter().map(|t| hosts[t.from_node]).collect();
                    let (sizes, fetch_done) =
                        self.issue_fetch_trains(&senders, meta.block_size, issued);
                    stores.push(PendingStores {
                        file: meta.id,
                        stripe,
                        plan_bytes,
                        sizes,
                        fetch_done,
                        dests: slots.iter().map(|&(_, _, node)| node).collect(),
                    });
                }
            }
            Ok(())
        };
        let planned = plan_files();
        let first = self.timeline.phases.len();
        self.commit_stores(&stores, issued);
        let recorded = &self.timeline.phases[first..];
        report.stripes_repaired = recorded.len();
        report.network_bytes = recorded.iter().map(|p| p.bytes).sum();
        report.completed_at = recorded.iter().map(|p| p.end).fold(issued, SimTime::max);
        planned?;
        for &node in replacements {
            self.cluster.set_up(node);
            // The replacement is re-provisioned and heartbeating again from
            // `issued` on: nothing may be granted a window on it before.
            self.net.restore_node(issued, node);
            self.replay.heard_from(node);
        }
        Ok(report)
    }

    /// Repair step 1, scan: the stripes of `meta` that lost a replica on a
    /// `replaced` node, each with its failed stripe-local nodes. It walks
    /// each replaced node's reverse index instead of every stripe of every
    /// file: the work is proportional to the blocks the failed nodes
    /// actually hosted, which keeps repair viable against 10M-block
    /// placements.
    fn scan_lost_replicas(
        &self,
        meta: &FileMetadata,
        replaced: &BTreeSet<NodeId>,
        code: &dyn ErasureCode,
    ) -> Result<BTreeMap<usize, BTreeSet<usize>>, HdfsError> {
        let mut failed: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for &node in replaced {
            if node.0 >= meta.placement.node_universe() {
                continue; // this file's placement never saw the node
            }
            let dn = &self.datanodes[node.0];
            meta.placement
                .for_each_stripe_on_node(node, |stripe, local| {
                    let key = |block| BlockKey::new(meta.id, stripe, block);
                    let holds = |&block: &usize| dn.contains(&key(block));
                    if !code.node_blocks(local).iter().all(holds) {
                        failed.entry(stripe).or_default().insert(local);
                    }
                })
                .map_err(HdfsError::from)?;
        }
        Ok(failed)
    }

    /// Repair step 2, plan (after the code's plan prices the traffic): what
    /// is actually missing, and every replica slot it must land in — one
    /// distinct block can be missing on two failed nodes at once. Slots come
    /// as `(stripe-local node, key, node)`, block-major.
    fn missing_slots(
        &self,
        meta: &FileMetadata,
        stripe: usize,
        hosts: &[NodeId],
        failed_local: &BTreeSet<usize>,
        code: &dyn ErasureCode,
    ) -> Vec<(usize, BlockKey, NodeId)> {
        let mut slots = Vec::new();
        for &local in failed_local {
            let node = hosts[local];
            let dn = &self.datanodes[node.0];
            for &block in code.node_blocks(local) {
                let key = BlockKey::new(meta.id, stripe, block);
                if !dn.contains(&key) {
                    slots.push((local, key, node));
                }
            }
        }
        slots.sort_by_key(|&(_, key, _)| key.block);
        slots
    }

    /// Repair step 3, execute (after [`drc_codes::RepairPlan::execute`] has run the
    /// stripe's plan against the live holdings of its usable nodes): lands
    /// every missing block in its slot — a clone of the handle the plan
    /// delivered or rebuilt at that replacement.
    fn commit_restored(
        &mut self,
        slots: &[(usize, BlockKey, NodeId)],
        restored: &[(usize, usize, Block)],
    ) {
        for (local, key, node) in slots {
            let handle = restored
                .iter()
                .find(|(l, b, _)| l == local && *b == key.block)
                .map(|(_, _, handle)| handle);
            if let Some(handle) = handle {
                self.datanodes[node.0].store(*key, handle.clone());
            }
        }
    }

    /// Repair step 4, fetch trains (also a degraded read's fetches): every
    /// sender serves one train of chunk-sized pulls on its disk + NIC +
    /// fabric, all issued at `issued`, and is charged one block so per-node
    /// served bytes agree with the plan. Returns the chunk sizes and, per
    /// chunk, the instant its slowest fetch lands: the commit pushes chunk
    /// `ci` onto the replacements at `fetch_done[ci]`, overlapping chunk
    /// `ci + 1`'s fetches.
    ///
    /// With `repair_chunk_bytes ≥ block_size` this degenerates to the
    /// monolithic schedule: one whole-block fetch, then whole-block stores
    /// — the serial baseline.
    fn issue_fetch_trains(
        &mut self,
        senders: &[NodeId],
        block_size: u64,
        issued: SimTime,
    ) -> (Vec<u64>, Vec<SimTime>) {
        let fabric = self.net.fabric();
        let sizes: Vec<u64> = chunk_sizes(block_size, self.repair_chunk_bytes).collect();
        let mut fetch_done: Vec<SimTime> = vec![issued; sizes.len()];
        for &sender in senders {
            self.datanodes[sender.0].record_served(block_size);
            let ends = drc_sim::pull_train(issued, self.net.node(sender), fabric, &sizes);
            for (done, end) in fetch_done.iter_mut().zip(ends) {
                *done = (*done).max(end);
            }
        }
        (sizes, fetch_done)
    }

    /// Repair step 5, commit: one push train per (stripe, destination),
    /// chunk `ci` available at `fetch_done[ci]`, issued in ascending
    /// first-chunk-start order. Resources grant FIFO in issuance order —
    /// this ordering is what makes the grants agree with virtual time
    /// across stripes. Per-stripe completions then go onto the timeline as
    /// [`PhaseKind::Repair`] phases in virtual-time order, stripes that
    /// complete at the same instant in issue order.
    fn commit_stores(&mut self, stores: &[PendingStores], issued: SimTime) {
        let mut trains: Vec<(SimTime, usize, NodeId)> = Vec::new();
        for (ji, job) in stores.iter().enumerate() {
            let Some(&first) = job.fetch_done.first() else {
                continue;
            };
            for &dest in &job.dests {
                trains.push((first, ji, dest));
            }
        }
        trains.sort_by_key(|&(at, _, _)| at);
        let mut job_done: Vec<SimTime> = stores
            .iter()
            .map(|job| job.fetch_done.last().copied().unwrap_or(issued))
            .collect();
        for (_, ji, dest) in trains {
            let job = &stores[ji];
            let ends = drc_sim::push_train(
                &job.fetch_done,
                self.net.node(dest),
                self.net.fabric(),
                &job.sizes,
            );
            if let Some(&end) = ends.last() {
                job_done[ji] = job_done[ji].max(end);
            }
        }
        let mut completions: Vec<(SimTime, &PendingStores)> =
            job_done.into_iter().zip(stores).collect();
        completions.sort_by_key(|&(done, _)| done);
        for (done, job) in completions {
            let kind = PhaseKind::Repair {
                file: job.file.0,
                stripe: job.stripe,
            };
            self.timeline.record(kind, issued, done, job.plan_bytes);
        }
    }

    /// Aggregate statistics; the byte totals are folded from the timeline.
    pub fn stats(&self) -> FsStats {
        let bytes = |class| self.timeline.bytes_of(class);
        FsStats {
            files: self.namenode.len(),
            stored_blocks: self.datanodes.iter().map(DataNode::block_count).sum(),
            stored_bytes: self.datanodes.iter().map(DataNode::used_bytes).sum(),
            write_network_bytes: bytes(PhaseClass::Write),
            read_network_bytes: bytes(PhaseClass::Read) + bytes(PhaseClass::DegradedRead),
            repair_network_bytes: bytes(PhaseClass::Repair),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use drc_sim::overlap;

    fn spec() -> ClusterSpec {
        tiny_spec()
    }

    fn tiny_spec() -> ClusterSpec {
        // 1 MiB blocks are enough to exercise multi-stripe files cheaply.
        let mut s = ClusterSpec::simulation_25(4);
        s.block_size_mb = 1;
        s
    }

    /// Block-distinct content: with a short-period pattern every block is
    /// identical and a misplaced block passes the byte comparisons.
    fn sample_data(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    #[test]
    fn write_then_read_roundtrip_all_codes() {
        for kind in [
            CodeKind::TWO_REP,
            CodeKind::THREE_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
            CodeKind::HeptagonLocal,
        ] {
            let mut fs = DistributedFileSystem::new(tiny_spec(), 42);
            let data = sample_data(3 * 1024 * 1024 + 123);
            let id = fs.write_file("/data/file", &data, kind).unwrap();
            let back = fs.read_file(id).unwrap();
            assert_eq!(back, data, "roundtrip failed for {kind}");
        }
    }

    #[test]
    fn rejects_empty_files_and_duplicate_names() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 1);
        assert!(fs.write_file("/a", &[], CodeKind::TWO_REP).is_err());
        fs.write_file("/a", &[1, 2, 3], CodeKind::TWO_REP).unwrap();
        assert!(fs.write_file("/a", &[1], CodeKind::TWO_REP).is_err());
    }

    #[test]
    fn storage_overhead_matches_code() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 2);
        let data = sample_data(9 * 1024 * 1024); // exactly one pentagon stripe
        fs.write_file("/pent", &data, CodeKind::Pentagon).unwrap();
        let stats = fs.stats();
        assert_eq!(stats.files, 1);
        assert_eq!(stats.stored_blocks, 20);
        assert_eq!(stats.stored_bytes, 20 * 1024 * 1024);
    }

    /// Every replica store and replica read is a timed event on the node's
    /// own disk and NIC: on `simulation_25` (100 MiB/s disks, 60 MiB/s
    /// NICs) a 100 MiB store is NIC-bound at 100/60 s, and a read issued
    /// before `sync` queues behind it. Timing and counters are functions of
    /// the length: a real block and a sized one are indistinguishable.
    #[test]
    fn replica_io_queues_on_the_node_resources() {
        let mib = 1024 * 1024;
        let mut spec = ClusterSpec::simulation_25(4);
        spec.block_size_mb = 100;
        let run = |file: &EncodedFile| {
            let mut fs = DistributedFileSystem::new(spec.clone(), 3);
            let id = fs.write_encoded("/f", file).unwrap();
            let blocks = fs.read_file_blocks(id).unwrap();
            assert_eq!(
                blocks.iter().map(Block::len).collect::<Vec<_>>(),
                [100 * mib]
            );
            let hosts = fs
                .namenode()
                .file(id)
                .unwrap()
                .block_locations(0, 0)
                .unwrap();
            let counters: Vec<(u64, u64, u64)> = hosts
                .iter()
                .map(|&n| fs.datanode(n).unwrap())
                .map(|dn| (dn.used_bytes(), dn.bytes_received(), dn.bytes_served()))
                .collect();
            (fs.timeline().clone(), fs.stats(), counters)
        };
        let code = CodeKind::TWO_REP;
        let real = EncodedFile::encode(Bytes::from(vec![7u8; 100 * mib]), code, 100 * mib);
        let sized = EncodedFile::sized(code, 100 * mib, 100 * mib);
        let (timeline, stats, counters) = run(&real.unwrap());
        assert_eq!(
            (timeline.clone(), stats, counters.clone()),
            run(&sized.unwrap())
        );

        let [write, read] = timeline.phases[..] else {
            panic!("one write and one read phase: {timeline:?}");
        };
        assert_eq!((write.start, read.start), (SimTime::ZERO, SimTime::ZERO));
        assert!((write.duration().as_secs_f64() - 100.0 / 60.0).abs() < 1e-6);
        assert_eq!(
            read.end.since(write.end),
            write.duration(),
            "the read queues behind the write on its replica's disk and NIC"
        );
        let mib = mib as u64;
        assert_eq!(
            (
                stats.stored_bytes,
                stats.write_network_bytes,
                stats.read_network_bytes
            ),
            (200 * mib, 200 * mib, 100 * mib)
        );
        // The first replica serves the read; both received their store.
        assert_eq!(
            counters,
            [(100 * mib, 100 * mib, 100 * mib), (100 * mib, 100 * mib, 0)]
        );
    }

    /// A node id the cluster does not have is refused by a repair before
    /// the pass has any effect, and ignored by a failure.
    #[test]
    fn unknown_node_ids_are_refused_or_ignored() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 9);
        let data = sample_data(3 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        let victim = fs
            .namenode()
            .file(id)
            .unwrap()
            .block_locations(0, 0)
            .unwrap()[0];
        fs.fail_node_permanently(victim);
        let (unknown, io) = (NodeId(999), fs.net.node(victim));
        let before = (fs.now(), fs.timeline().clone(), fs.stats());
        let cursors = (io.disk.next_free(), io.nic.next_free());

        assert_eq!(
            fs.repair_nodes(&[victim, unknown]),
            Err(HdfsError::DataNodeUnavailable { node: 999 })
        );
        assert_eq!((fs.now(), fs.timeline().clone(), fs.stats()), before);
        let io = fs.net.node(victim);
        assert_eq!((io.disk.next_free(), io.nic.next_free()), cursors);
        assert!(
            !fs.cluster().is_up(victim),
            "the victim is not re-provisioned"
        );
        assert_eq!(fs.datanode(victim).unwrap().block_count(), 0);

        fs.fail_node_permanently(unknown);
        assert!(fs.datanode(unknown).is_none());
        assert_eq!(fs.repair_nodes(&[victim]).unwrap().unrecoverable_stripes, 0);
        fs.sync();
        assert_eq!(fs.read_file(id).unwrap(), data);
    }

    #[test]
    fn a_lost_replica_is_read_from_the_other_one() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 3);
        let data = sample_data(2 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        let meta = fs.namenode().file(id).unwrap().clone();
        let victim = meta.block_locations(0, 0).unwrap()[0];
        fs.fail_node_permanently(victim);
        assert_eq!(fs.read_file(id).unwrap(), data);
    }

    #[test]
    fn degraded_read_reconstructs_when_both_replicas_down() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 4);
        let data = sample_data(9 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        let meta = fs.namenode().file(id).unwrap().clone();
        for &node in &meta.block_locations(0, 0).unwrap() {
            fs.fail_node_permanently(node);
        }
        let before = fs.stats().read_network_bytes;
        let back = fs.read_file(id).unwrap();
        assert_eq!(back, data);
        assert!(fs.stats().read_network_bytes > before);
    }

    #[test]
    fn too_many_failures_make_blocks_unavailable() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 5);
        let data = sample_data(1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::TWO_REP).unwrap();
        let meta = fs.namenode().file(id).unwrap().clone();
        for &node in &meta.block_locations(0, 0).unwrap() {
            fs.fail_node_permanently(node);
        }
        assert!(matches!(
            fs.read_file(id),
            Err(HdfsError::BlockUnavailable { .. })
        ));
    }

    #[test]
    fn raidnode_repairs_permanent_single_failure() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 6);
        let data = sample_data(9 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        let meta = fs.namenode().file(id).unwrap().clone();
        let victim = meta.placement.stripe_hosts(0).unwrap()[2];
        let blocks_before = fs.datanode(victim).unwrap().block_count();
        assert!(blocks_before > 0);
        fs.fail_node_permanently(victim);
        assert_eq!(fs.datanode(victim).unwrap().block_count(), 0);

        let report = fs.repair_nodes(&[victim]).unwrap();
        assert_eq!(report.unrecoverable_stripes, 0);
        assert_eq!(report.blocks_restored, blocks_before);
        assert!(report.stripes_repaired >= 1);
        // Repair bandwidth per the pentagon plan: 4 blocks per stripe-node.
        assert_eq!(report.network_bytes, 4 * 1024 * 1024);
        assert!(report.completed_at > report.issued_at);
        // The node is up again and the file reads back correctly from it.
        assert!(fs.cluster().is_up(victim));
        assert_eq!(fs.read_file(id).unwrap(), data);
        assert_eq!(fs.datanode(victim).unwrap().block_count(), blocks_before);
    }

    #[test]
    fn raidnode_repairs_double_failure_with_partial_parity_accounting() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 7);
        let data = sample_data(9 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        let meta = fs.namenode().file(id).unwrap().clone();
        let hosts = meta.placement.stripe_hosts(0).unwrap();
        let victims = [hosts[0], hosts[1]];
        for &v in &victims {
            fs.fail_node_permanently(v);
        }
        let report = fs.repair_nodes(&victims).unwrap();
        assert_eq!(report.unrecoverable_stripes, 0);
        // Two-node pentagon repair costs 10 blocks of network traffic (§2.1).
        assert_eq!(report.network_bytes, 10 * 1024 * 1024);
        assert_eq!(fs.read_file(id).unwrap(), data);
    }

    #[test]
    fn unrecoverable_stripes_are_reported_not_fatal() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 8);
        let data = sample_data(1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::TWO_REP).unwrap();
        let meta = fs.namenode().file(id).unwrap().clone();
        let victims: Vec<NodeId> = meta.block_locations(0, 0).unwrap().to_vec();
        for &v in &victims {
            fs.fail_node_permanently(v);
        }
        let report = fs.repair_nodes(&victims).unwrap();
        assert_eq!(report.unrecoverable_stripes, 1);
        assert_eq!(report.blocks_restored, 0);
        assert_eq!(report.completed_at, report.issued_at);
        let _ = id;
    }

    #[test]
    fn stats_track_traffic() {
        let mut fs = DistributedFileSystem::new(spec(), 9);
        let data = sample_data(512 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::THREE_REP).unwrap();
        let stats = fs.stats();
        assert!(stats.write_network_bytes >= 3 * 512 * 1024);
        assert_eq!(stats.read_network_bytes, 0);
        let _ = fs.read_file(id).unwrap();
        assert!(fs.stats().read_network_bytes > 0);
        assert_eq!(fs.stats().repair_network_bytes, 0);
    }

    #[test]
    fn operations_advance_virtual_time_and_record_phases() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 10);
        assert_eq!(fs.now(), SimTime::ZERO);
        let data = sample_data(9 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        let after_write = fs.sync();
        assert!(after_write > SimTime::ZERO, "writes take virtual time");
        assert_eq!(fs.timeline().phases.len(), 1);
        assert_eq!(
            fs.timeline().phases[0].label,
            PhaseKind::Write { file: id.0 }
        );
        let created = fs.namenode().file(id).unwrap().created_at;
        assert_eq!(created, SimTime::ZERO);

        let _ = fs.read_file(id).unwrap();
        let after_read = fs.sync();
        assert!(
            after_read > after_write,
            "reads issued after sync start later"
        );
        assert!(fs
            .timeline()
            .of(PhaseClass::Read)
            .all(|p| p.start >= after_write));
    }

    #[test]
    fn degraded_read_phases_partition_the_read_counter() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 12);
        let data = sample_data(9 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        let meta = fs.namenode().file(id).unwrap().clone();
        for &node in &meta.block_locations(0, 0).unwrap() {
            fs.fail_node_permanently(node);
        }
        // Reconstruction bytes live on the degraded-read phase, the read
        // phase carries the replica bytes only, and the two together equal
        // the stats counter delta.
        let stats_before = fs.stats().read_network_bytes;
        let blocks = fs.read_file_blocks(id).unwrap();
        assert_eq!(&blocks[0].bytes().unwrap()[..], &data[..1024 * 1024]);
        let [_, degraded, read] = fs.timeline().phases[..] else {
            panic!("write, degraded read, read: {:?}", fs.timeline())
        };
        let lost = PhaseKind::DegradedRead {
            file: id.0,
            stripe: 0,
            block: 0,
        };
        assert_eq!(degraded.label, lost);
        assert_eq!(read.label, PhaseKind::Read { file: id.0 });
        assert_eq!(read.bytes, 8 * 1024 * 1024, "the healthy blocks");
        let delta = fs.stats().read_network_bytes - stats_before;
        assert_eq!(
            read.bytes + degraded.bytes,
            delta,
            "phases partition the counter"
        );
    }

    #[test]
    fn t0_trace_with_zero_timeout_reproduces_the_static_repair() {
        // Static path: permanent failures + caller-invoked repair.
        let mut static_fs = DistributedFileSystem::new(tiny_spec(), 21);
        let data = sample_data(9 * 1024 * 1024);
        let id = static_fs
            .write_file("/f", &data, CodeKind::Pentagon)
            .unwrap();
        let meta = static_fs.namenode().file(id).unwrap().clone();
        let victims: Vec<NodeId> = meta.block_locations(0, 0).unwrap().to_vec();
        for &v in &victims {
            static_fs.fail_node_permanently(v);
        }
        let static_report = static_fs.repair_nodes(&victims).unwrap();

        // Trace path: the same failures at t = 0, detection timeout 0.
        let mut traced_fs = DistributedFileSystem::new(tiny_spec(), 21);
        let id2 = traced_fs
            .write_file("/f", &data, CodeKind::Pentagon)
            .unwrap();
        assert_eq!(id, id2, "same seed, same namespace");
        traced_fs.set_detection_timeout(SimDuration::ZERO);
        traced_fs.schedule_trace(&FailureTrace::down_at_t0(&victims));
        let reports = traced_fs.process_all_events().unwrap();

        // One batched pass, byte-for-byte equal to the static one.
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].network_bytes, static_report.network_bytes);
        assert_eq!(reports[0].blocks_restored, static_report.blocks_restored);
        assert_eq!(reports[0].stripes_repaired, static_report.stripes_repaired);
        assert_eq!(traced_fs.stats(), static_fs.stats());
        assert_eq!(traced_fs.pending_events(), 0);
        // Zero lag records no phantom detection-lag phase.
        assert_eq!(traced_fs.timeline().of(PhaseClass::DetectionLag).count(), 0);
        assert_eq!(traced_fs.read_file(id2).unwrap(), data);
    }

    #[test]
    fn detection_timeout_delays_the_repair_and_records_the_lag() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        let mut fs = DistributedFileSystem::new(tiny_spec(), 22);
        let data = sample_data(9 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        fs.sync();
        let meta = fs.namenode().file(id).unwrap().clone();
        let victim = meta.placement.stripe_hosts(0).unwrap()[1];

        fs.set_detection_timeout(SimDuration::from_secs_f64(2.0));
        let fail_at = fs.now() + SimDuration::from_secs_f64(1.0);
        fs.schedule_trace(&FailureTrace::from_events(vec![FailureEvent {
            at: fail_at,
            kind: FailureEventKind::NodeDown { node: victim },
        }]));
        assert_eq!(fs.pending_events(), 1);

        // Before the horizon reaches the detection boundary nothing repairs,
        // but the failure itself has been applied.
        let before = fs.process_events_until(fail_at).unwrap();
        assert!(before.is_empty());
        assert!(!fs.cluster().is_up(victim));
        assert_eq!(fs.pending_events(), 1, "silent, not yet declared dead");
        assert_eq!(fs.datanode(victim).unwrap().block_count(), 0, "wiped");

        let detect_at = fail_at + SimDuration::from_secs_f64(2.0);
        let reports = fs.process_all_events().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].issued_at, detect_at,
            "repair waits for detection"
        );
        assert!(reports[0].completed_at > detect_at);
        assert!(reports[0].network_bytes > 0);
        // The blind window is on the timeline, half-open [fail, detect).
        let lag = *fs
            .timeline()
            .of(PhaseClass::DetectionLag)
            .next()
            .expect("a detection-lag phase");
        assert_eq!(lag.start, fail_at);
        assert_eq!(lag.end, detect_at);
        assert_eq!(lag.bytes, 0);
        // The node is re-provisioned and the file reads back whole.
        assert!(fs.cluster().is_up(victim));
        assert_eq!(fs.pending_events(), 0);
        assert_eq!(fs.read_file(id).unwrap(), data);
    }

    #[test]
    fn changing_the_timeout_after_scheduling_moves_the_boundary_in_both_directions() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        // Raised: detection must happen at the *new* boundary, not never.
        // Lowered: the one rule is `silent instant + timeout in force`, in
        // this direction too.
        for (scheduled_under_s, changed_to_s) in [(1.0, 4.0), (10.0, 2.0)] {
            let mut fs = DistributedFileSystem::new(tiny_spec(), 26);
            let data = sample_data(9 * 1024 * 1024);
            let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
            fs.sync();
            let meta = fs.namenode().file(id).unwrap().clone();
            let victim = meta.placement.stripe_hosts(0).unwrap()[1];

            fs.set_detection_timeout(SimDuration::from_secs_f64(scheduled_under_s));
            let fail_at = fs.now();
            fs.schedule_trace(&FailureTrace::from_events(vec![FailureEvent {
                at: fail_at,
                kind: FailureEventKind::NodeDown { node: victim },
            }]));
            // The node is already silent when the timeout changes.
            assert!(fs.process_events_until(fail_at).unwrap().is_empty());
            fs.set_detection_timeout(SimDuration::from_secs_f64(changed_to_s));
            let reports = fs.process_all_events().unwrap();
            assert_eq!(reports.len(), 1, "detection must not be dropped");
            let detect_at = fail_at + SimDuration::from_secs_f64(changed_to_s);
            assert_eq!(reports[0].issued_at, detect_at);
            let lag = *fs
                .timeline()
                .of(PhaseClass::DetectionLag)
                .next()
                .expect("a detection-lag phase");
            assert_eq!(lag.end, detect_at);
            assert!(fs.cluster().is_up(victim));
            assert_eq!(fs.read_file(id).unwrap(), data);
        }
    }

    #[test]
    fn a_node_that_fails_again_after_its_repair_is_detected_and_repaired_again() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        let mut fs = DistributedFileSystem::new(tiny_spec(), 29);
        let data = sample_data(9 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        fs.sync();
        let meta = fs.namenode().file(id).unwrap().clone();
        let victim = meta.placement.stripe_hosts(0).unwrap()[1];
        let down = |at: SimTime| FailureEvent {
            at,
            kind: FailureEventKind::NodeDown { node: victim },
        };

        fs.set_detection_timeout(SimDuration::from_secs_f64(1.0));
        let first = fs.now();
        // The second fail-stop lands after the first one's repair
        // re-provisioned the node (1 s later), so it is a fresh failure —
        // not a duplicate of a node that is still down.
        let second = first + SimDuration::from_secs_f64(3.0);
        fs.schedule_trace(&FailureTrace::from_events(vec![down(first), down(second)]));
        let reports = fs.process_all_events().unwrap();
        let issued: Vec<SimTime> = reports.iter().map(|r| r.issued_at).collect();
        let lag = SimDuration::from_secs_f64(1.0);
        assert_eq!(issued, [first + lag, second + lag]);
        assert!(reports.iter().all(|r| r.blocks_restored > 0));
        assert!(fs.cluster().is_up(victim));
        assert_eq!(fs.read_file(id).unwrap(), data);
    }

    #[test]
    fn recovery_before_the_detection_boundary_cancels_the_repair() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        let mut fs = DistributedFileSystem::new(tiny_spec(), 23);
        let data = sample_data(2 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        fs.sync();
        let meta = fs.namenode().file(id).unwrap().clone();
        let victim = meta.placement.stripe_hosts(0).unwrap()[0];

        fs.set_detection_timeout(SimDuration::from_secs_f64(5.0));
        let fail_at = fs.now();
        fs.schedule_trace(&FailureTrace::from_events(vec![
            FailureEvent {
                at: fail_at,
                kind: FailureEventKind::NodeDown { node: victim },
            },
            // The node is re-provisioned inside the detection window.
            FailureEvent {
                at: fail_at + SimDuration::from_secs_f64(1.0),
                kind: FailureEventKind::NodeUp { node: victim },
            },
        ]));
        let reports = fs.process_all_events().unwrap();
        assert!(reports.is_empty(), "a recovered node is never repaired");
        assert!(fs.cluster().is_up(victim));
        assert_eq!(fs.pending_events(), 0);
        assert_eq!(fs.timeline().of(PhaseClass::DetectionLag).count(), 0);
        // The node came back empty (fail-stop wiped it), so reads of its
        // blocks go degraded — but the file survives.
        assert_eq!(fs.read_file(id).unwrap(), data);
    }

    #[test]
    fn rack_burst_detects_and_repairs_the_whole_rack_as_one_pass() {
        use drc_cluster::{FailureEventKind, FailureTrace, RackId};
        // Many small racks: losing one whole rack costs two nodes, which
        // every double-replicated array code tolerates regardless of where
        // the random placement put the stripes.
        let mut spec = ClusterSpec::custom(24, 12, 4);
        spec.block_size_mb = 1;
        let mut fs = DistributedFileSystem::new(spec, 24);
        let data = sample_data(9 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::HeptagonLocal).unwrap();
        fs.sync();
        let rack = RackId(1);
        let members = fs.cluster().nodes_in_rack(rack);
        assert!(members.len() == 2);

        fs.set_detection_timeout(SimDuration::from_secs_f64(0.5));
        fs.schedule_trace(&FailureTrace::from_events(vec![
            drc_cluster::FailureEvent::at_secs(
                fs.now().as_secs_f64() + 0.25,
                FailureEventKind::RackDown { rack },
            ),
        ]));
        let reports = fs.process_all_events().unwrap();
        // Both members fail and are detected at the same instant, so the
        // correlated loss repairs as one batched pass.
        assert_eq!(reports.len(), 1, "one pass for the whole burst");
        assert_eq!(reports[0].unrecoverable_stripes, 0);
        assert!(reports[0].network_bytes > 0);
        for &n in &members {
            assert!(fs.cluster().is_up(n), "repair re-provisioned {n}");
        }
        // One detection-lag phase per rack member.
        assert_eq!(
            fs.timeline().of(PhaseClass::DetectionLag).count(),
            members.len()
        );
        assert_eq!(fs.read_file(id).unwrap(), data);
    }

    #[test]
    fn recovery_exactly_at_the_boundary_cancels_detection_even_for_composed_traces() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        let mut fs = DistributedFileSystem::new(tiny_spec(), 28);
        let data = sample_data(2 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        fs.sync();
        let meta = fs.namenode().file(id).unwrap().clone();
        let victim = meta.placement.stripe_hosts(0).unwrap()[0];

        fs.set_detection_timeout(SimDuration::from_secs_f64(2.0));
        let fail_at = fs.now();
        let boundary = fail_at + SimDuration::from_secs_f64(2.0);
        // The failure is applied (its boundary now pending) *before* the
        // recovery trace arrives with a NodeUp at the exact boundary
        // instant: per the half-open rule the node is serving again at
        // that instant and must never be declared dead, whatever the
        // scheduling order.
        fs.schedule_trace(&FailureTrace::from_events(vec![FailureEvent {
            at: fail_at,
            kind: FailureEventKind::NodeDown { node: victim },
        }]));
        let early = fs.process_events_until(fail_at).unwrap();
        assert!(early.is_empty());
        fs.schedule_trace(&FailureTrace::from_events(vec![FailureEvent {
            at: boundary,
            kind: FailureEventKind::NodeUp { node: victim },
        }]));
        let reports = fs.process_all_events().unwrap();
        assert!(reports.is_empty(), "recovery at the boundary cancels");
        assert!(fs.cluster().is_up(victim));
        assert_eq!(fs.pending_events(), 0);
        assert_eq!(fs.timeline().of(PhaseClass::DetectionLag).count(), 0);
        assert_eq!(fs.read_file(id).unwrap(), data);
    }

    #[test]
    fn nodeup_after_repair_does_not_phantom_occupy_the_node() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace};
        let mut fs = DistributedFileSystem::new(tiny_spec(), 27);
        let data = sample_data(9 * 1024 * 1024);
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        fs.sync();
        let meta = fs.namenode().file(id).unwrap().clone();
        let victim = meta.placement.stripe_hosts(0).unwrap()[1];

        // Fail at now, detect quickly (auto-repair re-provisions the node),
        // and let the trace's own recovery arrive much later: the stale
        // NodeUp must be a no-op, not an occupy-until-60s on a node that
        // has been serving since the repair.
        fs.set_detection_timeout(SimDuration::from_secs_f64(0.5));
        let fail_at = fs.now();
        let late_up = fail_at + SimDuration::from_secs_f64(60.0);
        fs.schedule_trace(&FailureTrace::from_events(vec![
            FailureEvent {
                at: fail_at,
                kind: FailureEventKind::NodeDown { node: victim },
            },
            FailureEvent {
                at: late_up,
                kind: FailureEventKind::NodeUp { node: victim },
            },
        ]));
        let reports = fs.process_all_events().unwrap();
        assert_eq!(reports.len(), 1, "the repair beat the trace's recovery");
        assert!(fs.cluster().is_up(victim));
        let io = fs.net.node(victim);
        assert!(
            io.disk.next_free() < late_up && io.nic.next_free() < late_up,
            "a stale NodeUp must not occupy the node through its instant"
        );
        assert_eq!(fs.read_file(id).unwrap(), data);
    }

    #[test]
    fn slowdown_events_stretch_the_node_io() {
        use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace, Positive};
        let mut fs = DistributedFileSystem::new(tiny_spec(), 25);
        let node = NodeId(3);
        fs.schedule_trace(&FailureTrace::from_events(vec![FailureEvent::at_secs(
            1.0,
            FailureEventKind::Slowdown {
                node,
                factor: Positive::new(4.0).unwrap(),
            },
        )]));
        let reports = fs.process_all_events().unwrap();
        assert!(reports.is_empty(), "a slowdown is not a failure");
        assert!(fs.cluster().is_up(node), "the node stays up");
        assert_eq!(fs.net.node(node).disk.slowdown(), 4.0);
        assert_eq!(fs.net.node(node).nic.slowdown(), 4.0);
    }

    #[test]
    fn repair_and_degraded_reads_overlap_in_virtual_time() {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 11);
        let data = sample_data(18 * 1024 * 1024); // two pentagon stripes
        let id = fs.write_file("/f", &data, CodeKind::Pentagon).unwrap();
        fs.sync();
        let meta = fs.namenode().file(id).unwrap().clone();
        // Lose both replicas of data block 0 of stripe 0: reads of that
        // block must go degraded until the RaidNode repairs the nodes.
        let victims: Vec<NodeId> = meta.block_locations(0, 0).unwrap().to_vec();
        for &v in &victims {
            fs.fail_node_permanently(v);
        }

        // Issue the degraded read and the repair pass back-to-back without
        // syncing: both start at the same virtual instant and compete for
        // the surviving nodes' disks.
        let back = fs.read_file(id).unwrap();
        assert_eq!(back, data);
        let report = fs.repair_nodes(&victims).unwrap();
        assert!(report.stripes_repaired >= 1);

        let timeline = fs.timeline();
        let overlap = overlap(
            timeline.of(PhaseClass::Repair),
            timeline.of(PhaseClass::DegradedRead),
        );
        assert!(
            overlap.as_secs_f64() > 0.0,
            "repair and degraded reads must overlap in virtual time:\n{:#?}",
            timeline.phases
        );
    }
}
