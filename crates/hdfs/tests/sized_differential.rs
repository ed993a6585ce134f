//! A length-only file is indistinguishable from a real one in everything
//! the file system reports.
//!
//! `EncodedFile::sized` gives the virtual-time experiments files with no
//! bytes behind them; this is the proof that nothing they measure can tell.
//! For every code kind the fs proptests cover × {whole stripes, a stripe +
//! a block + a ragged tail} × repair chunking {monolithic, 256 KiB}, the same
//! script runs on a real and a sized file in two fresh file systems with
//! the same seed — healthy handle read, a fail-stop degraded read followed
//! by `repair_nodes`, the same overlapping the repair for a double failure,
//! a detected fail-stop trace, a beyond-tolerance trace through
//! `process_all_events` and a read after it — and after every step the two
//! must agree on the timeline, every `RepairReport` a step returned,
//! `FsStats`, the clock and each node's served / received bytes, block
//! count, used bytes and block keys. The handles the reads return must
//! agree on their lengths, and errors must be the same errors.
//!
//! `failure_replay_digest.rs` holds a sized run of its composed trace to
//! the digest pinned for the real one.

use drc_cluster::{ClusterSpec, FailureEvent, FailureEventKind, FailureTrace, NodeId};
use drc_codes::CodeKind;
use drc_hdfs::{
    Block, BlockKey, Bytes, DistributedFileSystem, EncodedFile, FileId, FsStats, HdfsError,
    RepairReport,
};
use drc_sim::{PhaseClass, SimDuration, SimTime, Timeline};

const BLOCK: usize = 1 << 20;

/// The kinds `fs_proptests.rs` covers: replication, the three
/// double-replicated array codes, RAID+m and Reed–Solomon.
const EVERY_KIND: [CodeKind; 7] = [
    CodeKind::TWO_REP,
    CodeKind::THREE_REP,
    CodeKind::Pentagon,
    CodeKind::Heptagon,
    CodeKind::HeptagonLocal,
    CodeKind::RAID_M_10_9,
    CodeKind::ReedSolomon { data: 6, parity: 3 },
];

fn tiny_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = 1;
    spec
}

/// Everything the file system reports about itself.
#[derive(Debug, PartialEq)]
struct Observed {
    timeline: Timeline,
    stats: FsStats,
    now: SimTime,
    pending_events: usize,
    down: std::collections::BTreeSet<NodeId>,
    /// Per node: served, received, block count, used bytes, block keys.
    nodes: Vec<(u64, u64, usize, u64, Vec<BlockKey>)>,
}

fn observe(fs: &DistributedFileSystem) -> Observed {
    Observed {
        timeline: fs.timeline().clone(),
        stats: fs.stats(),
        now: fs.now(),
        pending_events: fs.pending_events(),
        down: fs.cluster().down_nodes().clone(),
        nodes: (0..fs.cluster().spec().data_nodes)
            .map(|n| {
                let dn = fs.datanode(NodeId(n)).unwrap();
                (
                    dn.bytes_served(),
                    dn.bytes_received(),
                    dn.block_count(),
                    dn.used_bytes(),
                    dn.block_keys(),
                )
            })
            .collect(),
    }
}

/// What a step hands back besides the state it leaves: the lengths of the
/// handles a read returned, a repair's report, or the error.
type StepResult = Result<(Vec<usize>, Vec<RepairReport>), HdfsError>;

fn lens(blocks: Result<Vec<Block>, HdfsError>) -> StepResult {
    blocks.map(|b| (b.iter().map(Block::len).collect(), Vec::new()))
}

fn reports(reports: Result<Vec<RepairReport>, HdfsError>) -> StepResult {
    reports.map(|r| (Vec::new(), r))
}

/// One step of the script: acts on a deployment, hands back its result.
type Step = Box<dyn Fn(&mut DistributedFileSystem, FileId) -> StepResult>;

/// The script, one named step at a time. Every step is a pure function of
/// the file system's state, so running the list on two deployments and
/// comparing after each step localises a divergence to the step.
fn script(code: CodeKind) -> Vec<(&'static str, Step)> {
    let tolerance = code.build().unwrap().fault_tolerance();
    let stripe0 = move |fs: &DistributedFileSystem, id: FileId, n: usize| -> Vec<NodeId> {
        let meta = fs.namenode().file(id).unwrap();
        meta.placement.stripe_hosts(0).unwrap()[..n].to_vec()
    };
    let down_at = |at: SimTime, nodes: &[NodeId]| {
        FailureTrace::from_events(
            nodes
                .iter()
                .map(|&node| FailureEvent::at_ns(at.0, FailureEventKind::NodeDown { node }))
                .collect(),
        )
    };
    vec![
        (
            "healthy handle read",
            Box::new(|fs, id| {
                let out = lens(fs.read_file_blocks(id));
                fs.sync();
                out
            }),
        ),
        (
            "fail-stop degraded read, then repair_nodes",
            Box::new(move |fs, id| {
                let victims = stripe0(fs, id, tolerance);
                victims.iter().for_each(|&v| fs.fail_node_permanently(v));
                let read = lens(fs.read_file_blocks(id));
                fs.sync();
                let report = fs.repair_nodes(&victims);
                fs.sync();
                read.and_then(|(l, _)| Ok((l, vec![report?])))
            }),
        ),
        (
            "permanent double failure, degraded read overlapping repair_nodes",
            Box::new(move |fs, id| {
                let victims = stripe0(fs, id, tolerance.min(2));
                victims.iter().for_each(|&v| fs.fail_node_permanently(v));
                let read = lens(fs.read_file_blocks(id));
                let report = fs.repair_nodes(&victims);
                fs.sync();
                read.and_then(|(l, _)| Ok((l, vec![report?])))
            }),
        ),
        (
            "detected fail-stop trace",
            Box::new(move |fs, id| {
                let victims = stripe0(fs, id, tolerance.min(2));
                fs.set_detection_timeout(SimDuration::from_secs_f64(0.5));
                let at = fs.now() + SimDuration::from_secs_f64(1.0);
                fs.schedule_trace(&down_at(at, &victims));
                // Applied, not yet detected: this read runs blind.
                let early = reports(fs.process_events_until(at));
                let read = lens(fs.read_file_blocks(id));
                let out = reports(fs.process_all_events());
                fs.sync();
                early.and(read).and_then(|(l, _)| Ok((l, out?.1)))
            }),
        ),
        (
            "beyond-tolerance trace",
            Box::new(move |fs, id| {
                let victims = stripe0(fs, id, tolerance + 1);
                fs.schedule_trace(&down_at(fs.now(), &victims));
                let out = reports(fs.process_all_events());
                fs.sync();
                out
            }),
        ),
        (
            "read after the beyond-tolerance trace",
            Box::new(|fs, id| {
                // Stripe 0 is gone for good: both kinds must say so with
                // the same error, and whatever was read before the failing
                // block must have left the same trail.
                let read = lens(fs.read_file_blocks(id));
                assert!(
                    matches!(read, Err(HdfsError::BlockUnavailable { .. })),
                    "{read:?}"
                );
                fs.sync();
                read
            }),
        ),
    ]
}

#[test]
fn a_sized_file_is_indistinguishable_from_a_real_one() {
    let widest = EVERY_KIND
        .iter()
        .map(|c| c.build().unwrap().data_blocks())
        .max()
        .unwrap();
    // Block-distinct content, one buffer for every case: each file is a
    // zero-copy prefix of it.
    let mut payload = vec![0u8; 2 * widest * BLOCK];
    for (line, chunk) in payload.chunks_mut(64).enumerate() {
        chunk.fill(
            (line as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .to_le_bytes()[7],
        );
    }
    let payload = Bytes::from(payload);

    let mut rebuilt_somewhere = false;
    for code in EVERY_KIND {
        let k = code.build().unwrap().data_blocks();
        for len in [2 * k * BLOCK, (k + 1) * BLOCK + 4321] {
            for chunk in [u64::MAX, 256 * 1024] {
                let case = format!("{code} len={len} chunk={chunk}");
                let deploy = |file: &EncodedFile| {
                    let mut fs = DistributedFileSystem::new(tiny_spec(), 0x512E_D1FF);
                    fs.set_repair_chunk_bytes(chunk);
                    let id = fs.write_encoded("/diff/sized", file).unwrap();
                    fs.sync();
                    (fs, id)
                };
                let real_file = EncodedFile::encode(payload.slice(..len), code, BLOCK).unwrap();
                let sized_file = EncodedFile::sized(code, BLOCK, len).unwrap();
                let (mut real, id) = deploy(&real_file);
                let (mut sized, sized_id) = deploy(&sized_file);
                assert_eq!(id, sized_id, "{case}");
                assert_eq!(observe(&real), observe(&sized), "{case}: after ingest");
                assert!(real.namenode().file(id).unwrap().has_content);
                assert!(!sized.namenode().file(id).unwrap().has_content);

                // Every report the steps returned, in call order.
                let mut reports: Vec<RepairReport> = Vec::new();
                for (step, run) in script(code) {
                    let from_real = run(&mut real, id);
                    let from_sized = run(&mut sized, id);
                    assert_eq!(from_real, from_sized, "{case}: {step}: results");
                    assert_eq!(observe(&real), observe(&sized), "{case}: {step}: state");
                    if let Ok((_, step_reports)) = from_real {
                        reports.extend(step_reports);
                    }
                }
                rebuilt_somewhere |= reports.iter().any(|r| r.blocks_restored > 0);
                // The script must have exercised what it claims to.
                let timeline = sized.timeline();
                assert!(
                    timeline.of(PhaseClass::DegradedRead).count() > 0
                        || matches!(code, CodeKind::Replication { .. }),
                    "{case}: only replication has no degraded reads"
                );
                assert!(timeline.of(PhaseClass::Repair).count() > 0, "{case}");
                assert!(timeline.of(PhaseClass::DetectionLag).count() > 0, "{case}");
                assert!(
                    reports.iter().any(|r| r.unrecoverable_stripes > 0),
                    "{case}: the last trace is beyond tolerance"
                );
            }
        }
    }
    assert!(rebuilt_somewhere);
}

/// Every content-returning call on a sized file is the typed error — never
/// zeros — and the one that would have issued timed events (`read_file`)
/// fails before issuing any: timeline, stats, clock and served bytes are
/// untouched. The handle-returning reads keep working (they are part of the
/// model); asking one of their handles for bytes is the same typed error.
#[test]
fn content_calls_on_a_sized_file_are_typed_errors_that_touch_nothing() {
    let code = CodeKind::Pentagon;
    let len = 9 * BLOCK + 4321;
    let mut fs = DistributedFileSystem::new(tiny_spec(), 7);
    let file = EncodedFile::sized(code, BLOCK, len).unwrap();
    let id = fs.write_encoded("/sized", &file).unwrap();
    fs.sync();
    let meta = fs.namenode().file(id).unwrap().clone();
    let no_block = Err(HdfsError::NoContent { len: BLOCK as u64 });

    // Healthy, and with both replicas of block (0, 0) wiped.
    for degraded in [false, true] {
        if degraded {
            for &v in &meta.block_locations(0, 0).unwrap() {
                fs.fail_node_permanently(v);
            }
        }
        let before = observe(&fs);
        assert_eq!(
            fs.read_file(id),
            Err(HdfsError::NoContent { len: len as u64 }),
            "degraded={degraded}"
        );
        let stored = (0..fs.cluster().spec().data_nodes)
            .map(|n| fs.datanode(NodeId(n)).unwrap())
            .find_map(|dn| dn.peek(dn.block_keys().first()?))
            .expect("some node stores a block");
        assert_eq!(stored.bytes().cloned(), no_block);
        assert_eq!(observe(&fs), before, "degraded={degraded}: nothing moved");

        // Handle reads are timed and succeed; their handles have no bytes.
        let blocks = fs.read_file_blocks(id).unwrap();
        assert_eq!(blocks[0].bytes().cloned(), no_block);
        assert_eq!(blocks.iter().map(Block::len).sum::<usize>(), len);
        assert_eq!(
            blocks.last().unwrap().bytes().cloned(),
            Err(HdfsError::NoContent { len: 4321 }),
            "the tail handle is cut to the file's length"
        );
        assert!(blocks.iter().all(|b| b.bytes().is_err()));
        assert_ne!(observe(&fs), before, "handle reads are part of the model");
        fs.sync();
    }
    assert!(fs.timeline().of(PhaseClass::DegradedRead).count() > 0);

    // `sized` has `encode`'s edges: an empty file cannot be written, a
    // block-size mismatch is rejected.
    let empty = EncodedFile::sized(code, BLOCK, 0).unwrap();
    assert_eq!(
        fs.write_encoded("/empty", &empty),
        fs.write_encoded(
            "/empty",
            &EncodedFile::encode(Bytes::new(), code, BLOCK).unwrap()
        )
    );
    let mismatched = EncodedFile::sized(code, 2 * BLOCK, len).unwrap();
    assert!(matches!(
        fs.write_encoded("/mismatched", &mismatched),
        Err(HdfsError::InvalidRequest { .. })
    ));
}
