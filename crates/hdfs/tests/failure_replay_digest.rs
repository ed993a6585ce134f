//! The storage side of the failure replay, pinned: one composed trace — a
//! fail-stop, an early rejoin, a rejoin exactly at the detection boundary, a
//! `Slowdown`, a rack burst, the detection timeout raised mid-flight and a
//! second `schedule_trace` (with instants already in the past) after partial
//! draining — must reproduce, bit for bit, the timeline, every
//! `RepairReport` and the `FsStats` recorded before the file system's
//! private event queue and the NameNode's heartbeat maps were replaced by
//! the replay `drc_sim` shares with the MapReduce engine
//! (`crates/mapreduce/tests/engine_digest.rs` is the engine-side twin).
//!
//! The same script on length-only files (`EncodedFile::sized` ingested with
//! `write_encoded`, read back by handle) must land on the *same* digest:
//! nothing the digest covers may depend on whether blocks carry bytes
//! (`sized_differential.rs` is the per-step version of that claim).

use drc_cluster::{ClusterSpec, FailureEvent, FailureEventKind, FailureTrace, NodeId, RackId};
use drc_codes::CodeKind;
use drc_hdfs::{DistributedFileSystem, EncodedFile, FileId, RepairReport};
use drc_sim::{PhaseClass, PhaseKind, SimDuration, SimTime};

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn reports(&mut self, reports: &[RepairReport]) {
        self.u64(reports.len() as u64);
        for r in reports {
            self.u64(r.stripes_repaired as u64);
            self.u64(r.blocks_restored as u64);
            self.u64(r.network_bytes);
            self.u64(r.unrecoverable_stripes as u64);
            self.u64(r.issued_at.0);
            self.u64(r.completed_at.0);
        }
    }
}

fn payload(len: usize, salt: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i + salt).wrapping_mul(2654435761) >> 8) as u8)
        .collect()
}

fn secs(s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(s)
}

/// Recorded at commit 1093746 (the parent of the shared failure replay) as
/// `0x4e43_ccd8_7085_3923`; re-recorded when repairs began to plan around
/// unusable nodes. Before that, five plan transfers of this script read from
/// nodes that were up but wiped: a 3-rep replica from node 6 (the early
/// rejoin) in the 4 s pass, and four RS(10,4) replicas from nodes 6, 9 and
/// 13 in the 9 s and 10 s passes. Every report keeps its byte counts; the
/// 9 s pass completes at 9.103333337 s instead of 9.102666670 s, because
/// its RS stripes now fetch from live senders.
const RECORDED: u64 = 0x632c_a3d5_882c_d024;

#[test]
fn composed_trace_reproduces_the_recorded_timeline_reports_and_stats() {
    let got = composed_trace_digest(false);
    assert_eq!(got, RECORDED, "got {got:#018x}, recorded {RECORDED:#018x}");
}

#[test]
fn composed_trace_on_sized_files_reproduces_the_same_digest() {
    let got = composed_trace_digest(true);
    assert_eq!(got, RECORDED, "got {got:#018x}, recorded {RECORDED:#018x}");
}

/// Runs the composed trace over three files — real bytes written with
/// `write_file` and compared on every read-back, or, with `sized`, the same
/// lengths ingested length-only and read back by handle — and digests
/// everything the file system reports.
fn composed_trace_digest(sized: bool) -> u64 {
    let down = |at_s: f64, n: usize| {
        FailureEvent::at_secs(at_s, FailureEventKind::NodeDown { node: NodeId(n) })
    };
    let up = |at_s: f64, n: usize| {
        FailureEvent::at_secs(at_s, FailureEventKind::NodeUp { node: NodeId(n) })
    };
    let slow = |at_s: f64, n: usize, factor: f64| {
        FailureEvent::at_secs(
            at_s,
            FailureEventKind::Slowdown {
                node: NodeId(n),
                factor,
            },
        )
    };

    // 25 nodes round-robin over 12 racks: rack 1 is {node 1, node 13}.
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = 1;
    spec.racks = 12;
    let mut fs = DistributedFileSystem::new(spec, 0xD16E);
    let files: Vec<_> = [
        CodeKind::Pentagon,
        CodeKind::ReedSolomon {
            data: 10,
            parity: 4,
        },
        CodeKind::THREE_REP,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| {
        let (name, len) = (format!("/pin/{i}"), 20 * 1024 * 1024 + 123 * (i + 1));
        if sized {
            let file = EncodedFile::sized(kind, 1024 * 1024, len).unwrap();
            (fs.write_encoded(&name, &file).unwrap(), Vec::new())
        } else {
            let data = payload(len, i);
            (fs.write_file(&name, &data, kind).unwrap(), data)
        }
    })
    .collect();
    fs.sync();
    // The whole-file read: bytes compared, or the same timed events by
    // handle where there are no bytes.
    let read_back = |fs: &mut DistributedFileSystem, (id, data): &(FileId, Vec<u8>)| {
        if sized {
            fs.read_file_blocks(*id).unwrap();
        } else {
            assert_eq!(&fs.read_file(*id).unwrap(), data);
        }
    };

    let mut d = Digest::new();
    fs.set_detection_timeout(SimDuration::from_secs_f64(2.0));
    fs.schedule_trace(&FailureTrace::from_events(vec![
        down(1.0, 3),
        // Early rejoin: back before any boundary, never detected.
        down(1.5, 6),
        up(2.5, 6),
        // Rejoin exactly at the boundary in force when it fires (2 s + 3 s).
        down(2.0, 9),
        up(5.0, 9),
        slow(3.0, 12, 4.0),
        FailureEvent::at_secs(6.0, FailureEventKind::RackDown { rack: RackId(1) }),
    ]));
    d.reports(&fs.process_events_until(secs(2.2)).unwrap());
    // Nodes 3, 6 and 9 are dark and undetected: this read goes degraded.
    read_back(&mut fs, &files[0]);

    // Raised mid-flight: node 3's boundary moves from 3 s to 4 s, node 9's
    // from 4 s to 5 s — where its rejoin lands.
    fs.set_detection_timeout(SimDuration::from_secs_f64(3.0));
    d.reports(&fs.process_events_until(secs(6.5)).unwrap());

    // A second trace after partial draining. Its first two instants are in
    // the past and fire at the processing frontier (6 s, the rack burst), so
    // node 20's boundary (9 s) coincides with the rack's: one batched pass.
    // Node 13 rejoins before that boundary and drops out of the batch.
    fs.schedule_trace(&FailureTrace::from_events(vec![
        down(0.5, 20),
        slow(1.0, 12, 1.0),
        down(7.0, 22),
        up(8.0, 13),
    ]));
    d.reports(&fs.process_events_until(secs(9.0)).unwrap());
    fs.sync();
    read_back(&mut fs, &files[1]);
    d.reports(&fs.process_all_events().unwrap());
    assert_eq!(fs.pending_events(), 0);
    fs.sync();
    read_back(&mut fs, &files[2]);

    d.reports(fs.auto_repair_reports());
    d.u64(fs.timeline().phases.len() as u64);
    for phase in &fs.timeline().phases {
        // The digest was recorded when a write phase carried the file's
        // name; a `PhaseKind::Write` carries its id, so render the name.
        let label = match phase.label {
            PhaseKind::Write { file } => {
                format!("write:{}", fs.namenode().file(FileId(file)).unwrap().name)
            }
            kind => kind.to_string(),
        };
        d.str(&label);
        d.u64(phase.start.0);
        d.u64(phase.end.0);
        d.u64(phase.bytes);
    }
    let stats = fs.stats();
    d.u64(stats.files as u64);
    d.u64(stats.stored_blocks as u64);
    d.u64(stats.stored_bytes);
    d.u64(stats.write_network_bytes);
    d.u64(stats.read_network_bytes);
    d.u64(stats.repair_network_bytes);
    for node in fs.cluster().down_nodes() {
        d.u64(node.0 as u64);
    }

    // Blind windows, in detection order: node 3 under the raised timeout,
    // then the batch at 9 s (rack member 1, then the clamped node 20), then
    // node 22. Nodes 6, 9 and 13 rejoined in time and have none.
    let lags: Vec<(PhaseKind, SimTime, SimTime)> = fs
        .timeline()
        .of(PhaseClass::DetectionLag)
        .map(|p| (p.label, p.start, p.end))
        .collect();
    let lag = |node: usize| PhaseKind::DetectionLag { node: NodeId(node) };
    assert_eq!(
        lags,
        [
            (lag(3), secs(1.0), secs(4.0)),
            (lag(1), secs(6.0), secs(9.0)),
            (lag(20), secs(6.0), secs(9.0)),
            (lag(22), secs(7.0), secs(10.0)),
        ]
    );
    let issued: Vec<SimTime> = fs
        .auto_repair_reports()
        .iter()
        .map(|r| r.issued_at)
        .collect();
    assert_eq!(issued, [secs(4.0), secs(9.0), secs(10.0)]);
    d.0
}
