//! A read that fails midway leaves its traffic on the one byte record.
//!
//! The file system's timeline is its only traffic count: `FsStats` reads
//! its byte totals off the phases. A whole-file read whose last stripe lost
//! more nodes than the code tolerates has issued replica reads (and
//! degraded reads, where the wiped nodes held earlier blocks) before it
//! reaches the lost block. For every code kind those bytes must be on the
//! timeline, the `FsStats` delta must equal the timeline's Read +
//! DegradedRead delta, and `sync` must move the clock past every disk and
//! NIC window the read reserved.

use std::collections::BTreeSet;

use drc_cluster::{ClusterSpec, NodeId};
use drc_codes::CodeKind;
use drc_hdfs::{DistributedFileSystem, EncodedFile, HdfsError};
use drc_sim::PhaseClass;

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

/// What the timeline records of reads: (Read phases, their bytes plus the
/// DegradedRead phases' bytes).
fn read_record(fs: &DistributedFileSystem) -> (usize, u64) {
    let t = fs.timeline();
    let bytes = t.bytes_of(PhaseClass::Read) + t.bytes_of(PhaseClass::DegradedRead);
    (t.of(PhaseClass::Read).count(), bytes)
}

#[test]
fn a_read_that_fails_midway_records_what_it_issued() {
    for kind in EVERY_KIND {
        let code = kind.build().unwrap();
        let mut spec = ClusterSpec::simulation_25(4);
        spec.block_size_mb = 1;
        let nodes = spec.data_nodes;
        let mut fs = DistributedFileSystem::new(spec, 44);
        let k = code.data_blocks();
        let file = EncodedFile::sized(kind, BLOCK, 3 * k * BLOCK).unwrap();
        let id = fs.write_encoded("/f", &file).unwrap();
        fs.sync();
        // Wipe the last stripe's hosts in placement order until one of its
        // data blocks has no degraded-read plan.
        let hosts = fs
            .namenode()
            .file(id)
            .unwrap()
            .placement
            .stripe_hosts(2)
            .unwrap();
        let mut lost = BTreeSet::new();
        for (local, &node) in hosts.iter().enumerate() {
            if (0..k).any(|b| code.degraded_read_plan(b, &lost).is_err()) {
                break;
            }
            lost.insert(local);
            fs.fail_node_permanently(node);
        }

        let (stats_before, (reads_before, record_before)) =
            (fs.stats().read_network_bytes, read_record(&fs));
        let err = fs.read_file_blocks(id).unwrap_err();
        assert!(
            matches!(err, HdfsError::BlockUnavailable { .. }),
            "{kind}: {err:?}"
        );
        let (reads, record) = read_record(&fs);
        assert_eq!(
            fs.stats().read_network_bytes - stats_before,
            record - record_before,
            "{kind}: FsStats is a view of the timeline"
        );
        assert_eq!(
            reads,
            reads_before + 1,
            "{kind}: the failed read has its phase"
        );
        assert!(record > record_before, "{kind}: the read fails midway");

        let now = fs.sync();
        let net = fs.cluster_net_mut();
        for n in 0..nodes {
            let io = net.node(NodeId(n));
            assert!(
                io.disk.next_free() <= now && io.nic.next_free() <= now,
                "{kind}: node {n} is busy past sync() = {now:?}"
            );
        }
    }
}
