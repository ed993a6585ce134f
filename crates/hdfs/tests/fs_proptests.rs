//! Property-based tests on the simulated file system: write/read round-trips
//! survive any tolerated failure pattern, repairs restore full redundancy,
//! the trace-driven failure engine restores the file and replays
//! identically, the encode-on-write and encoded-ahead write entry points are
//! indistinguishable from outside (including in refusing a spec with a bad
//! bandwidth), and so are the copying and handle forms of the whole-file
//! read.

use drc_cluster::{ClusterSpec, FailureEvent, FailureEventKind, FailureTrace, NodeId};
use drc_codes::CodeKind;
use drc_hdfs::{Block, BlockKey, Bytes, DistributedFileSystem, EncodedFile, FsStats, RepairReport};
use drc_sim::{PhaseClass, SimDuration, Timeline};
use proptest::prelude::*;

fn paper_code() -> impl Strategy<Value = CodeKind> {
    prop_oneof![
        Just(CodeKind::TWO_REP),
        Just(CodeKind::THREE_REP),
        Just(CodeKind::Pentagon),
        Just(CodeKind::Heptagon),
        Just(CodeKind::HeptagonLocal),
    ]
}

/// One code of every kind the file system stores: replication, the three
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever we write comes back identical, before failures, under the
    /// maximum tolerated number of permanent failures, and again after repair.
    #[test]
    fn roundtrip_with_failures_and_repair(
        code in paper_code(),
        // Up to ~3 stripes of 1 MiB blocks, with a ragged tail.
        size_kb in 1usize..2600,
        which in 0usize..100,
        seed in any::<u64>(),
    ) {
        let mut fs = DistributedFileSystem::new(tiny_spec(), seed);
        let data: Vec<u8> = (0..size_kb * 1024)
            .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes()[i % 8])
            .collect();
        let id = fs.write_file("/prop/file", &data, code).unwrap();
        prop_assert_eq!(fs.read_file(id).unwrap(), data.clone());

        // Fail `tolerance` nodes of a stripe chosen by `which`.
        let built = code.build().unwrap();
        let meta = fs.namenode().file(id).unwrap().clone();
        let stripe = which % meta.stripes;
        let tolerance = built.fault_tolerance();
        let victims: Vec<_> = meta.placement.stripe_hosts(stripe).unwrap()[..tolerance].to_vec();
        for &v in &victims {
            fs.fail_node_permanently(v);
        }
        prop_assert_eq!(fs.read_file(id).unwrap(), data.clone());

        // Repair and verify again; redundancy is fully restored.
        let report = fs.repair_nodes(&victims).unwrap();
        prop_assert_eq!(report.unrecoverable_stripes, 0);
        prop_assert_eq!(fs.read_file(id).unwrap(), data);
        let expected_bytes =
            meta.stripes as u64 * built.stored_blocks() as u64 * meta.block_size;
        prop_assert_eq!(fs.stats().stored_bytes, expected_bytes);
    }

    /// Degraded-read traffic accounting never undercounts: reading a file with
    /// `t` failed nodes moves at least as many bytes as reading it healthy.
    #[test]
    fn degraded_reads_cost_at_least_healthy_reads(
        code in paper_code(),
        seed in any::<u64>(),
    ) {
        let data = vec![7u8; 2 * 1024 * 1024 + 333];
        let mut healthy = DistributedFileSystem::new(tiny_spec(), seed);
        let id = healthy.write_file("/f", &data, code).unwrap();
        let _ = healthy.read_file(id).unwrap();
        let healthy_bytes = healthy.stats().read_network_bytes;

        let mut degraded = DistributedFileSystem::new(tiny_spec(), seed);
        let id = degraded.write_file("/f", &data, code).unwrap();
        let built = code.build().unwrap();
        let meta = degraded.namenode().file(id).unwrap().clone();
        let victims: Vec<_> =
            meta.placement.stripe_hosts(0).unwrap()[..built.fault_tolerance()].to_vec();
        for &v in &victims {
            degraded.fail_node_permanently(v);
        }
        let _ = degraded.read_file(id).unwrap();
        prop_assert!(degraded.stats().read_network_bytes >= healthy_bytes);
    }

    /// The trace-driven failure engine (timed fail-stops, heartbeat
    /// detection, batched auto-repair) restores the file byte-for-byte, and
    /// a second deployment with the same seed replays it identically:
    /// traffic counters, repair reports and the virtual timeline.
    #[test]
    fn trace_driven_auto_repair_restores_the_file_and_replays_identically(
        code in paper_code(),
        size_kb in 512usize..2048,
        fail_ms in 0u64..2000,
        timeout_ms in 0u64..1000,
        seed in any::<u64>(),
    ) {
        let data: Vec<u8> = (0..size_kb * 1024)
            .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes()[i % 8])
            .collect();
        let run = || -> (Vec<u8>, _, Vec<RepairReport>, _) {
                let mut fs = DistributedFileSystem::new(tiny_spec(), seed);
                let id = fs.write_file("/trace/prop", &data, code).unwrap();
                fs.sync();
                let built = code.build().unwrap();
                let meta = fs.namenode().file(id).unwrap().clone();
                let tolerance = built.fault_tolerance().min(2);
                let victims =
                    meta.placement.stripe_hosts(0).unwrap()[..tolerance].to_vec();
                fs.set_detection_timeout(SimDuration(timeout_ms * 1_000_000));
                let at = fs.now() + SimDuration(fail_ms * 1_000_000);
                fs.schedule_trace(&FailureTrace::from_events(
                    victims
                        .iter()
                        .map(|&node| FailureEvent::at_ns(
                            at.0,
                            FailureEventKind::NodeDown { node },
                        ))
                        .collect(),
                ));
                let reports = fs.process_all_events().unwrap();
                let back = fs.read_file(id).unwrap();
                (back, fs.stats(), reports, fs.timeline().clone())
        };
        let (back_1, stats_1, reports_1, timeline_1) = run();
        let (back_2, stats_2, reports_2, timeline_2) = run();
        prop_assert_eq!(&back_1, &data);
        prop_assert!(reports_1.iter().all(|r| r.unrecoverable_stripes == 0));
        prop_assert_eq!(back_1, back_2);
        prop_assert_eq!(stats_1, stats_2);
        prop_assert_eq!(reports_1, reports_2);
        prop_assert_eq!(timeline_1, timeline_2);
    }

    /// Chunked streaming repair is byte-identical to the monolithic path:
    /// restored file contents, `FsStats` and everything in the
    /// `RepairReport` except the completion instant never depend on the
    /// chunk size — and the streamed schedule never finishes *later* than
    /// the serial whole-block baseline. A chunk at least as large as the
    /// block degenerates to the monolithic schedule exactly, timeline
    /// included.
    #[test]
    fn chunked_repair_is_byte_identical_to_monolithic(
        code in paper_code(),
        size_kb in 512usize..2600,
        which in 0usize..100,
        seed in any::<u64>(),
    ) {
        let serial = repair_scenario(code, size_kb, which, seed, u64::MAX);
        // 300_000 does not divide the 1 MiB block; 256 KiB does; 1 MiB
        // equals it (degenerate single chunk).
        for chunk in [300_000u64, 256 * 1024, 1 << 20] {
            let chunked = repair_scenario(code, size_kb, which, seed, chunk);
            prop_assert_eq!(&chunked.0, &serial.0, "restored bytes, chunk={}", chunk);
            prop_assert_eq!(&chunked.1, &serial.1, "stats, chunk={}", chunk);
            prop_assert_eq!(
                chunked.2.stripes_repaired, serial.2.stripes_repaired,
                "stripes, chunk={}", chunk
            );
            prop_assert_eq!(
                chunked.2.blocks_restored, serial.2.blocks_restored,
                "blocks, chunk={}", chunk
            );
            prop_assert_eq!(
                chunked.2.network_bytes, serial.2.network_bytes,
                "traffic, chunk={}", chunk
            );
            prop_assert_eq!(
                chunked.2.unrecoverable_stripes, serial.2.unrecoverable_stripes
            );
            prop_assert_eq!(chunked.2.issued_at, serial.2.issued_at);
            // Each chunk's service time rounds up to a whole nanosecond per
            // resource, so a chunked schedule can trail the monolithic one by
            // a few tens of ns of accumulated rounding — never more. Real
            // pipelining effects are tens of *milliseconds*; 1 µs of slack
            // separates rounding noise from a genuine regression.
            let rounding = drc_sim::SimDuration(1_000);
            prop_assert!(
                chunked.2.completed_at <= serial.2.completed_at + rounding,
                "streaming must never be slower: chunk={} {:?} vs {:?}",
                chunk, chunked.2.completed_at, serial.2.completed_at
            );
            if chunk >= 1 << 20 {
                // Chunk >= block: exactly the monolithic schedule.
                prop_assert_eq!(chunked.2, serial.2.clone());
                prop_assert_eq!(chunked.3, serial.3.clone());
            }
        }
    }
}

/// Everything observable about one ingest → read → fail → repair → read
/// run: the blocks each node stored (and the bytes it received) at ingest,
/// then stats, timeline, read-backs and the repair report.
#[derive(Debug, PartialEq)]
struct IngestOutcome {
    stored: Vec<(NodeId, BlockKey, Block)>,
    received: Vec<u64>,
    stats_after_write: FsStats,
    healthy_read: Vec<u8>,
    report: RepairReport,
    repaired_read: Vec<u8>,
    stats: FsStats,
    timeline: Timeline,
}

fn ingest_outcome(
    code: CodeKind,
    seed: u64,
    ingest: impl FnOnce(&mut DistributedFileSystem) -> drc_hdfs::FileId,
) -> IngestOutcome {
    let mut fs = DistributedFileSystem::new(tiny_spec(), seed);
    let id = ingest(&mut fs);
    let nodes: Vec<_> = (0..fs.cluster().spec().data_nodes)
        .map(|n| (NodeId(n), fs.datanode(NodeId(n)).unwrap()))
        .collect();
    let stored = nodes
        .iter()
        .flat_map(|&(node, dn)| {
            dn.block_keys()
                .into_iter()
                .map(move |key| (node, key, dn.peek(&key).unwrap()))
        })
        .collect();
    let received = nodes.iter().map(|(_, dn)| dn.bytes_received()).collect();
    let stats_after_write = fs.stats();
    fs.sync();
    let healthy_read = fs.read_file(id).unwrap();
    fs.sync();
    let meta = fs.namenode().file(id).unwrap().clone();
    let tolerance = code.build().unwrap().fault_tolerance();
    let victims: Vec<_> = meta.placement.stripe_hosts(0).unwrap()[..tolerance].to_vec();
    for &v in &victims {
        fs.fail_node_permanently(v);
    }
    let report = fs.repair_nodes(&victims).unwrap();
    fs.sync();
    let repaired_read = fs.read_file(id).unwrap();
    IngestOutcome {
        stored,
        received,
        stats_after_write,
        healthy_read,
        report,
        repaired_read,
        stats: fs.stats(),
        timeline: fs.timeline().clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// `write_file(&[u8])` and `write_encoded(&EncodedFile)` differ only in
    /// when a stripe is encoded and where a data block's handle comes from.
    /// For one code of every kind and the three file shapes — whole
    /// stripes, whole blocks short of a stripe, and a short tail block —
    /// they store the same bytes under the same keys on the same nodes,
    /// issue the same timed events and account the same traffic, and the
    /// deployments stay indistinguishable through a read, a tolerance-sized
    /// permanent failure, its repair and a read-back. And one `EncodedFile`
    /// is ingested twice: whatever the first deployment did to the shared
    /// handles (wipes, repairs, its drop), the second sees the same file.
    #[test]
    fn write_encoded_is_indistinguishable_from_write_file(
        stripes in 1usize..3,
        extra in any::<usize>(),
        tail in 1usize..(1 << 20),
        seed in any::<u64>(),
    ) {
        const BLOCK: usize = 1 << 20;
        // One payload for the whole case, as an experiment driver holds it:
        // every file is a prefix — a borrowed slice on one side, a
        // zero-copy view on the other.
        let widest = EVERY_KIND.iter().map(|c| c.build().unwrap().data_blocks()).max().unwrap();
        let payload: Bytes = (0..(stripes + 1) * widest * BLOCK)
            .map(|i| ((i as u64 ^ seed).wrapping_mul(0x9E3779B97F4A7C15) >> 56) as u8)
            .collect::<Vec<u8>>()
            .into();
        for code in EVERY_KIND {
            let k = code.build().unwrap().data_blocks();
            let whole_stripes = stripes * k * BLOCK;
            // A partial last stripe of whole blocks (none to add at k = 1).
            let whole_blocks = whole_stripes + extra % k * BLOCK;
            for len in [whole_stripes, whole_blocks, whole_blocks + tail] {
                let copied = ingest_outcome(code, seed, |fs| {
                    fs.write_file("/diff/ingest", &payload[..len], code).unwrap()
                });
                let file = EncodedFile::encode(payload.slice(..len), code, BLOCK).unwrap();
                let encoded = ingest_outcome(code, seed, |fs| {
                    fs.write_encoded("/diff/ingest", &file).unwrap()
                });
                let again = ingest_outcome(code, seed, |fs| {
                    fs.write_encoded("/diff/ingest", &file).unwrap()
                });
                prop_assert_eq!(&copied.healthy_read[..], &payload[..len], "{} len={}", code, len);
                prop_assert_eq!(&copied.repaired_read[..], &payload[..len], "{} len={}", code, len);
                prop_assert_eq!(copied.report.unrecoverable_stripes, 0);
                prop_assert!(copied == encoded, "{} len={}:\n{:?}\nvs\n{:?}",
                    code, len, copied.report, encoded.report);
                prop_assert!(encoded == again, "{} len={}: second ingest of one EncodedFile:\n{:?}\nvs\n{:?}",
                    code, len, encoded.report, again.report);
            }
        }
    }
}

/// One write → permanent-failure → repair → read-back scenario at a given
/// streaming chunk size.
fn repair_scenario(
    code: CodeKind,
    size_kb: usize,
    which: usize,
    seed: u64,
    chunk: u64,
) -> (Vec<u8>, FsStats, RepairReport, Timeline) {
    let mut fs = DistributedFileSystem::new(tiny_spec(), seed);
    fs.set_repair_chunk_bytes(chunk);
    let data: Vec<u8> = (0..size_kb * 1024)
        .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes()[i % 8])
        .collect();
    let id = fs.write_file("/diff/chunk", &data, code).unwrap();
    fs.sync();
    let built = code.build().unwrap();
    let meta = fs.namenode().file(id).unwrap().clone();
    let stripe = which % meta.stripes;
    let victims: Vec<_> =
        meta.placement.stripe_hosts(stripe).unwrap()[..built.fault_tolerance()].to_vec();
    for &v in &victims {
        fs.fail_node_permanently(v);
    }
    let report = fs.repair_nodes(&victims).unwrap();
    let back = fs.read_file(id).unwrap();
    (back, fs.stats(), report, fs.timeline().clone())
}

/// The repair's fetch set is plan-driven: for every code, the bytes the
/// DataNodes record as served during a repair equal the plan-accounted
/// `RepairReport::network_bytes` exactly — modeled and accounted traffic
/// agree.
#[test]
fn repair_served_bytes_match_the_plan_for_every_code() {
    for code in EVERY_KIND {
        let mut fs = DistributedFileSystem::new(tiny_spec(), 0xACC0);
        let built = code.build().unwrap();
        let data = vec![42u8; 2 * built.data_blocks() * 1024 * 1024 + 777];
        let id = fs.write_file("/plan/traffic", &data, code).unwrap();
        fs.sync();
        let meta = fs.namenode().file(id).unwrap().clone();
        let victims: Vec<_> =
            meta.placement.stripe_hosts(0).unwrap()[..built.fault_tolerance()].to_vec();
        for &v in &victims {
            fs.fail_node_permanently(v);
        }
        let served_before: u64 = (0..fs.cluster().spec().data_nodes)
            .filter_map(|n| fs.datanode(NodeId(n)))
            .map(|dn| dn.bytes_served())
            .sum();
        let report = fs.repair_nodes(&victims).unwrap();
        let served: u64 = (0..fs.cluster().spec().data_nodes)
            .filter_map(|n| fs.datanode(NodeId(n)))
            .map(|dn| dn.bytes_served())
            .sum::<u64>()
            - served_before;
        assert_eq!(
            served, report.network_bytes,
            "{code}: served bytes must equal the plan-accounted repair traffic"
        );
        assert!(report.network_bytes > 0, "{code}: a repair moves bytes");
        assert_eq!(fs.read_file(id).unwrap(), data, "{code}: bytes restored");
    }
}

/// `read_file_blocks` is `read_file` without the file-sized copy: for every
/// code kind, on a file with a short tail, whether its stripe-0 hosts are
/// healthy or failed (degraded reads), the handles concatenate to the bytes
/// `read_file` returns — the last one cut to the file's length — and the
/// two deployments end with the same timeline, `FsStats` and per-node
/// served bytes. The same holds at file sizes on both sides of the point
/// where `read_file`'s output becomes a huge-page-advised bulk buffer
/// (`drc_gf::bufpool::bulk_with_capacity`: from one whole aligned 2 MiB
/// page), which the handle form never allocates.
#[test]
fn read_file_blocks_is_read_file_without_the_copy() {
    const MIB: usize = 1 << 20;
    #[derive(Debug, Clone, Copy)]
    enum Stripe0 {
        Healthy,
        Degraded,
    }
    // Returns how many blocks the handle deployments reconstructed.
    let check = |code: CodeKind, len: usize| {
        let built = code.build().unwrap();
        let data: Vec<u8> = (0..len)
            .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 56) as u8)
            .collect();
        let mut degraded_reads = 0;
        for scenario in [Stripe0::Healthy, Stripe0::Degraded] {
            let deploy = || {
                let mut fs = DistributedFileSystem::new(tiny_spec(), 0xB10C);
                let id = fs.write_file("/read/blocks", &data, code).unwrap();
                fs.sync();
                let meta = fs.namenode().file(id).unwrap().clone();
                let victims: Vec<_> =
                    meta.placement.stripe_hosts(0).unwrap()[..built.fault_tolerance()].to_vec();
                for &v in &victims {
                    match scenario {
                        Stripe0::Healthy => {}
                        Stripe0::Degraded => fs.fail_node_permanently(v),
                    }
                }
                (fs, id)
            };
            let observe = |fs: &DistributedFileSystem| {
                let served: Vec<u64> = (0..fs.cluster().spec().data_nodes)
                    .map(|n| fs.datanode(NodeId(n)).unwrap().bytes_served())
                    .collect();
                (fs.stats(), fs.timeline().clone(), served)
            };
            let (mut copying, id) = deploy();
            let copied = copying.read_file(id).unwrap();
            let (mut handles, id) = deploy();
            let blocks = handles.read_file_blocks(id).unwrap();

            let case = format!("{code} {len} B {scenario:?}");
            assert!(copied == data, "{case}: read_file differs");
            let mut joined = Vec::with_capacity(len);
            blocks
                .iter()
                .for_each(|b| joined.extend_from_slice(b.bytes().unwrap()));
            assert!(joined == data, "{case}: read_file_blocks differs");
            assert_eq!(
                blocks.len(),
                len.div_ceil(MIB),
                "{case}: content blocks only"
            );
            assert_eq!(
                blocks.last().unwrap().len(),
                len - (blocks.len() - 1) * MIB,
                "{case}: truncated tail"
            );
            assert_eq!(observe(&copying), observe(&handles), "{case}");
            degraded_reads += handles.timeline().of(PhaseClass::DegradedRead).count();
        }
        degraded_reads
    };
    let mut degraded_reads = 0;
    for code in EVERY_KIND {
        // One whole stripe, one whole block of the next, and a ragged tail.
        let len = (code.build().unwrap().data_blocks() + 1) * MIB + 4321;
        degraded_reads += check(code, len);
    }
    assert!(degraded_reads > 0, "some scenario must reconstruct a block");
    // Below one huge page, around the first size that always holds an
    // aligned one, and a four-stripe file with a short tail.
    for len in [1, 2 * MIB - 1, 4 * MIB, 4 * MIB + 1, 36 * MIB + 4321] {
        degraded_reads = check(CodeKind::Pentagon, len);
    }
    assert!(
        degraded_reads > 0,
        "the 36 MiB file must reconstruct a block"
    );
}
