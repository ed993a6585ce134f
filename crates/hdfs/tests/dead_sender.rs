//! A repair reads only from nodes that can serve: a pentagon node that
//! failed silently (down and wiped, not yet detected) is neither charged
//! nor read when another node of its stripes is repaired, and what the pass
//! charges is exactly what the executed plans moved.

use std::collections::BTreeSet;

use drc_cluster::{ClusterSpec, FailureEvent, FailureEventKind, FailureTrace, NodeId};
use drc_codes::{CodeKind, TransferPayload};
use drc_hdfs::{BlockKey, DistributedFileSystem};
use drc_sim::SimDuration;

#[test]
fn repairing_a_node_never_reads_from_a_silently_failed_peer() {
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = 1;
    let block = 1u64 << 20;
    let mut fs = DistributedFileSystem::new(spec, 0x5EED);
    let data: Vec<u8> = (0..3 * 9 * block as usize - 77)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect();
    let id = fs
        .write_file("/dead-sender", &data, CodeKind::Pentagon)
        .unwrap();
    fs.sync();
    let meta = fs.namenode().file(id).unwrap().clone();
    let code = CodeKind::Pentagon.build().unwrap();
    let hosts0 = meta.placement.stripe_hosts(0).unwrap();
    let (a, b) = (hosts0[0], hosts0[1]);

    // B fails silently: a detection timeout far beyond the test.
    fs.set_detection_timeout(SimDuration::from_secs_f64(1e6));
    let down = FailureEventKind::NodeDown { node: b };
    fs.schedule_trace(&FailureTrace::from_events(vec![FailureEvent::at_secs(
        0.0, down,
    )]));
    assert!(fs.process_events_until(fs.now()).unwrap().is_empty());
    assert!(!fs.cluster().is_up(b) && fs.datanode(b).unwrap().block_count() == 0);
    fs.fail_node_permanently(a);

    // What each stripe that spans A must move, planned around every node
    // that cannot serve it; every sender is up and holds what it sends.
    let nodes: Vec<NodeId> = fs.cluster().nodes().collect();
    let mut expect_served = vec![0u64; nodes.len()];
    let mut expect_blocks = 0u64;
    let mut spans_both = 0;
    for stripe in 0..meta.stripes {
        let hosts = meta.placement.stripe_hosts(stripe).unwrap();
        let Some(local_a) = hosts.iter().position(|&n| n == a) else {
            continue;
        };
        spans_both += usize::from(hosts.contains(&b));
        let holds = |local: usize, blk: usize| {
            let dn = fs.datanode(hosts[local]).unwrap();
            fs.cluster().is_up(hosts[local]) && dn.contains(&BlockKey::new(id, stripe, blk))
        };
        let unusable: BTreeSet<usize> = (0..hosts.len())
            .filter(|&l| l != local_a && !code.node_blocks(l).iter().any(|&blk| holds(l, blk)))
            .collect();
        let plan = code
            .repair_plan_around(&[local_a].into(), &unusable)
            .unwrap();
        for t in &plan.transfers {
            let sent = match &t.payload {
                TransferPayload::Replica { block } => vec![*block],
                TransferPayload::PartialParity { combines, .. } => combines.clone(),
                TransferPayload::Reconstructed { .. } => unreachable!("one node is repaired"),
            };
            assert!(
                sent.iter().all(|&blk| holds(t.from_node, blk)),
                "stripe {stripe}: {t:?} reads a node that cannot serve it"
            );
            expect_served[hosts[t.from_node].0] += block;
        }
        expect_blocks += plan.network_blocks() as u64;
    }
    assert!(spans_both > 0, "the file has a stripe on both A and B");

    let served = |fs: &DistributedFileSystem| -> Vec<u64> {
        nodes
            .iter()
            .map(|&n| fs.datanode(n).unwrap().bytes_served())
            .collect()
    };
    let before = served(&fs);
    let report = fs.repair_nodes(&[a]).unwrap();
    let after = served(&fs);
    assert_eq!(
        after[b.0], before[b.0],
        "the silently failed node served nothing"
    );
    let moved: Vec<u64> = after.iter().zip(&before).map(|(x, y)| x - y).collect();
    assert_eq!(moved, expect_served, "each sender is charged its transfers");
    assert_eq!(report.unrecoverable_stripes, 0);
    assert_eq!(report.network_bytes, expect_blocks * block);

    // B stays down; the rebuilt A serves the file byte for byte.
    fs.sync();
    assert_eq!(fs.read_file(id).unwrap(), data);
}
