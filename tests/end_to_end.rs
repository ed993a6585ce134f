//! End-to-end integration tests spanning the whole stack: codes → placement →
//! simulated HDFS → MapReduce engine.

use drc_core::cluster::{Cluster, ClusterSpec, NodeId};
use drc_core::codes::CodeKind;
use drc_core::hdfs::DistributedFileSystem;
use drc_core::mapreduce::{JobRun, SchedulerKind};
use drc_core::workloads::{provision_workload, WorkloadKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_cluster() -> ClusterSpec {
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = 1;
    spec
}

fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(2654435761) >> 8) as u8)
        .collect()
}

#[test]
fn hdfs_full_lifecycle_for_every_paper_code() {
    for kind in [
        CodeKind::TWO_REP,
        CodeKind::THREE_REP,
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
    ] {
        let mut fs = DistributedFileSystem::new(small_cluster(), 99);
        let data = payload(5 * 1024 * 1024 + 77);
        let id = fs.write_file("/it/file", &data, kind).unwrap();

        // Storage overhead observed on disk matches the code's promise.
        let code = kind.build().unwrap();
        let meta = fs.namenode().file(id).unwrap().clone();
        let stats = fs.stats();
        let expected_stored = meta.stripes as u64 * code.stored_blocks() as u64 * meta.block_size;
        assert_eq!(stats.stored_bytes, expected_stored, "{kind}");

        // Tolerate `fault_tolerance` permanent failures of stripe nodes.
        let tolerance = code.fault_tolerance();
        let victims: Vec<NodeId> = meta.placement.stripe_hosts(0).unwrap()[..tolerance].to_vec();
        for &v in &victims {
            fs.fail_node_permanently(v);
        }
        assert_eq!(fs.read_file(id).unwrap(), data, "{kind} degraded read");

        // RaidNode repair restores every lost replica and the data survives.
        let report = fs.repair_nodes(&victims).unwrap();
        assert_eq!(report.unrecoverable_stripes, 0, "{kind}");
        assert!(report.network_bytes > 0, "{kind}");
        assert_eq!(fs.read_file(id).unwrap(), data, "{kind} post-repair read");

        // After repair the stored volume is back to the full redundancy level.
        assert_eq!(
            fs.stats().stored_bytes,
            expected_stored,
            "{kind} after repair"
        );
    }
}

#[test]
fn engine_locality_is_consistent_with_placement_structure() {
    // For 2-rep, every map task has 2 candidate nodes; with ample slots and
    // low load, the engine should achieve (near-)full locality, and the
    // pentagon at the same load should not exceed it.
    let spec = ClusterSpec::simulation_25(8);
    let cluster = Cluster::new(spec);
    let scheduler = SchedulerKind::Delay.build();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut localities = Vec::new();
    for kind in [CodeKind::TWO_REP, CodeKind::Pentagon] {
        let code = kind.build().unwrap();
        let workload =
            provision_workload(WorkloadKind::Terasort, kind, &cluster, 50.0, &mut rng).unwrap();
        let metrics = JobRun::new(
            &workload.job,
            code.as_ref(),
            &workload.placement,
            &cluster,
            scheduler.as_ref(),
        )
        .run(&mut rng)
        .unwrap();
        assert_eq!(metrics.map_tasks, 100);
        localities.push(metrics.data_locality_percent());
    }
    assert!(localities[0] > 95.0);
    assert!(localities[0] >= localities[1] - 1.0);
}

#[test]
fn transient_failures_trigger_degraded_reads_with_partial_parity_cost() {
    // Take down both replicas of one pentagon block during a job and check
    // that the engine charges exactly 3 blocks of reconstruction traffic.
    let spec = small_cluster();
    let mut cluster = Cluster::new(spec);
    let kind = CodeKind::Pentagon;
    let code = kind.build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let workload =
        provision_workload(WorkloadKind::Terasort, kind, &cluster, 50.0, &mut rng).unwrap();
    // Fail both hosts of the first task's block.
    let first_block = workload.job.map_tasks()[0].block;
    let hosts: Vec<NodeId> = workload.placement.locations(first_block).unwrap().to_vec();
    for &host in &hosts {
        cluster.set_down(host);
    }

    let scheduler = SchedulerKind::Delay.build();
    let metrics = JobRun::new(
        &workload.job,
        code.as_ref(),
        &workload.placement,
        &cluster,
        scheduler.as_ref(),
    )
    .run(&mut rng)
    .unwrap();
    assert!(metrics.degraded_reads >= 1);
    // Each pentagon degraded read fetches 3 blocks of 1 MiB.
    assert!(metrics.degraded_read_bytes >= 3 * 1024 * 1024);
    assert_eq!(metrics.degraded_read_bytes % (1024 * 1024), 0);
}

#[test]
fn repair_traffic_ordering_matches_the_paper_argument() {
    // For the same amount of lost data, the pentagon's two-node repair moves
    // less than a Reed-Solomon-style full decode per lost block, but more
    // than plain replication's single copy.
    let two_rep = CodeKind::TWO_REP.build().unwrap();
    let pentagon = CodeKind::Pentagon.build().unwrap();
    let raid_m = CodeKind::RAID_M_10_9.build().unwrap();

    let rep_repair = two_rep
        .repair_plan(&[0].into_iter().collect())
        .unwrap()
        .network_blocks();
    let pent_repair = pentagon
        .repair_plan(&[0, 1].into_iter().collect())
        .unwrap()
        .network_blocks();
    let raid_repair = raid_m
        .repair_plan(&[0, 1].into_iter().collect())
        .unwrap()
        .network_blocks();
    // 2-rep: 1 block per failed node; pentagon: 10 blocks for 7 lost distinct
    // blocks; RAID+m pair loss: 10 blocks for a single lost distinct block.
    assert_eq!(rep_repair, 1);
    assert_eq!(pent_repair, 10);
    assert_eq!(raid_repair, 10);
    // Per distinct block recovered, the pentagon is far cheaper than RAID+m.
    let pent_lost = 7.0;
    let raid_lost = 1.0;
    assert!((pent_repair as f64 / pent_lost) < (raid_repair as f64 / raid_lost));
}
