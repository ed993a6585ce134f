//! Differential tests locking the trace-driven failure engine to the old
//! static failure model: a `FailureTrace` with every failure at t = 0,
//! processed under a zero detection timeout, must reproduce the static
//! scenario's results **byte-for-byte** — traffic counters, repair bytes
//! and job metrics — for every `CodeKind`.
//!
//! The static path is `fail_node_permanently` + caller-invoked
//! `repair_nodes` (storage) and a cluster whose victims start down
//! (MapReduce). The traced path starts healthy and replays the same
//! failures through the detection/auto-repair engine. Virtual *timings* may
//! differ (the two paths issue events in different orders); the bytes may
//! not.

use drc_core::cluster::{Cluster, ClusterSpec, FailureTrace, NodeId};
use drc_core::codes::CodeKind;
use drc_core::hdfs::DistributedFileSystem;
use drc_core::mapreduce::{JobRun, JobSpec, SchedulerKind};
use drc_core::sim::{SimDuration, SimTime};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every code kind the registry evaluates.
fn all_codes() -> Vec<CodeKind> {
    vec![
        CodeKind::TWO_REP,
        CodeKind::THREE_REP,
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
        CodeKind::RAID_M_10_9,
        CodeKind::RAID_M_12_11,
        CodeKind::ReedSolomon {
            data: 10,
            parity: 4,
        },
    ]
}

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

/// Storage layer: write → fail → repair → read, on the static path and on
/// the t = 0 trace path, must move identical bytes for every code kind.
#[test]
fn t0_trace_reproduces_static_repair_bytes_for_every_code_kind() {
    for kind in all_codes() {
        let code = kind.build().unwrap();
        let victims_of = |fs: &DistributedFileSystem, id| {
            let meta = fs.namenode().file(id).unwrap().clone();
            let tolerance = code.fault_tolerance().min(2);
            meta.placement.stripe_hosts(0).unwrap()[..tolerance].to_vec()
        };
        let data = payload(5 * 1024 * 1024 + 77);

        // Static path.
        let mut static_fs = DistributedFileSystem::new(small_cluster(), 4021);
        let id = static_fs.write_file("/diff", &data, kind).unwrap();
        let victims: Vec<NodeId> = victims_of(&static_fs, id);
        for &v in &victims {
            static_fs.fail_node_permanently(v);
        }
        let static_report = static_fs.repair_nodes(&victims).unwrap();
        assert_eq!(static_fs.read_file(id).unwrap(), data, "{kind}");

        // Traced path: identical seed, failures arrive as a t = 0 trace
        // under a zero detection timeout.
        let mut traced_fs = DistributedFileSystem::new(small_cluster(), 4021);
        let id2 = traced_fs.write_file("/diff", &data, kind).unwrap();
        assert_eq!(id, id2, "{kind}: same seed, same namespace");
        assert_eq!(victims, victims_of(&traced_fs, id2), "{kind}");
        traced_fs.set_detection_timeout(SimDuration::ZERO);
        traced_fs.schedule_trace(&FailureTrace::down_at_t0(&victims));
        let reports = traced_fs.process_all_events().unwrap();
        assert_eq!(reports.len(), 1, "{kind}: one batched auto-repair pass");
        assert_eq!(traced_fs.read_file(id2).unwrap(), data, "{kind}");

        // Byte-for-byte: the repair report and every traffic counter.
        let auto = &reports[0];
        assert_eq!(auto.network_bytes, static_report.network_bytes, "{kind}");
        assert_eq!(
            auto.blocks_restored, static_report.blocks_restored,
            "{kind}"
        );
        assert_eq!(
            auto.stripes_repaired, static_report.stripes_repaired,
            "{kind}"
        );
        assert_eq!(
            auto.unrecoverable_stripes, static_report.unrecoverable_stripes,
            "{kind}"
        );
        assert_eq!(traced_fs.stats(), static_fs.stats(), "{kind}");
    }
}

/// Storage layer, detection semantics: a *large* detection timeout means no
/// repair runs, and the degraded reads of the trace path cost exactly what
/// the static path's degraded reads cost.
#[test]
fn undetected_t0_trace_reproduces_static_degraded_read_bytes() {
    for kind in all_codes() {
        let code = kind.build().unwrap();
        let data = payload(3 * 1024 * 1024 + 11);

        let mut static_fs = DistributedFileSystem::new(small_cluster(), 777);
        let id = static_fs.write_file("/deg", &data, kind).unwrap();
        let meta = static_fs.namenode().file(id).unwrap().clone();
        let tolerance = code.fault_tolerance().min(2);
        let victims: Vec<NodeId> = meta.placement.stripe_hosts(0).unwrap()[..tolerance].to_vec();
        for &v in &victims {
            static_fs.fail_node_permanently(v);
        }
        assert_eq!(static_fs.read_file(id).unwrap(), data, "{kind}");

        let mut traced_fs = DistributedFileSystem::new(small_cluster(), 777);
        let id2 = traced_fs.write_file("/deg", &data, kind).unwrap();
        // Detection far in the future: the failure engine applies the
        // fail-stops but never repairs inside this window.
        traced_fs.set_detection_timeout(SimDuration::from_secs_f64(1e6));
        traced_fs.schedule_trace(&FailureTrace::down_at_t0(&victims));
        let reports = traced_fs.process_events_until(traced_fs.now()).unwrap();
        assert!(reports.is_empty(), "{kind}: nothing detected yet");
        assert_eq!(traced_fs.read_file(id2).unwrap(), data, "{kind}");

        assert_eq!(traced_fs.stats(), static_fs.stats(), "{kind}");
    }
}

/// MapReduce layer: a `JobRun` with the t = 0 trace and zero timeout must
/// equal one with the victims statically down — the full
/// `JobMetrics`, timeline included — for every code kind.
#[test]
fn t0_trace_reproduces_static_job_metrics_for_every_code_kind() {
    use drc_core::cluster::{PlacementMap, PlacementPolicy};
    for kind in all_codes() {
        let code = kind.build().unwrap();
        let cluster = Cluster::new(small_cluster());
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let stripes = 40usize.div_ceil(code.data_blocks());
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            stripes,
            PlacementPolicy::Random,
            &mut rng,
        )
        .unwrap();
        // Fail as many hosts of data block 0 as the code tolerates.
        let block = drc_core::cluster::GlobalBlockId::new(0, 0);
        let tolerance = code.fault_tolerance().min(2);
        let locations = placement.locations(block).unwrap();
        let victims: Vec<NodeId> = locations[..tolerance.min(locations.len())].to_vec();
        let job = JobSpec::new("differential", placement.data_blocks()).with_reduce_tasks(7);
        let scheduler = SchedulerKind::Delay.build();

        let mut down_cluster = cluster.clone();
        for &v in &victims {
            down_cluster.set_down(v);
        }
        let mut net_a = drc_core::sim::ClusterNet::new(cluster.spec());
        let mut rng_a = ChaCha8Rng::seed_from_u64(17);
        let static_metrics = JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &down_cluster,
            scheduler.as_ref(),
        )
        .on(&mut net_a, SimTime::ZERO)
        .run(&mut rng_a)
        .unwrap();

        let trace = FailureTrace::down_at_t0(&victims);
        let mut net_b = drc_core::sim::ClusterNet::new(cluster.spec());
        let mut rng_b = ChaCha8Rng::seed_from_u64(17);
        let traced_metrics = JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            scheduler.as_ref(),
        )
        .on(&mut net_b, SimTime::ZERO)
        .failures(&trace, SimDuration::ZERO)
        .run(&mut rng_b)
        .unwrap();

        assert_eq!(
            static_metrics, traced_metrics,
            "{kind}: t0 trace with zero timeout must equal the static model"
        );
        assert_eq!(traced_metrics.tasks_reexecuted, 0, "{kind}");
    }
}

/// Hostile input: every event kind naming a node (or rack) the 25-node
/// cluster does not have. The shared replay drops them at scheduling, so
/// both consumers behave exactly as under an empty trace — the file system
/// used to index `nodes[999]` and panic on the `NodeUp` and the `Slowdown`.
#[test]
fn events_naming_nodes_outside_the_cluster_change_nothing_in_either_consumer() {
    use drc_core::cluster::{
        FailureEvent, FailureEventKind, PlacementMap, PlacementPolicy, Positive, RackId,
    };
    let ghost = NodeId(999);
    let hostile = FailureTrace::from_events(vec![
        FailureEvent::at_ns(5, FailureEventKind::NodeDown { node: ghost }),
        FailureEvent::at_ns(5, FailureEventKind::NodeUp { node: ghost }),
        FailureEvent::at_ns(
            5,
            FailureEventKind::Slowdown {
                node: ghost,
                factor: Positive::new(4.0).unwrap(),
            },
        ),
        FailureEvent::at_ns(5, FailureEventKind::RackDown { rack: RackId(999) }),
    ]);
    let kind = CodeKind::Pentagon;
    let data = payload(2 * 1024 * 1024 + 5);

    // Storage consumer.
    let run_fs = |trace: &FailureTrace| {
        let mut fs = DistributedFileSystem::new(small_cluster(), 31);
        let id = fs.write_file("/hostile", &data, kind).unwrap();
        fs.set_detection_timeout(SimDuration::ZERO);
        fs.schedule_trace(trace);
        assert_eq!(fs.pending_events(), 0);
        let reports = fs.process_all_events().unwrap();
        assert!(reports.is_empty());
        assert_eq!(fs.read_file(id).unwrap(), data);
        (fs.stats(), fs.timeline().clone())
    };
    assert_eq!(run_fs(&hostile), run_fs(&FailureTrace::new()));

    // MapReduce consumer.
    let code = kind.build().unwrap();
    let cluster = Cluster::new(small_cluster());
    let mut rng = ChaCha8Rng::seed_from_u64(92);
    let placement = PlacementMap::place(
        code.as_ref(),
        &cluster,
        3,
        PlacementPolicy::Random,
        &mut rng,
    )
    .unwrap();
    let job = JobSpec::new("hostile", placement.data_blocks()).with_reduce_tasks(5);
    let scheduler = SchedulerKind::Delay.build();
    let run_mr = |trace: &FailureTrace| {
        JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            scheduler.as_ref(),
        )
        .failures(trace, SimDuration::from_secs_f64(1.0))
        .run(&mut ChaCha8Rng::seed_from_u64(18))
        .unwrap()
    };
    assert_eq!(run_mr(&hostile), run_mr(&FailureTrace::new()));
}
