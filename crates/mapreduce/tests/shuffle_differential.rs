//! Differential tests for the event-driven shuffle: the event model decides
//! *when* traffic moves, never *how much*.
//!
//! The first test locks the byte accounting to the closed-form formula the
//! engine used before the shuffle became event-driven (modulo the documented
//! round-instead-of-truncate fix): for every code kind, `shuffle_bytes` and
//! `network_traffic_bytes` must match the formula exactly. The second test
//! locks the time model: a saturated LAN strictly delays reduce completion
//! while leaving the byte totals untouched. The last test holds the totals
//! to the timeline they are read off: a job without reducers has no
//! shuffle phase and no shuffle bytes.

use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_mapreduce::{DelayScheduler, JobRun, JobSpec};
use drc_sim::{ClusterNet, PhaseClass, SimDuration, SimTime};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The closed-form shuffle accounting (pre-event-driven model): map output
/// scales the input by the shuffle ratio, and everything except the share
/// produced on the reducer's own node crosses the network. Round to the
/// nearest byte (the engine's documented semantics).
fn closed_form_shuffle(tasks: u64, block_bytes: u64, ratio: f64, up_nodes: usize) -> u64 {
    let input = tasks * block_bytes;
    // drc-lint: allow(lossy-float-cast): the oracle mirrors the engine's
    // documented round-to-nearest byte accounting, term for term.
    let map_output = (input as f64 * ratio).round() as u64;
    let fraction = 1.0 - 1.0 / up_nodes.max(1) as f64;
    // drc-lint: allow(lossy-float-cast): same documented rounding as above.
    (map_output as f64 * fraction).round() as u64
}

#[test]
fn event_driven_shuffle_reproduces_closed_form_bytes_for_every_code_kind() {
    let codes = [
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
    ];
    for kind in codes {
        for seed in [1u64, 2] {
            let code = kind.build().unwrap();
            let cluster = Cluster::new(ClusterSpec::simulation_25(2));
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let stripes = 50usize.div_ceil(code.data_blocks());
            let placement = PlacementMap::place(
                code.as_ref(),
                &cluster,
                stripes,
                PlacementPolicy::Random,
                &mut rng,
            )
            .unwrap();
            let blocks: Vec<_> = placement.data_blocks().into_iter().take(50).collect();
            let job = JobSpec::new("differential", blocks)
                .with_shuffle_ratio(0.7)
                .unwrap()
                .with_reduce_tasks(8);
            let metrics = JobRun::new(
                &job,
                code.as_ref(),
                &placement,
                &cluster,
                &DelayScheduler::default(),
            )
            .run(&mut rng)
            .unwrap();

            let block_bytes = cluster.spec().block_size_bytes();
            let expected_shuffle =
                closed_form_shuffle(50, block_bytes, 0.7, cluster.up_nodes().len());
            assert_eq!(
                metrics.shuffle_bytes, expected_shuffle,
                "{kind} seed {seed}: event-driven shuffle changed the byte accounting"
            );
            // Remote and degraded bytes are per-task and unchanged; the
            // total is their sum with the closed-form shuffle volume.
            assert_eq!(
                metrics.network_traffic_bytes,
                metrics.remote_input_bytes + metrics.degraded_read_bytes + expected_shuffle,
                "{kind} seed {seed}"
            );
        }
    }
}

#[test]
fn byte_accounting_is_identical_on_idle_and_congested_substrates() {
    // The same job on an idle net and on a net whose links are all busy must
    // report byte-identical traffic — only the virtual times may differ.
    let code = CodeKind::Pentagon.build().unwrap();
    let cluster = Cluster::new(ClusterSpec::simulation_25(4));
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let placement = PlacementMap::place(
        code.as_ref(),
        &cluster,
        6,
        PlacementPolicy::Random,
        &mut rng,
    )
    .unwrap();
    let job = JobSpec::new("idle-vs-busy", placement.data_blocks()).with_reduce_tasks(12);
    let run_on = |net: &mut ClusterNet| {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .on(net, SimTime::ZERO)
        .run(&mut rng)
        .unwrap()
    };
    let mut idle_net = ClusterNet::new(cluster.spec());
    let idle = run_on(&mut idle_net);
    let mut busy_net = ClusterNet::new(cluster.spec());
    let hold = SimTime::ZERO + SimDuration::from_secs_f64(1000.0);
    busy_net.fabric().occupy_until(hold);
    for n in cluster.up_nodes() {
        busy_net.node(n).nic.occupy_until(hold);
        busy_net.node(n).disk.occupy_until(hold);
    }
    let busy = run_on(&mut busy_net);
    assert_eq!(busy.shuffle_bytes, idle.shuffle_bytes);
    assert_eq!(busy.remote_input_bytes, idle.remote_input_bytes);
    assert_eq!(busy.degraded_read_bytes, idle.degraded_read_bytes);
    assert_eq!(busy.network_traffic_bytes, idle.network_traffic_bytes);
    assert!(busy.job_time_s > idle.job_time_s);
}

#[test]
fn saturated_lan_strictly_delays_reduce_completion() {
    // One guaranteed-local map task (free slots everywhere, delay
    // scheduling), so the map phase never touches the fabric; saturating the
    // LAN then delays exactly the shuffle/reduce side of the job.
    let code = CodeKind::TWO_REP.build().unwrap();
    let cluster = Cluster::new(ClusterSpec::simulation_25(4));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let placement = PlacementMap::place(
        code.as_ref(),
        &cluster,
        1,
        PlacementPolicy::Random,
        &mut rng,
    )
    .unwrap();
    let blocks: Vec<_> = placement.data_blocks().into_iter().take(1).collect();
    let job = JobSpec::new("lan-sat", blocks).with_reduce_tasks(8);
    let run_on = |net: &mut ClusterNet| {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        JobRun::new(
            &job,
            code.as_ref(),
            &placement,
            &cluster,
            &DelayScheduler::default(),
        )
        .on(net, SimTime::ZERO)
        .run(&mut rng)
        .unwrap()
    };
    let mut idle_net = ClusterNet::new(cluster.spec());
    let idle = run_on(&mut idle_net);
    assert_eq!(idle.local_map_tasks, 1, "the single task must run local");

    let mut sat_net = ClusterNet::new(cluster.spec());
    let hold = SimTime::ZERO + SimDuration::from_secs_f64(idle.job_time_s + 30.0);
    sat_net.fabric().occupy_until(hold);
    let sat = run_on(&mut sat_net);

    // The map phase is untouched (no remote reads, so no fabric use) …
    assert_eq!(sat.map_phase_s, idle.map_phase_s);
    assert_eq!(sat.local_map_tasks, 1);
    // … while reduce completion is strictly delayed past the hold, with the
    // wait attributed to the saturated fabric.
    assert!(
        sat.timeline.end() > idle.timeline.end(),
        "saturated LAN must delay reduce completion"
    );
    assert!(sat.reduce_phase_s > idle.reduce_phase_s);
    assert!(sat.timeline.end() >= hold);
    assert!(sat.shuffle_contention.fabric_wait_s > 0.0);
    // Bytes are untouched by congestion.
    assert_eq!(sat.network_traffic_bytes, idle.network_traffic_bytes);
    assert_eq!(sat.shuffle_bytes, idle.shuffle_bytes);
}

#[test]
fn a_map_only_job_moves_no_shuffle_bytes() {
    // The engine used to report the closed-form shuffle volume here,
    // 6 442 450 944 B, for a job with no reducer to fetch it.
    let code = CodeKind::Pentagon.build().unwrap();
    let cluster = Cluster::new(ClusterSpec::simulation_25(2));
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let stripes = 50usize.div_ceil(code.data_blocks());
    let placement = PlacementMap::place(
        code.as_ref(),
        &cluster,
        stripes,
        PlacementPolicy::Random,
        &mut rng,
    )
    .unwrap();
    let blocks: Vec<_> = placement.data_blocks().into_iter().take(50).collect();
    let job = JobSpec::new("map-only", blocks).with_reduce_tasks(0);
    let m = JobRun::new(
        &job,
        code.as_ref(),
        &placement,
        &cluster,
        &DelayScheduler::default(),
    )
    .run(&mut rng)
    .unwrap();
    assert_eq!(m.timeline.of(PhaseClass::Shuffle).count(), 0);
    assert_eq!(m.shuffle_bytes, 0);
    assert_eq!(
        m.network_traffic_bytes,
        m.remote_input_bytes + m.degraded_read_bytes
    );
}
