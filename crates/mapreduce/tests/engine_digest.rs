//! The engine's full output, pinned: a `JobRun` on the shape the repo's
//! benchmark sweeps (`datacenter(120)` at 400 % load, delay scheduling) must
//! reproduce, bit for bit, the `JobMetrics` recorded before the scheduling
//! plane went from `BTreeMap<NodeId, _>` to index-addressed `Vec`s.
//!
//! The digest covers every field — the timeline phase by phase and the
//! `shuffle_contention` floats by `to_bits` — so a reordered rng draw, a
//! slot picked differently or a fetch issued in another order all show up
//! here, not three layers up in a `repro` diff.
//!
//! The second half pins the *failure* paths the same way — a mid-map
//! fail-stop under zero and non-zero detection timeouts, rejoins before and
//! exactly at the detection boundary, a rack burst, and a shared substrate
//! at a non-zero start — recorded before the engine's private failure
//! replay was replaced by the one `drc_sim` shares with the file system.

use drc_cluster::{
    Cluster, ClusterSpec, FailureEvent, FailureEventKind, FailureTrace, NodeId, PlacementMap,
    PlacementPolicy, RackId,
};
use drc_codes::CodeKind;
use drc_mapreduce::{DelayScheduler, JobMetrics, JobRun, JobSpec};
use drc_sim::{ClusterNet, SimDuration, SimTime};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(m: &JobMetrics) -> u64 {
    let mut d = Digest::new();
    d.str(&m.job);
    d.str(&m.code);
    d.f64(m.job_time_s);
    d.f64(m.map_phase_s);
    d.f64(m.reduce_phase_s);
    d.u64(m.network_traffic_bytes);
    d.u64(m.remote_input_bytes);
    d.u64(m.degraded_read_bytes);
    d.u64(m.shuffle_bytes);
    d.u64(m.map_tasks as u64);
    d.u64(m.local_map_tasks as u64);
    d.u64(m.degraded_reads as u64);
    d.u64(m.tasks_reexecuted as u64);
    d.u64(m.timeline.phases.len() as u64);
    for phase in &m.timeline.phases {
        d.str(&phase.label.to_string());
        d.u64(phase.start.0);
        d.u64(phase.end.0);
        d.u64(phase.bytes);
    }
    d.f64(m.shuffle_contention.source_nic_wait_s);
    d.f64(m.shuffle_contention.dest_nic_wait_s);
    d.f64(m.shuffle_contention.fabric_wait_s);
    d.0
}

/// One Terasort-shaped job of `code` on `datacenter(120)` at 400 % load.
fn run(code: CodeKind) -> JobMetrics {
    let spec = ClusterSpec::datacenter(120);
    let cluster = Cluster::new(spec.clone());
    let built = code.build().unwrap();
    let tasks = spec.tasks_for_load(400.0);
    let mut rng = ChaCha8Rng::seed_from_u64(0x2014);
    let placement = PlacementMap::place(
        built.as_ref(),
        &cluster,
        tasks.div_ceil(built.data_blocks()),
        PlacementPolicy::Random,
        &mut rng,
    )
    .unwrap();
    let blocks: Vec<_> = placement.data_blocks().into_iter().take(tasks).collect();
    let job = JobSpec::new("terasort-400pct", blocks).with_reduce_tasks(spec.total_reduce_slots());
    JobRun::new(
        &job,
        built.as_ref(),
        &placement,
        &cluster,
        &DelayScheduler::default(),
    )
    .run(&mut rng)
    .unwrap()
}

#[test]
fn datacenter_120_at_400_percent_reproduces_the_recorded_job_metrics() {
    // Recorded at the parent of the dense-layout change (commit ed0854b).
    let recorded: [(CodeKind, u64); 5] = [
        (CodeKind::THREE_REP, 0x74e0_98a0_8799_aa23),
        (CodeKind::TWO_REP, 0xf974_f968_faff_5c52),
        (CodeKind::Pentagon, 0x3576_4119_6c62_5d0b),
        (CodeKind::Heptagon, 0x891f_8834_06cd_dc5e),
        (CodeKind::HeptagonLocal, 0x714b_425f_8aed_a168),
    ];
    for (code, want) in recorded {
        let got = digest(&run(code));
        assert_eq!(got, want, "{code}: got {got:#018x}, recorded {want:#018x}");
    }
}

/// A pentagon job of 54 map tasks on `simulation_25(2)` (50 map slots, so
/// two waves) under `trace` and `timeout_s`, on `net` from `start`.
fn run_failing(
    trace: &FailureTrace,
    timeout_s: f64,
    net: &mut ClusterNet,
    start: SimTime,
) -> JobMetrics {
    let cluster = Cluster::new(ClusterSpec::simulation_25(2));
    let code = CodeKind::Pentagon.build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let placement = PlacementMap::place(
        code.as_ref(),
        &cluster,
        6,
        PlacementPolicy::Random,
        &mut rng,
    )
    .unwrap();
    let job = JobSpec::new("failing", placement.data_blocks()).with_reduce_tasks(8);
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    JobRun::new(
        &job,
        code.as_ref(),
        &placement,
        &cluster,
        &DelayScheduler::default(),
    )
    .on(net, start)
    .failures(trace, SimDuration::from_secs_f64(timeout_s))
    .run(&mut rng)
    .unwrap()
}

#[test]
fn failure_paths_reproduce_the_recorded_job_metrics() {
    let spec = ClusterSpec::simulation_25(2);
    let idle = || ClusterNet::new(&spec);
    let secs = |s: f64| SimTime::ZERO + SimDuration::from_secs_f64(s);
    let victim = NodeId(5);
    let down = |at_s: f64| FailureEvent::at_secs(at_s, FailureEventKind::NodeDown { node: victim });
    let up = |at_s: f64| FailureEvent::at_secs(at_s, FailureEventKind::NodeUp { node: victim });
    // The healthy first wave ends past t = 5 s: a fail-stop at 1 s is
    // mid-map, and a 12 s timeout puts the boundary (13 s) past the wave, so
    // when a lost attempt resolves decides when the next wave starts.
    let healthy = run_failing(&FailureTrace::new(), 3.0, &mut idle(), SimTime::ZERO);
    assert!(healthy.map_phase_s > 10.0 && healthy.tasks_reexecuted == 0);

    // A shared substrate: every NIC busy until t = 30 s, job issued at 5 s.
    let busy = || {
        let net = idle();
        for n in 0..spec.data_nodes {
            net.node(NodeId(n)).nic.occupy_until(secs(30.0));
        }
        net
    };
    let shifted_down = FailureTrace::from_events(vec![down(6.0)]);

    // Recorded at commit 1093746 (the parent of the shared failure replay).
    let recorded: [(&str, JobMetrics, u64); 8] = [
        (
            "mid-map NodeDown, 0 s timeout",
            run_failing(
                &FailureTrace::from_events(vec![down(1.0)]),
                0.0,
                &mut idle(),
                SimTime::ZERO,
            ),
            0xaf84_a929_7ec4_5ece,
        ),
        (
            "mid-map NodeDown, 3 s timeout",
            run_failing(
                &FailureTrace::from_events(vec![down(1.0)]),
                3.0,
                &mut idle(),
                SimTime::ZERO,
            ),
            0x9c8e_5851_b784_8ed5,
        ),
        (
            "NodeUp before the boundary",
            run_failing(
                &FailureTrace::from_events(vec![down(1.0), up(9.0)]),
                12.0,
                &mut idle(),
                SimTime::ZERO,
            ),
            0x590c_c91c_8faf_baa2,
        ),
        (
            "NodeUp exactly at the boundary",
            run_failing(
                &FailureTrace::from_events(vec![down(1.0), up(13.0)]),
                12.0,
                &mut idle(),
                SimTime::ZERO,
            ),
            0x4dc2_625c_fb4d_df9b,
        ),
        (
            "NodeUp after the boundary",
            run_failing(
                &FailureTrace::from_events(vec![down(1.0), up(14.0)]),
                12.0,
                &mut idle(),
                SimTime::ZERO,
            ),
            0x9f85_b388_cce7_96ea,
        ),
        (
            "RackDown, 1 s timeout",
            run_failing(
                &FailureTrace::from_events(vec![FailureEvent::at_secs(
                    1.0,
                    FailureEventKind::RackDown { rack: RackId(1) },
                )]),
                1.0,
                &mut idle(),
                SimTime::ZERO,
            ),
            0x7339_9a79_0928_0345,
        ),
        (
            "shared net, start 5 s, healthy",
            run_failing(&FailureTrace::new(), 3.0, &mut busy(), secs(5.0)),
            0xc163_c043_73f7_7c29,
        ),
        (
            "shared net, start 5 s, NodeDown at 6 s",
            run_failing(&shifted_down, 3.0, &mut busy(), secs(5.0)),
            0x2141_fce1_c766_bd5e,
        ),
    ];
    for (what, metrics, want) in &recorded {
        let got = digest(metrics);
        assert_eq!(got, *want, "{what}: got {got:#018x}, recorded {want:#018x}");
    }
}
