//! The engine's full output, pinned: `run_job` on the shape the repo's
//! benchmark sweeps (`datacenter(120)` at 400 % load, delay scheduling) must
//! reproduce, bit for bit, the `JobMetrics` recorded before the scheduling
//! plane went from `BTreeMap<NodeId, _>` to index-addressed `Vec`s.
//!
//! The digest covers every field — the timeline phase by phase and the
//! `shuffle_contention` floats by `to_bits` — so a reordered rng draw, a
//! slot picked differently or a fetch issued in another order all show up
//! here, not three layers up in a `repro` diff.

use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_mapreduce::{run_job, DelayScheduler, JobMetrics, JobSpec};
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
        d.str(&phase.label);
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
    run_job(
        &job,
        built.as_ref(),
        &placement,
        &cluster,
        &DelayScheduler::default(),
        &mut rng,
    )
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
