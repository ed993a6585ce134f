//! Fig. 4 benchmark: one simulated Terasort execution on set-up 1 (25 nodes,
//! 2 map slots) per code at 100% load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use drc_core::cluster::{Cluster, ClusterSpec};
use drc_core::codes::CodeKind;
use drc_core::mapreduce::{JobRun, SchedulerKind};
use drc_core::workloads::{provision_workload, WorkloadKind};

fn bench_fig4_jobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_terasort_setup1");
    group.sample_size(20);
    let scheduler = SchedulerKind::Delay.build();

    for kind in CodeKind::fig4_set() {
        let code = kind.build().expect("builds");
        let cluster = Cluster::new(ClusterSpec::setup1());
        let mut rng = ChaCha8Rng::seed_from_u64(0xF164);
        let workload = provision_workload(WorkloadKind::Terasort, kind, &cluster, 100.0, &mut rng)
            .expect("provisions");
        group.bench_with_input(
            BenchmarkId::new("terasort_100pct", kind.to_string()),
            &workload,
            |b, workload| {
                b.iter(|| {
                    let mut rng = ChaCha8Rng::seed_from_u64(1);
                    JobRun::new(
                        &workload.job,
                        code.as_ref(),
                        &workload.placement,
                        &cluster,
                        scheduler.as_ref(),
                    )
                    .run(&mut rng)
                    .expect("runs")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig4_jobs);
criterion_main!(benches);
