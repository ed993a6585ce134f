//! Fig. 5 benchmark: one simulated Terasort execution on set-up 2 (9 nodes,
//! 4 map slots) per code, across the figure's load range.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use drc_core::cluster::{Cluster, ClusterSpec};
use drc_core::codes::CodeKind;
use drc_core::mapreduce::{JobRun, SchedulerKind};
use drc_core::workloads::{provision_workload, setup2_loads, WorkloadKind};

fn bench_fig5_jobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_terasort_setup2");
    group.sample_size(20);
    let scheduler = SchedulerKind::Delay.build();

    for kind in CodeKind::fig5_set() {
        for load in setup2_loads() {
            let code = kind.build().expect("builds");
            let cluster = Cluster::new(ClusterSpec::setup2());
            let mut rng = ChaCha8Rng::seed_from_u64(0xF165);
            let workload = provision_workload(
                WorkloadKind::Terasort,
                kind,
                &cluster,
                load.percent,
                &mut rng,
            )
            .expect("provisions");
            let label = format!("{kind}/load{load}");
            group.bench_with_input(
                BenchmarkId::new("terasort", label),
                &workload,
                |b, workload| {
                    b.iter(|| {
                        let mut rng = ChaCha8Rng::seed_from_u64(2);
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
    }
    group.finish();
}

criterion_group!(benches, bench_fig5_jobs);
criterion_main!(benches);
