//! Scheduler micro-benchmarks: delay scheduling vs maximum matching vs
//! peeling on identical task–node graphs (the §3.2 comment that maximum
//! matching is "computationally intensive" compared with delay scheduling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use drc_core::cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
use drc_core::codes::CodeKind;
use drc_core::mapreduce::{MapTask, SchedulerKind, TaskId, TaskNodeGraph};

/// The scheduling input of a job's first wave: the map tasks of a random
/// placement sized for `load` percent of the cluster's slots, every slot
/// free. Above 100 % the scheduler fills the slots and leaves the rest.
fn build_graph(code: CodeKind, spec: ClusterSpec, load: f64) -> (TaskNodeGraph, Vec<usize>) {
    let mu = spec.map_slots_per_node;
    let cluster = Cluster::new(spec);
    let built = code.build().expect("builds");
    let tasks = cluster.spec().tasks_for_load(load);
    let stripes = tasks.div_ceil(built.data_blocks());
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let placement = PlacementMap::place(
        built.as_ref(),
        &cluster,
        stripes,
        PlacementPolicy::Random,
        &mut rng,
    )
    .expect("places");
    let map_tasks: Vec<MapTask> = placement
        .data_blocks()
        .into_iter()
        .take(tasks)
        .enumerate()
        .map(|(i, block)| MapTask {
            id: TaskId(i),
            block,
        })
        .collect();
    let graph = TaskNodeGraph::build(&map_tasks, &placement, &cluster);
    let caps = vec![mu; graph.nodes().len()];
    (graph, caps)
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedulers");
    group.sample_size(30);
    // A 100-node cluster at full load stresses the assignment algorithms;
    // `datacenter(120)` at 400 % is the shape the repo's benchmark sweeps
    // (`mr_sweep`): four times more tasks than slots, so every heartbeat
    // sweep runs against full local-task lists.
    for (label, spec, load) in [
        ("25_nodes", ClusterSpec::custom(25, 3, 4), 100.0),
        ("100_nodes", ClusterSpec::custom(100, 3, 4), 100.0),
        ("120_nodes_400pct", ClusterSpec::datacenter(120), 400.0),
    ] {
        let (graph, caps) = build_graph(CodeKind::Heptagon, spec, load);
        for kind in SchedulerKind::all() {
            let scheduler = kind.build();
            group.bench_function(BenchmarkId::new(kind.to_string(), label), |b| {
                b.iter(|| {
                    let mut rng = ChaCha8Rng::seed_from_u64(3);
                    scheduler.assign(&graph, &caps, &mut rng)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
