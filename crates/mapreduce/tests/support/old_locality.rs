//! The Fig. 3 trial loop `simulate_locality` ran before one placement per
//! trial was shared between schedulers: one scheduler per call, a fresh
//! placement, task list and graph per trial, and the trial's generator
//! handed to the scheduler right after placement. Kept verbatim as a
//! dev-only oracle: `simulate_locality_each` must reproduce every field of
//! its `LocalityResult`, floats by bit pattern, for every scheduler it
//! runs. Nothing here ships; do not optimise it.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use drc_cluster::{Cluster, PlacementMap, PlacementPolicy};
use drc_mapreduce::{
    LocalityConfig, LocalityResult, MapReduceError, MapTask, TaskId, TaskNodeGraph,
};

/// Runs the locality simulation for one `(code, scheduler, load)` point.
pub fn simulate_locality(config: &LocalityConfig) -> Result<LocalityResult, MapReduceError> {
    if config.trials == 0 {
        return Err(MapReduceError::InvalidConfig {
            reason: "at least one trial is required".to_string(),
        });
    }
    // No slot, no assignment: an empty assignment would report 100 %.
    if config.cluster.map_slots_per_node == 0 {
        return Err(MapReduceError::InvalidConfig {
            reason: "map_slots_per_node must be at least 1".to_string(),
        });
    }
    if !(config.load_percent.is_finite() && config.load_percent > 0.0) {
        return Err(MapReduceError::InvalidConfig {
            reason: format!(
                "load must be positive and finite, got {}",
                config.load_percent
            ),
        });
    }
    let cluster = Cluster::new(config.cluster.clone());
    let code = config.code.build().map_err(MapReduceError::Code)?;
    let scheduler = config.scheduler.build();
    let tasks_per_trial = config.cluster.tasks_for_load(config.load_percent).max(1);
    let stripes = tasks_per_trial.div_ceil(code.data_blocks());

    let mut samples = Vec::with_capacity(config.trials);
    // Reused across trials: the task list, the graph and the capacities.
    let mut map_tasks: Vec<MapTask> = Vec::with_capacity(tasks_per_trial);
    let mut graph = TaskNodeGraph::default();
    let mut capacities: Vec<usize> = Vec::new();
    for trial in 0..config.trials {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(trial as u64));
        let placement = PlacementMap::place(
            code.as_ref(),
            &cluster,
            stripes,
            PlacementPolicy::Random,
            &mut rng,
        )
        .map_err(MapReduceError::Cluster)?;
        map_tasks.clear();
        map_tasks.extend(
            placement
                .data_blocks()
                .into_iter()
                .take(tasks_per_trial)
                .enumerate()
                .map(|(i, block)| MapTask {
                    id: TaskId(i),
                    block,
                }),
        );
        graph.rebuild(&map_tasks, &placement, &cluster);
        capacities.clear();
        capacities.resize(graph.nodes().len(), config.cluster.map_slots_per_node);
        let assignment = scheduler.assign(&graph, &capacities, &mut rng);
        debug_assert!(assignment.validate(&graph, &capacities).is_none());
        samples.push(assignment.locality_percent());
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let variance = if samples.len() > 1 {
        samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
    } else {
        0.0
    };
    Ok(LocalityResult {
        code: config.code,
        scheduler: config.scheduler,
        load_percent: config.load_percent,
        map_slots: config.cluster.map_slots_per_node,
        tasks: tasks_per_trial,
        trials: config.trials,
        mean_locality_percent: mean,
        std_dev_percent: variance.sqrt(),
    })
}
