//! The data-locality simulation of §3.2 (Fig. 3).
//!
//! For a given code, scheduler, cluster and *load* (map tasks as a percentage
//! of the cluster's total map slots), the simulation repeatedly:
//!
//! 1. places enough stripes of the code on the cluster to provide one data
//!    block per map task,
//! 2. builds the task–node bipartite graph,
//! 3. runs each scheduler under comparison against the per-node slot
//!    capacities, each on its own copy of the trial's generator as it
//!    stands right after placement — except maximum matching, which
//!    draws nothing and whose locality is the size of its matching: it is
//!    counted ([`MaxMatchingScheduler::max_local`]) rather than
//!    assigned — and
//! 4. records, per scheduler, the percentage of tasks that ended up on a
//!    node holding their block.
//!
//! Averaging over many random placements gives the curves of Fig. 3.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use drc_cluster::{Cluster, ClusterSpec, GlobalBlockId, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;

use crate::assignment::locality_percent;
use crate::graph::TaskNodeGraph;
use crate::job::{MapTask, TaskId};
use crate::scheduler::{MaxMatchingScheduler, SchedulerKind};
use crate::MapReduceError;

/// The most trials one point runs: far past any figure's effort, and a
/// bound on what the per-scheduler sample vectors are sized to.
const MAX_TRIALS: usize = 1 << 20;

/// Configuration of one locality-simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityConfig {
    /// The coding scheme under test.
    pub code: CodeKind,
    /// The task scheduler under test.
    pub scheduler: SchedulerKind,
    /// The cluster (node count and map slots per node).
    pub cluster: ClusterSpec,
    /// Load: map tasks as a percentage of total map slots (§3.2).
    pub load_percent: f64,
    /// Number of independent random placements to average over: from 1
    /// to 2^20 (1 048 576).
    pub trials: usize,
    /// Base RNG seed; trial `i` uses `seed + i`.
    pub seed: u64,
}

impl LocalityConfig {
    /// A convenient starting point: the paper's 25-node simulation cluster
    /// with the given map slots per node, 200 trials.
    pub fn new(
        code: CodeKind,
        scheduler: SchedulerKind,
        map_slots: usize,
        load_percent: f64,
    ) -> Self {
        LocalityConfig {
            code,
            scheduler,
            cluster: ClusterSpec::simulation_25(map_slots),
            load_percent,
            trials: 200,
            seed: 0xD0C5,
        }
    }

    /// Overrides the number of trials.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The outcome of a locality simulation point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LocalityResult {
    /// The configuration's code.
    pub code: CodeKind,
    /// The configuration's scheduler.
    pub scheduler: SchedulerKind,
    /// The simulated load percentage.
    pub load_percent: f64,
    /// Map slots per node.
    pub map_slots: usize,
    /// Number of map tasks per trial.
    pub tasks: usize,
    /// Number of trials.
    pub trials: usize,
    /// Mean data locality over the trials, in percent.
    pub mean_locality_percent: f64,
    /// Sample standard deviation of the per-trial locality, in percent.
    pub std_dev_percent: f64,
}

/// Runs the locality simulation for one `(code, scheduler, load)` point:
/// [`simulate_locality_each`] with `config.scheduler` as the only scheduler.
///
/// # Errors
///
/// Returns [`MapReduceError::InvalidConfig`] if the trial count is zero or
/// above 2^20, the map slots per node is zero or the load is not a positive
/// finite number (and, from [`simulate_locality_each`], if no scheduler is
/// listed), or a
/// placement error if the code does not fit the cluster or the load asks
/// for more stripes than a placement can index.
pub fn simulate_locality(config: &LocalityConfig) -> Result<LocalityResult, MapReduceError> {
    // One scheduler in, one result out.
    simulate_locality_each(config, &[config.scheduler]).map(|mut results| results.swap_remove(0))
}

/// Runs the locality simulation for one `(code, load)` point under each of
/// `schedulers`, returning one result per entry, in order.
///
/// Every field of `config` is read except `scheduler`. Each trial places
/// its stripes and builds its graph once; every scheduler then runs on a
/// clone of the trial's generator taken right after placement, so each
/// result is exactly the one [`simulate_locality`] returns for that
/// scheduler alone. Maximum matching's sample is a count
/// ([`MaxMatchingScheduler::max_local`]), not an assignment: the size of
/// the same search its `assign` builds from.
///
/// # Errors
///
/// As [`simulate_locality`].
pub fn simulate_locality_each(
    config: &LocalityConfig,
    schedulers: &[SchedulerKind],
) -> Result<Vec<LocalityResult>, MapReduceError> {
    // Checked before anything is sized from the trial count.
    if !(1..=MAX_TRIALS).contains(&config.trials) {
        return Err(MapReduceError::InvalidConfig {
            reason: format!("{} trials, expected 1 to {MAX_TRIALS}", config.trials),
        });
    }
    // Nothing to sample: every trial would be placed for nothing.
    if schedulers.is_empty() {
        return Err(MapReduceError::InvalidConfig {
            reason: "no scheduler to simulate".to_string(),
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
    let built: Vec<_> = schedulers.iter().map(SchedulerKind::build).collect();
    let tasks_per_trial = config.cluster.tasks_for_load(config.load_percent).max(1);
    let k = code.data_blocks();
    let stripes = tasks_per_trial.div_ceil(k);

    let mut samples: Vec<Vec<f64>> = schedulers
        .iter()
        .map(|_| Vec::with_capacity(config.trials))
        .collect();
    // Shared by every trial: task `i` reads data block `i % k` of stripe
    // `i / k`. Built after the first placement, which is what rejects a
    // load too large to index, so nothing is sized from it before.
    let mut map_tasks: Vec<MapTask> = Vec::new();
    // Reused across trials: the graph and the capacities.
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
        if trial == 0 {
            map_tasks.extend((0..tasks_per_trial).map(|i| MapTask {
                id: TaskId(i),
                block: GlobalBlockId::new(i / k, i % k),
            }));
        }
        graph.rebuild(&map_tasks, &placement, &cluster);
        capacities.clear();
        capacities.resize(graph.nodes().len(), config.cluster.map_slots_per_node);
        for ((kind, scheduler), samples) in schedulers.iter().zip(&built).zip(&mut samples) {
            let sample = if *kind == SchedulerKind::MaxMatching {
                let local = MaxMatchingScheduler::max_local(&graph, &capacities);
                let assigned = graph.task_count().min(capacities.iter().sum());
                locality_percent(local, assigned)
            } else {
                let assignment = scheduler.assign(&graph, &capacities, &mut rng.clone());
                debug_assert!(assignment.validate(&graph, &capacities).is_none());
                assignment.locality_percent()
            };
            samples.push(sample);
        }
    }
    Ok(schedulers
        .iter()
        .zip(samples)
        .map(|(&scheduler, samples)| {
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let variance = if samples.len() > 1 {
                samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
            } else {
                0.0
            };
            LocalityResult {
                code: config.code,
                scheduler,
                load_percent: config.load_percent,
                map_slots: config.cluster.map_slots_per_node,
                tasks: tasks_per_trial,
                trials: config.trials,
                mean_locality_percent: mean,
                std_dev_percent: variance.sqrt(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(code: CodeKind, scheduler: SchedulerKind, mu: usize, load: f64) -> LocalityResult {
        simulate_locality(
            &LocalityConfig::new(code, scheduler, mu, load)
                .with_trials(40)
                .with_seed(99),
        )
        .unwrap()
    }

    #[test]
    fn invalid_configs_rejected() {
        let point = |load| LocalityConfig::new(CodeKind::TWO_REP, SchedulerKind::Delay, 2, load);
        // `usize::MAX` used to panic with "capacity overflow" sizing the
        // samples.
        let trials = [0, MAX_TRIALS + 1, usize::MAX].map(|t| point(50.0).with_trials(t));
        // NaN used to pass a `<= 0.0` guard and run as a one-task trial.
        let loads = [0.0, -25.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(point);
        // No map slot: nothing can be assigned, and an empty assignment
        // used to report 100 % locality.
        let slots = SchedulerKind::all()
            .into_iter()
            .map(|scheduler| LocalityConfig::new(CodeKind::Pentagon, scheduler, 0, 100.0));
        for bad in trials.into_iter().chain(loads).chain(slots) {
            let result = simulate_locality(&bad);
            assert!(
                matches!(result, Err(MapReduceError::InvalidConfig { .. })),
                "{bad:?}"
            );
        }
        // No scheduler: every trial used to be placed and graphed, only to
        // return no result.
        assert!(matches!(
            simulate_locality_each(&point(50.0), &[]),
            Err(MapReduceError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn loads_too_large_to_place_are_errors_not_panics() {
        // A finite load too large to place used to size the task list
        // before the placement could reject its stripe count: `f64::MAX`
        // panicked with "capacity overflow".
        use drc_cluster::ClusterError;
        let schedulers = SchedulerKind::all();
        for load in [f64::MAX, 1e30] {
            for &scheduler in &schedulers {
                let config = LocalityConfig::new(CodeKind::Pentagon, scheduler, 2, load);
                assert!(
                    matches!(
                        simulate_locality(&config),
                        Err(MapReduceError::Cluster(
                            ClusterError::InvalidPlacement { .. }
                        ))
                    ),
                    "{scheduler} at {load}"
                );
            }
            let config = LocalityConfig::new(CodeKind::Pentagon, SchedulerKind::Delay, 2, load);
            assert!(
                simulate_locality_each(&config, &schedulers).is_err(),
                "{load}"
            );
        }
    }

    #[test]
    fn locality_decreases_with_load_for_pentagon_delay() {
        // The qualitative shape of Fig. 3: locality falls as load rises.
        let low = point(CodeKind::Pentagon, SchedulerKind::Delay, 2, 25.0);
        let high = point(CodeKind::Pentagon, SchedulerKind::Delay, 2, 100.0);
        assert!(low.mean_locality_percent >= high.mean_locality_percent);
        assert!(high.mean_locality_percent < 95.0);
    }

    #[test]
    fn two_rep_beats_pentagon_beats_heptagon_at_two_slots() {
        // Fig. 3 (mu = 2): the array codes lose significant locality relative
        // to plain double replication, and the heptagon (6 blocks per node)
        // suffers more than the pentagon (4 blocks per node).
        let two_rep = point(CodeKind::TWO_REP, SchedulerKind::Delay, 2, 100.0);
        let pentagon = point(CodeKind::Pentagon, SchedulerKind::Delay, 2, 100.0);
        let heptagon = point(CodeKind::Heptagon, SchedulerKind::Delay, 2, 100.0);
        assert!(two_rep.mean_locality_percent > pentagon.mean_locality_percent);
        assert!(pentagon.mean_locality_percent > heptagon.mean_locality_percent);
    }

    #[test]
    fn more_map_slots_recover_locality() {
        // Fig. 3: "the loss in locality decreases with increasing number of
        // map slots per node"; at mu = 8 both codes exceed 90% at full load.
        let mu2 = point(CodeKind::Pentagon, SchedulerKind::Delay, 2, 100.0);
        let mu8 = point(CodeKind::Pentagon, SchedulerKind::Delay, 8, 100.0);
        assert!(mu8.mean_locality_percent > mu2.mean_locality_percent);
        assert!(mu8.mean_locality_percent > 85.0);
        let hept8 = point(CodeKind::Heptagon, SchedulerKind::Delay, 8, 100.0);
        let hept2 = point(CodeKind::Heptagon, SchedulerKind::Delay, 2, 100.0);
        assert!(hept8.mean_locality_percent > hept2.mean_locality_percent);
        assert!(hept8.mean_locality_percent > 80.0);
        // The optimal (max-matching) assignment exceeds 90% for both codes,
        // the paper's headline number for mu = 8.
        let pent8_mm = point(CodeKind::Pentagon, SchedulerKind::MaxMatching, 8, 100.0);
        let hept8_mm = point(CodeKind::Heptagon, SchedulerKind::MaxMatching, 8, 100.0);
        assert!(pent8_mm.mean_locality_percent > 90.0);
        assert!(hept8_mm.mean_locality_percent > 90.0);
    }

    #[test]
    fn max_matching_dominates_delay_scheduling() {
        for code in [CodeKind::Pentagon, CodeKind::Heptagon] {
            let mm = point(code, SchedulerKind::MaxMatching, 4, 100.0);
            let ds = point(code, SchedulerKind::Delay, 4, 100.0);
            assert!(
                mm.mean_locality_percent >= ds.mean_locality_percent - 0.5,
                "{code}: mm {} < ds {}",
                mm.mean_locality_percent,
                ds.mean_locality_percent
            );
        }
    }

    #[test]
    fn result_metadata_is_populated() {
        let r = point(CodeKind::TWO_REP, SchedulerKind::Peeling, 4, 75.0);
        assert_eq!(r.map_slots, 4);
        assert_eq!(r.tasks, 75);
        assert_eq!(r.trials, 40);
        assert!(r.mean_locality_percent > 0.0 && r.mean_locality_percent <= 100.0);
        assert!(r.std_dev_percent >= 0.0);
    }
}
