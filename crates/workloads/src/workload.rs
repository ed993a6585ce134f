//! Workload definitions and provisioning.

use rand::Rng;

use drc_cluster::{Cluster, ClusterError, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_mapreduce::JobSpec;

/// The MapReduce workload families used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WorkloadKind {
    /// Terasort: map output equals map input (shuffle ratio 1.0); the job the
    /// paper measures in §4.
    Terasort,
    /// WordCount-like: the map output is a modest fraction of the input.
    WordCount,
    /// Grep-like: almost nothing is shuffled; the job is map-dominated.
    Grep,
}

impl WorkloadKind {
    /// Map output bytes produced per input byte.
    pub fn shuffle_ratio(&self) -> f64 {
        match self {
            WorkloadKind::Terasort => 1.0,
            WorkloadKind::WordCount => 0.3,
            WorkloadKind::Grep => 0.01,
        }
    }

    /// Map CPU seconds per MiB of input.
    pub fn map_cpu_s_per_mb(&self) -> f64 {
        match self {
            WorkloadKind::Terasort => 0.02,
            WorkloadKind::WordCount => 0.05,
            WorkloadKind::Grep => 0.01,
        }
    }

    /// Reduce CPU seconds per MiB of shuffled data.
    pub fn reduce_cpu_s_per_mb(&self) -> f64 {
        match self {
            WorkloadKind::Terasort => 0.03,
            WorkloadKind::WordCount => 0.02,
            WorkloadKind::Grep => 0.01,
        }
    }

    /// All workload kinds.
    pub fn all() -> Vec<WorkloadKind> {
        vec![
            WorkloadKind::Terasort,
            WorkloadKind::WordCount,
            WorkloadKind::Grep,
        ]
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadKind::Terasort => write!(f, "terasort"),
            WorkloadKind::WordCount => write!(f, "wordcount"),
            WorkloadKind::Grep => write!(f, "grep"),
        }
    }
}

/// A workload instantiated against a concrete placement: the job plus the
/// placement its blocks live in.
#[derive(Debug, Clone)]
pub struct ProvisionedWorkload {
    /// The coding scheme protecting the input data.
    pub code: CodeKind,
    /// The workload family.
    pub kind: WorkloadKind,
    /// The placement of the input file's stripes.
    pub placement: PlacementMap,
    /// The job over the placed blocks.
    pub job: JobSpec,
    /// The load percentage this job represents on its cluster.
    pub load_percent: f64,
}

impl ProvisionedWorkload {
    /// Total map input in bytes, given the cluster's block size.
    pub fn input_bytes(&self, block_size_bytes: u64) -> u64 {
        self.job.map_tasks().len() as u64 * block_size_bytes
    }
}

/// Places the input data for a workload of the given load on the cluster and
/// builds the corresponding job.
///
/// The input file occupies exactly as many blocks as the load requires
/// (`load% × total map slots`, the paper's definition), striped with `code`
/// and placed uniformly at random. The number of reduce tasks defaults to the
/// cluster's total reduce slots, as a Terasort configuration typically would.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidPlacement`] when `load_percent` is not a
/// positive finite number, and a placement error when the code's stripe
/// does not fit the cluster (e.g. a (10,9) RAID+m stripe on the 9-node
/// set-up 2).
pub fn provision_workload<R: Rng + ?Sized>(
    kind: WorkloadKind,
    code: CodeKind,
    cluster: &Cluster,
    load_percent: f64,
    rng: &mut R,
) -> Result<ProvisionedWorkload, ClusterError> {
    if !(load_percent.is_finite() && load_percent > 0.0) {
        return Err(ClusterError::InvalidPlacement {
            reason: format!("load must be positive and finite, got {load_percent}"),
        });
    }
    let spec = cluster.spec();
    let tasks = spec.tasks_for_load(load_percent).max(1);
    let built = code.build().map_err(|e| ClusterError::InvalidPlacement {
        reason: e.to_string(),
    })?;
    let stripes = tasks.div_ceil(built.data_blocks());
    let placement = PlacementMap::place(
        built.as_ref(),
        cluster,
        stripes,
        PlacementPolicy::Random,
        rng,
    )?;
    let blocks: Vec<_> = placement.data_blocks().into_iter().take(tasks).collect();
    // The per-kind parameters are compile-time constants and always finite;
    // the validation errors they would raise are unreachable here.
    let job = JobSpec::new(format!("{kind}-{load_percent:.0}pct"), blocks)
        .with_shuffle_ratio(kind.shuffle_ratio())
        .expect("workload shuffle ratios are finite")
        .with_map_cpu_s_per_mb(kind.map_cpu_s_per_mb())
        .expect("workload map CPU costs are finite")
        .with_reduce_cpu_s_per_mb(kind.reduce_cpu_s_per_mb())
        .expect("workload reduce CPU costs are finite")
        .with_reduce_tasks(spec.total_reduce_slots().max(1));
    Ok(ProvisionedWorkload {
        code,
        kind,
        placement,
        job,
        load_percent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drc_cluster::ClusterSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn workload_parameters_are_ordered_sensibly() {
        assert!(WorkloadKind::Terasort.shuffle_ratio() > WorkloadKind::WordCount.shuffle_ratio());
        assert!(WorkloadKind::WordCount.shuffle_ratio() > WorkloadKind::Grep.shuffle_ratio());
        assert_eq!(WorkloadKind::all().len(), 3);
        for kind in WorkloadKind::all() {
            assert!(!kind.to_string().is_empty());
            assert!(kind.map_cpu_s_per_mb() > 0.0);
            assert!(kind.reduce_cpu_s_per_mb() > 0.0);
        }
    }

    #[test]
    fn provisioning_matches_load_definition() {
        let cluster = Cluster::new(ClusterSpec::setup1());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let w = provision_workload(
            WorkloadKind::Terasort,
            CodeKind::Pentagon,
            &cluster,
            75.0,
            &mut rng,
        )
        .unwrap();
        // 75% of 50 slots = 37.5 -> 38 tasks.
        assert_eq!(w.job.map_tasks().len(), 38);
        assert_eq!(w.load_percent, 75.0);
        assert_eq!(w.job.shuffle_ratio(), 1.0);
        assert_eq!(w.job.reduce_tasks(), 25);
        assert_eq!(
            w.input_bytes(cluster.spec().block_size_bytes()),
            38 * 128 * 1024 * 1024
        );
        // Every task's block exists in the placement.
        for task in w.job.map_tasks() {
            assert!(w.placement.locations(task.block).is_ok());
        }
    }

    #[test]
    fn oversized_codes_fail_to_provision_on_small_clusters() {
        // The paper's point about code length: (10,9) RAID+m needs 20 nodes.
        let cluster = Cluster::new(ClusterSpec::setup2());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(provision_workload(
            WorkloadKind::Terasort,
            CodeKind::RAID_M_10_9,
            &cluster,
            50.0,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn non_finite_and_non_positive_loads_are_rejected() {
        // Each of these used to be provisioned silently as a one-task job.
        let cluster = Cluster::new(ClusterSpec::setup1());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for load in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -50.0] {
            let err = provision_workload(
                WorkloadKind::Terasort,
                CodeKind::TWO_REP,
                &cluster,
                load,
                &mut rng,
            )
            .unwrap_err();
            assert!(
                matches!(err, ClusterError::InvalidPlacement { .. }),
                "{load}: {err}"
            );
        }
    }

    #[test]
    fn grep_jobs_barely_shuffle() {
        let cluster = Cluster::new(ClusterSpec::setup2());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let w = provision_workload(
            WorkloadKind::Grep,
            CodeKind::TWO_REP,
            &cluster,
            100.0,
            &mut rng,
        )
        .unwrap();
        assert!(w.job.shuffle_ratio() < 0.05);
        assert_eq!(w.job.map_tasks().len(), 36);
    }
}
