//! MapReduce job descriptions.

use drc_cluster::GlobalBlockId;

use crate::MapReduceError;

/// Identifier of a map task within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// One map task: it processes exactly one HDFS data block, as in Hadoop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapTask {
    /// The task's identifier (its index within the job).
    pub id: TaskId,
    /// The data block the task reads.
    pub block: GlobalBlockId,
}

/// A MapReduce job: a set of map tasks over data blocks, plus the parameters
/// that determine shuffle volume and compute time in the execution engine.
///
/// # Example
///
/// ```
/// use drc_cluster::GlobalBlockId;
/// use drc_mapreduce::JobSpec;
///
/// let blocks: Vec<GlobalBlockId> = (0..10)
///     .map(|i| GlobalBlockId::new(i, 0))
///     .collect();
/// let job = JobSpec::new("terasort", blocks)
///     .with_shuffle_ratio(1.0)
///     .expect("finite ratio")
///     .with_reduce_tasks(5);
/// assert_eq!(job.map_tasks().len(), 10);
/// assert_eq!(job.reduce_tasks(), 5);
/// // Non-finite parameters are rejected at construction time.
/// assert!(job.with_shuffle_ratio(f64::NAN).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    name: String,
    map_tasks: Vec<MapTask>,
    /// Map output bytes produced per input byte (1.0 for Terasort).
    shuffle_ratio: f64,
    /// Number of reduce tasks.
    reduce_tasks: usize,
    /// CPU seconds a map task spends per MiB of input (after the read).
    map_cpu_s_per_mb: f64,
    /// CPU seconds a reduce task spends per MiB of shuffled input.
    reduce_cpu_s_per_mb: f64,
    /// Fixed per-task startup overhead in seconds (JVM spawn, heartbeats).
    task_overhead_s: f64,
}

impl JobSpec {
    /// Creates a job with one map task per data block and default Terasort-like
    /// parameters (shuffle ratio 1.0, one reduce task, modest CPU cost).
    pub fn new(name: impl Into<String>, blocks: Vec<GlobalBlockId>) -> Self {
        let map_tasks = blocks
            .into_iter()
            .enumerate()
            .map(|(i, block)| MapTask {
                id: TaskId(i),
                block,
            })
            .collect();
        JobSpec {
            name: name.into(),
            map_tasks,
            shuffle_ratio: 1.0,
            reduce_tasks: 1,
            map_cpu_s_per_mb: 0.02,
            reduce_cpu_s_per_mb: 0.03,
            task_overhead_s: 1.0,
        }
    }

    /// Validates a job parameter: non-finite values (NaN, ±∞) are a
    /// construction error — `NaN.max(0.0)` is `NaN`, so a clamp alone would
    /// let NaN through and poison every downstream duration and byte count.
    /// Finite negatives clamp to zero as before.
    fn finite_param(value: f64, what: &str) -> Result<f64, MapReduceError> {
        if !value.is_finite() {
            return Err(MapReduceError::InvalidConfig {
                reason: format!("{what} must be finite, got {value}"),
            });
        }
        Ok(value.max(0.0))
    }

    /// Sets the map-output-to-input ratio (1.0 for sort-like jobs, near 0 for
    /// grep-like jobs). Finite negatives clamp to 0.
    ///
    /// # Errors
    ///
    /// Returns [`MapReduceError::InvalidConfig`] for NaN or infinite ratios.
    pub fn with_shuffle_ratio(mut self, ratio: f64) -> Result<Self, MapReduceError> {
        self.shuffle_ratio = Self::finite_param(ratio, "shuffle ratio")?;
        Ok(self)
    }

    /// Sets the number of reduce tasks.
    pub fn with_reduce_tasks(mut self, reduces: usize) -> Self {
        self.reduce_tasks = reduces;
        self
    }

    /// Sets the map CPU cost in seconds per MiB of input. Finite negatives
    /// clamp to 0.
    ///
    /// # Errors
    ///
    /// Returns [`MapReduceError::InvalidConfig`] for NaN or infinite costs.
    pub fn with_map_cpu_s_per_mb(mut self, cost: f64) -> Result<Self, MapReduceError> {
        self.map_cpu_s_per_mb = Self::finite_param(cost, "map CPU cost")?;
        Ok(self)
    }

    /// Sets the reduce CPU cost in seconds per MiB of shuffled data. Finite
    /// negatives clamp to 0.
    ///
    /// # Errors
    ///
    /// Returns [`MapReduceError::InvalidConfig`] for NaN or infinite costs.
    pub fn with_reduce_cpu_s_per_mb(mut self, cost: f64) -> Result<Self, MapReduceError> {
        self.reduce_cpu_s_per_mb = Self::finite_param(cost, "reduce CPU cost")?;
        Ok(self)
    }

    /// Sets the fixed per-task overhead in seconds. Finite negatives clamp
    /// to 0.
    ///
    /// # Errors
    ///
    /// Returns [`MapReduceError::InvalidConfig`] for NaN or infinite
    /// overheads.
    pub fn with_task_overhead_s(mut self, overhead: f64) -> Result<Self, MapReduceError> {
        self.task_overhead_s = Self::finite_param(overhead, "task overhead")?;
        Ok(self)
    }

    /// The job's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The map tasks, in id order.
    pub fn map_tasks(&self) -> &[MapTask] {
        &self.map_tasks
    }

    /// Map output bytes per input byte.
    pub fn shuffle_ratio(&self) -> f64 {
        self.shuffle_ratio
    }

    /// Number of reduce tasks.
    pub fn reduce_tasks(&self) -> usize {
        self.reduce_tasks
    }

    /// Map CPU seconds per MiB of input.
    pub fn map_cpu_s_per_mb(&self) -> f64 {
        self.map_cpu_s_per_mb
    }

    /// Reduce CPU seconds per MiB of shuffled input.
    pub fn reduce_cpu_s_per_mb(&self) -> f64 {
        self.reduce_cpu_s_per_mb
    }

    /// Fixed per-task overhead in seconds.
    pub fn task_overhead_s(&self) -> f64 {
        self.task_overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(n: usize) -> Vec<GlobalBlockId> {
        (0..n).map(|i| GlobalBlockId::new(i / 3, i % 3)).collect()
    }

    #[test]
    fn construction_assigns_sequential_task_ids() {
        let job = JobSpec::new("test", blocks(7));
        assert_eq!(job.name(), "test");
        assert_eq!(job.map_tasks().len(), 7);
        for (i, task) in job.map_tasks().iter().enumerate() {
            assert_eq!(task.id, TaskId(i));
        }
    }

    #[test]
    fn builder_setters_clamp_and_apply() {
        let job = JobSpec::new("j", blocks(2))
            .with_shuffle_ratio(-1.0)
            .unwrap()
            .with_reduce_tasks(4)
            .with_map_cpu_s_per_mb(0.5)
            .unwrap()
            .with_reduce_cpu_s_per_mb(0.25)
            .unwrap()
            .with_task_overhead_s(2.0)
            .unwrap();
        assert_eq!(job.shuffle_ratio(), 0.0);
        assert_eq!(job.reduce_tasks(), 4);
        assert_eq!(job.map_cpu_s_per_mb(), 0.5);
        assert_eq!(job.reduce_cpu_s_per_mb(), 0.25);
        assert_eq!(job.task_overhead_s(), 2.0);
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let job = JobSpec::new("j", blocks(1));
            assert!(job.clone().with_shuffle_ratio(bad).is_err(), "{bad}");
            assert!(job.clone().with_map_cpu_s_per_mb(bad).is_err(), "{bad}");
            assert!(job.clone().with_reduce_cpu_s_per_mb(bad).is_err(), "{bad}");
            assert!(job.clone().with_task_overhead_s(bad).is_err(), "{bad}");
        }
        // The error is a constructor-level InvalidConfig, not a panic or a
        // silently-poisoned job.
        let err = JobSpec::new("j", blocks(1))
            .with_shuffle_ratio(f64::NAN)
            .unwrap_err();
        assert!(matches!(err, MapReduceError::InvalidConfig { .. }));
        assert!(err.to_string().contains("shuffle ratio"));
    }

    #[test]
    fn defaults_are_terasort_like() {
        let job = JobSpec::new("sort", blocks(1));
        assert_eq!(job.shuffle_ratio(), 1.0);
        assert_eq!(job.reduce_tasks(), 1);
        assert!(job.task_overhead_s() > 0.0);
    }
}
