//! MapReduce performance in the presence of node failures (§5 future work),
//! including the effect of partial-parity degraded reads.
//!
//! For each code the experiment runs the Terasort workload on set-up 1 with
//! 0, 1 and 2 failed nodes (transient failures: the data is still on disk but
//! unreachable), and reports locality, degraded-read counts and the extra
//! network traffic incurred. The array codes' partial parities keep the
//! degraded-read traffic low (3 blocks per read for the pentagon versus 9 for
//! a RAID+m-style full decode), which is the effect the paper expects to
//! quantify in its next phase.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use drc_cluster::{sample_nodes, Cluster, ClusterSpec};
use drc_codes::CodeKind;
use drc_mapreduce::{JobRun, SchedulerKind};
use drc_workloads::{provision_workload, WorkloadKind};

use crate::experiments::{harness, Effort, DEFAULT_SEED};
use crate::render::{Row, Table};
use crate::DrcError;

/// Mean measurements for one `(code, failed nodes)` point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradedPoint {
    /// The coding scheme.
    pub code: CodeKind,
    /// Number of simultaneously failed nodes during the job.
    pub failed_nodes: usize,
    /// Mean job time in seconds.
    pub job_time_s: f64,
    /// Mean data locality in percent.
    pub data_locality_percent: f64,
    /// Mean degraded reads per job.
    pub degraded_reads: f64,
    /// Mean network traffic in GiB.
    pub network_traffic_gb: f64,
    /// Fraction of trials where the job could not complete (blocks lost
    /// beyond the code's tolerance — only possible for 2-rep here).
    pub failed_job_fraction: f64,
}

/// Runs the degraded-mode experiment at 75% load on set-up 1 for 2-rep,
/// 3-rep, pentagon and heptagon with 0, 1 and 2 failed nodes, one point
/// per `(code, failed nodes)` in that order. The table prints the load as
/// its configuration and its points under `points`.
///
/// # Errors
///
/// Propagates configuration errors; unreadable blocks (2-rep with both
/// replicas down) are counted as failed jobs rather than returned as errors.
pub fn run_degraded_mr(effort: Effort) -> Result<Table<DegradedPoint>, DrcError> {
    let load = 75.0;
    let trials = (effort.trials() / 3).max(5);
    // One cell per (code, failed-node-count) point; trials stay serial
    // inside the cell so the f64 means accumulate in a fixed order.
    let mut specs: Vec<(CodeKind, usize)> = Vec::new();
    for code_kind in CodeKind::fig4_set() {
        for failed_nodes in [0usize, 1, 2] {
            specs.push((code_kind, failed_nodes));
        }
    }
    let cells = specs
        .into_iter()
        .map(|(code_kind, failed_nodes)| {
            move || degraded_point(code_kind, failed_nodes, load, trials)
        })
        .collect();
    Ok(Table {
        title: format!("Terasort under node failures (set-up 1, {load:.0}% load)"),
        config: vec![("load_percent", load.serialize())],
        rows: harness::run_cells(cells)?,
    })
}

/// Measures one `(code, failed nodes)` point over `trials` private clusters.
fn degraded_point(
    code_kind: CodeKind,
    failed_nodes: usize,
    load: f64,
    trials: usize,
) -> Result<DegradedPoint, DrcError> {
    let scheduler = SchedulerKind::Delay.build();
    let spec = ClusterSpec::setup1();
    let code = code_kind.build()?;
    let mut job_time = 0.0;
    let mut locality = 0.0;
    let mut degraded = 0.0;
    let mut traffic = 0.0;
    let mut failed_jobs = 0usize;
    let mut completed = 0usize;
    for trial in 0..trials {
        let mut cluster = Cluster::new(spec.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(
            DEFAULT_SEED ^ ((trial as u64) << 8) ^ ((failed_nodes as u64) << 40),
        );
        let workload =
            provision_workload(WorkloadKind::Terasort, code_kind, &cluster, load, &mut rng)?;
        // Failures strike after the data was written. The sampled
        // count always equals the request here (`failed_nodes` is
        // far below the cluster size, so the cap never truncates).
        let victims = sample_nodes(&cluster, failed_nodes, &mut rng);
        debug_assert_eq!(victims.len(), failed_nodes);
        for &node in &victims {
            cluster.set_down(node);
        }
        match JobRun::new(
            &workload.job,
            code.as_ref(),
            &workload.placement,
            &cluster,
            scheduler.as_ref(),
        )
        .run(&mut rng)
        {
            Ok(metrics) => {
                completed += 1;
                job_time += metrics.job_time_s;
                locality += metrics.data_locality_percent();
                degraded += metrics.degraded_reads as f64;
                traffic += metrics.network_traffic_gb();
            }
            Err(_) => failed_jobs += 1,
        }
    }
    let n = completed.max(1) as f64;
    Ok(DegradedPoint {
        code: code_kind,
        failed_nodes,
        job_time_s: job_time / n,
        data_locality_percent: locality / n,
        degraded_reads: degraded / n,
        network_traffic_gb: traffic / n,
        failed_job_fraction: failed_jobs as f64 / trials as f64,
    })
}

impl Row for DegradedPoint {
    const HEADER: &'static [&'static str] = &[
        "Code",
        "Failed nodes",
        "Job time (s)",
        "Locality",
        "Degraded reads",
        "Traffic (GB)",
        "Failed jobs",
    ];
    const KEY: &'static str = "points";

    fn cells(&self) -> Vec<String> {
        vec![
            self.code.to_string(),
            self.failed_nodes.to_string(),
            format!("{:.1}", self.job_time_s),
            format!("{:.1}%", self.data_locality_percent),
            format!("{:.2}", self.degraded_reads),
            format!("{:.2}", self.network_traffic_gb),
            format!("{:.0}%", self.failed_job_fraction * 100.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_mode_shape() {
        let report = run_degraded_mr(Effort::Quick).unwrap();
        assert_eq!(report.rows.len(), 4 * 3);
        let p = |code, failed| {
            report
                .rows
                .iter()
                .find(|p| p.code == code && p.failed_nodes == failed)
                .unwrap()
        };

        for code in CodeKind::fig4_set() {
            // No failures -> no degraded reads and no failed jobs.
            assert_eq!(p(code, 0).degraded_reads, 0.0, "{code}");
            assert_eq!(p(code, 0).failed_job_fraction, 0.0, "{code}");
            // Locality does not improve when nodes fail.
            assert!(
                p(code, 2).data_locality_percent <= p(code, 0).data_locality_percent + 1.0,
                "{code}"
            );
            // Traffic does not decrease when nodes fail.
            assert!(
                p(code, 2).network_traffic_gb >= p(code, 0).network_traffic_gb - 0.05,
                "{code}"
            );
        }
        // 3-rep, pentagon and heptagon never lose data with two failures; jobs
        // always complete.
        for code in [CodeKind::THREE_REP, CodeKind::Pentagon, CodeKind::Heptagon] {
            assert_eq!(p(code, 2).failed_job_fraction, 0.0, "{code}");
        }
        assert!(report.to_string().contains("node failures"));
    }
}
