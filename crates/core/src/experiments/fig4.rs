//! Fig. 4: Terasort on set-up 1 (25 nodes, 2 map slots) — job time, network
//! traffic and data locality vs load for 3-rep, 2-rep, pentagon and heptagon.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use drc_cluster::{Cluster, ClusterSpec};
use drc_codes::CodeKind;
use drc_mapreduce::{JobRun, SchedulerKind};
use drc_workloads::{provision_workload, setup1_loads, LoadPoint, WorkloadKind};

use crate::experiments::{harness, Effort, DEFAULT_SEED};
use crate::render::{write_rows, Row};
use crate::DrcError;

/// Mean measurements for one `(code, load)` point of a Terasort sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TerasortPoint {
    /// The coding scheme.
    pub code: CodeKind,
    /// Load percentage.
    pub load_percent: f64,
    /// Mean job execution time in seconds.
    pub job_time_s: f64,
    /// Mean network traffic in GiB.
    pub network_traffic_gb: f64,
    /// Mean data locality in percent.
    pub data_locality_percent: f64,
    /// Mean number of degraded reads per job (0 on a healthy cluster).
    pub degraded_reads: f64,
    /// Number of trials averaged.
    pub trials: usize,
}

/// A full Terasort sweep (one figure's worth of curves).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TerasortSweep {
    /// Which cluster set-up was used.
    pub setup: String,
    /// The measured points, ordered by code then load.
    pub points: Vec<TerasortPoint>,
}

/// Runs the Fig. 4 sweep: set-up 1, delay scheduling, Terasort, loads
/// 50–100%, codes 3-rep / 2-rep / pentagon / heptagon.
///
/// # Errors
///
/// Propagates placement or execution errors (none occur for this fixed
/// configuration).
pub fn run_fig4(effort: Effort) -> Result<TerasortSweep, DrcError> {
    run_terasort_sweep(
        "setup1 (25 nodes, 2 map slots)",
        ClusterSpec::setup1(),
        CodeKind::fig4_set(),
        setup1_loads(),
        effort,
    )
}

/// The Terasort sweep behind Fig. 4 and Fig. 5: one point per
/// `(code, load)`, ordered by code then load.
pub fn run_terasort_sweep(
    setup: &str,
    spec: ClusterSpec,
    codes: Vec<CodeKind>,
    loads: Vec<LoadPoint>,
    effort: Effort,
) -> Result<TerasortSweep, DrcError> {
    // Execution-engine trials are costlier than pure locality trials; a
    // fraction of the locality trial count is plenty for stable means.
    let trials = (effort.trials() / 3).max(5);
    // One cell per (code, load) point: each cell runs its own trial loop on
    // private clusters and rngs, so points are fully independent.
    let mut specs: Vec<(CodeKind, f64)> = Vec::new();
    for &code_kind in &codes {
        for load in &loads {
            specs.push((code_kind, load.percent));
        }
    }
    let cells = specs
        .into_iter()
        .map(|(code_kind, load_percent)| {
            let spec = spec.clone();
            move || terasort_point(&spec, code_kind, load_percent, trials)
        })
        .collect::<Vec<_>>();
    Ok(TerasortSweep {
        setup: setup.to_string(),
        points: harness::run_cells(cells)?,
    })
}

/// Measures one `(code, load)` point: `trials` engine runs averaged.
fn terasort_point(
    spec: &ClusterSpec,
    code_kind: CodeKind,
    load_percent: f64,
    trials: usize,
) -> Result<TerasortPoint, DrcError> {
    let scheduler = SchedulerKind::Delay.build();
    let code = code_kind.build()?;
    let mut job_time = 0.0;
    let mut traffic = 0.0;
    let mut locality = 0.0;
    let mut degraded = 0.0;
    for trial in 0..trials {
        let cluster = Cluster::new(spec.clone());
        let mut rng =
            ChaCha8Rng::seed_from_u64(DEFAULT_SEED ^ (trial as u64) << 17 ^ load_percent as u64);
        let workload = provision_workload(
            WorkloadKind::Terasort,
            code_kind,
            &cluster,
            load_percent,
            &mut rng,
        )?;
        let metrics = JobRun::new(
            &workload.job,
            code.as_ref(),
            &workload.placement,
            &cluster,
            scheduler.as_ref(),
        )
        .run(&mut rng)?;
        job_time += metrics.job_time_s;
        traffic += metrics.network_traffic_gb();
        locality += metrics.data_locality_percent();
        degraded += metrics.degraded_reads as f64;
    }
    let n = trials as f64;
    Ok(TerasortPoint {
        code: code_kind,
        load_percent,
        job_time_s: job_time / n,
        network_traffic_gb: traffic / n,
        data_locality_percent: locality / n,
        degraded_reads: degraded / n,
        trials,
    })
}

impl Row for TerasortPoint {
    const HEADER: &'static [&'static str] = &[
        "Code",
        "Load",
        "Job time (s)",
        "Network traffic (GB)",
        "Data locality",
        "Degraded reads",
    ];

    fn cells(&self) -> Vec<String> {
        vec![
            self.code.to_string(),
            format!("{:.0}%", self.load_percent),
            format!("{:.1}", self.job_time_s),
            format!("{:.2}", self.network_traffic_gb),
            format!("{:.1}%", self.data_locality_percent),
            format!("{:.1}", self.degraded_reads),
        ]
    }
}

impl std::fmt::Display for TerasortSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_rows(f, &format!("Terasort on {}", self.setup), &self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_matches_paper() {
        let sweep = run_fig4(Effort::Quick).unwrap();
        // 4 codes x 3 loads.
        assert_eq!(sweep.points.len(), 12);

        let p = |code, load| {
            sweep
                .points
                .iter()
                .find(|p| p.code == code && p.load_percent == load)
                .unwrap()
        };
        // (i) At moderate load 2-rep performs very close to 3-rep.
        let two = p(CodeKind::TWO_REP, 50.0);
        let three = p(CodeKind::THREE_REP, 50.0);
        assert!((two.job_time_s - three.job_time_s).abs() / three.job_time_s < 0.15);
        // (ii) Locality ordering at 100% load: replication > pentagon > heptagon.
        assert!(
            p(CodeKind::TWO_REP, 100.0).data_locality_percent
                > p(CodeKind::Pentagon, 100.0).data_locality_percent
        );
        assert!(
            p(CodeKind::Pentagon, 100.0).data_locality_percent
                > p(CodeKind::Heptagon, 100.0).data_locality_percent
        );
        // (iii) The array codes' extra network traffic reflects lost locality.
        assert!(
            p(CodeKind::Heptagon, 100.0).network_traffic_gb
                > p(CodeKind::TWO_REP, 100.0).network_traffic_gb
        );
        // (iv) With only 2 map slots there is a visible job-time penalty for
        // the heptagon at high load.
        assert!(p(CodeKind::Heptagon, 100.0).job_time_s >= p(CodeKind::TWO_REP, 100.0).job_time_s);
        // Network traffic grows with load for every code.
        for code in CodeKind::fig4_set() {
            assert!(p(code, 100.0).network_traffic_gb > p(code, 50.0).network_traffic_gb);
        }
        // Healthy cluster: no degraded reads anywhere.
        assert!(sweep.points.iter().all(|p| p.degraded_reads == 0.0));
        assert!(sweep.to_string().contains("Terasort"));
    }
}
