//! Live failure traces end-to-end: detection lag × failure arrival rate.
//!
//! The other failure experiments fix the failure pattern up front. This one
//! retires that last static assumption: node fail-stops arrive as a
//! **Poisson process** (the reliability crate's per-node failure rate,
//! accelerated so a second-scale virtual window sees arrivals — the same
//! trick its Monte-Carlo validator uses) *while the job runs*, and the
//! storage layer reacts the way a real deployment would:
//!
//! 1. the same timed [`FailureTrace`] is scheduled into the simulated HDFS
//!    (heartbeats stop → the NameNode declares the nodes dead one detection
//!    timeout later → the auto-repair queue rebuilds their blocks on the
//!    shared `ClusterNet`), and
//! 2. handed to the MapReduce engine (`JobRun::failures`), whose scheduler
//!    keeps assigning onto silently-dead nodes during the blind window,
//!    re-executes the lost attempts after detection, and serves reads of
//!    failed replicas as degraded reads.
//!
//! The sweep crosses detection timeout × arrival rate per code kind. The
//! headline numbers are the job slowdown relative to a failure-free run and
//! the virtual seconds the auto-repair traffic overlapped the job on the
//! shared substrate — the end-to-end cost of a failure that *happens during
//! the job*, which no static scenario can show.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use drc_cluster::{Cluster, FailureEvent, FailureTrace};
use drc_codes::CodeKind;
use drc_hdfs::{DistributedFileSystem, EncodedFile};
use drc_mapreduce::{JobRun, JobSpec, SchedulerKind};
use drc_reliability::ReliabilityParams;
use drc_sim::{overlap, PhaseClass, SimDuration};

use crate::experiments::harness;
use crate::render::{mib, Row, Table};
use crate::DrcError;

/// One `(code, detection timeout, arrival rate)` point of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureTracePoint {
    /// The coding scheme.
    pub code: CodeKind,
    /// Heartbeat detection timeout, in virtual seconds.
    pub detection_timeout_s: f64,
    /// Acceleration factor applied to the reliability model's per-node
    /// failure rate (real MTTFs are years; the virtual window is seconds).
    pub rate_acceleration: f64,
    /// Fail-stops the trace injected inside the job's map window.
    pub failures_injected: usize,
    /// Job time with no failures, in virtual seconds.
    pub baseline_job_s: f64,
    /// Job time under the live trace (with concurrent auto-repair).
    pub traced_job_s: f64,
    /// `traced_job_s / baseline_job_s` — the headline slowdown.
    pub slowdown: f64,
    /// Map attempts lost to fail-stops and executed again.
    pub tasks_reexecuted: usize,
    /// Total blind-window seconds (failure → detection), across nodes.
    pub detection_lag_s: f64,
    /// Auto-repair passes the failure engine executed.
    pub auto_repair_passes: usize,
    /// Network bytes the auto-repairs moved.
    pub repair_network_bytes: u64,
    /// Virtual seconds auto-repair traffic and the job were concurrently in
    /// flight on the shared substrate.
    pub repair_job_overlap_s: f64,
}

/// The failure-free measurement a sweep point is compared against.
#[derive(Clone)]
struct Baseline {
    job_s: f64,
    map_phase_s: f64,
}

/// A stable per-code seed discriminant. An FNV-style fold of the code
/// *name* — name lengths collide ("pentagon" and "heptagon" are both eight
/// bytes), and colliding seeds would make two codes replay the identical
/// failure trace instead of independent draws.
fn code_salt(code: CodeKind) -> u64 {
    code.to_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Runs the trace-driven failure sweep for 2-rep and the three
/// double-replicated array codes.
///
/// Each code writes a ~`target_tasks`-block file of `block_bytes` blocks
/// onto the simulated 25-node cluster, measures the failure-free job once,
/// then sweeps detection timeouts (fractions of the measured map phase) ×
/// accelerated Poisson arrival rates. Failure counts are capped at the
/// code's fault tolerance (at most 2; 1 for 2-rep) so every trace stays
/// survivable — the cap is part of the report (`failures_injected`). One
/// row per sweep point, code by code; the table prints `block_bytes` and
/// `target_tasks` as its configuration.
///
/// # Errors
///
/// [`DrcError::InvalidExperiment`] if `block_bytes` is not a positive whole
/// number of MiB; otherwise propagates file-system and engine errors (none
/// are expected: traces are capped within tolerance).
pub fn run_failure_trace(
    block_bytes: usize,
    target_tasks: usize,
) -> Result<Table<FailureTracePoint>, DrcError> {
    let codes = [
        CodeKind::TWO_REP,
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
    ];
    // Detection timeouts as fractions of the measured failure-free map
    // phase: the short one detects well within the phase, the long one
    // keeps the scheduler blind for most of it.
    let timeout_fracs = [0.1, 1.0];
    // Mean Poisson arrivals inside the map window; the acceleration factor
    // reported per row is whatever it takes to get there from the
    // reliability model's real per-node rate.
    let mean_arrivals = [1.0, 3.0];

    // ~`target_tasks` blocks in whole stripes, per code; every window of
    // both stages ingests its code's one encoded file.
    let stripes_of = |k: usize| target_tasks.div_ceil(k).max(1);
    let files = harness::stripe_files(&codes, block_bytes, stripes_of)?;

    // Stage 1: one failure-free baseline cell per code. The traced points
    // need the measured map-phase length, so this stage joins first.
    let baseline_cells = files
        .iter()
        .map(|file| {
            move || -> Result<Baseline, DrcError> { Ok(run_window(file, target_tasks, None)?.0) }
        })
        .collect();
    let baselines: Vec<Baseline> = harness::run_cells(baseline_cells)?;

    // Stage 2: one traced cell per (code, timeout fraction, arrival rate)
    // point, in the report's fixed row order.
    let mut cells = Vec::new();
    for (file, baseline) in files.iter().zip(baselines) {
        for &frac in &timeout_fracs {
            for &arrivals in &mean_arrivals {
                let baseline = baseline.clone();
                cells.push(move || -> Result<FailureTracePoint, DrcError> {
                    let timeout_s = frac * baseline.map_phase_s;
                    let (_, point) = run_window(
                        file,
                        target_tasks,
                        Some(TracedConfig {
                            baseline: &baseline,
                            timeout_s,
                            mean_arrivals: arrivals,
                            params: &ReliabilityParams::default(),
                        }),
                    )?;
                    Ok(point.expect("traced window yields a point"))
                });
            }
        }
    }
    Ok(Table {
        title: format!(
            "Job slowdown under live failure traces ({target_tasks} tasks, {} MiB blocks)",
            block_bytes / (1024 * 1024)
        ),
        config: vec![
            ("block_bytes", block_bytes.serialize()),
            ("target_tasks", target_tasks.serialize()),
        ],
        rows: harness::run_cells(cells)?,
    })
}

/// What a traced window needs beyond the failure-free setup.
struct TracedConfig<'a> {
    baseline: &'a Baseline,
    timeout_s: f64,
    mean_arrivals: f64,
    params: &'a ReliabilityParams,
}

/// Executes one write → (trace? + job) window. Without a config this is the
/// failure-free baseline; with one, the Poisson trace drives the file
/// system's detection/auto-repair engine *and* the job's mid-run failure
/// handling on the same shared `ClusterNet`.
fn run_window(
    file: &EncodedFile,
    target_tasks: usize,
    traced: Option<TracedConfig<'_>>,
) -> Result<(Baseline, Option<FailureTracePoint>), DrcError> {
    let code = file.code();
    let spec = harness::byte_cluster_spec(file.block_size())?;
    let mut fs = DistributedFileSystem::new(spec, 0xFA11 ^ code_salt(code));

    let built = code.build()?;
    let id = fs.write_encoded("/failure-trace", file)?;
    fs.sync();
    let meta = fs.namenode().file(id)?.clone();
    let cluster = Cluster::new(fs.cluster().spec().clone());
    let start = fs.now();

    // The same job shape as the shuffle-contention experiment: short task
    // overhead and map CPU, a quarter of the file's blocks, one reducer per
    // node.
    let job_blocks: Vec<_> = meta
        .placement
        .data_blocks()
        .into_iter()
        .take((target_tasks / 4).max(8))
        .collect();
    let job = JobSpec::new("failure-trace", job_blocks)
        .with_task_overhead_s(0.01)?
        .with_map_cpu_s_per_mb(0.005)?
        .with_reduce_tasks(cluster.up_nodes().len());
    let scheduler = SchedulerKind::Delay.build();

    // Build (and schedule) the trace when this is a traced window.
    let (trace, timeout, config) = match &traced {
        Some(config) => {
            // Arrivals land inside the job's (baseline) map window, which
            // starts at `start`: generate on a zero-based horizon, then
            // shift.
            let horizon_s = config.baseline.map_phase_s;
            let rate_per_hour = config.mean_arrivals / horizon_s * 3600.0 / cluster.len() as f64;
            let acceleration = rate_per_hour / config.params.failure_rate_per_hour();
            let max_failures = built.fault_tolerance().min(2);
            // The seed mixes the code and the arrival rate but NOT the
            // detection timeout: every timeout point of one (code, rate)
            // pair replays the *same* trace, so the sweep isolates the
            // effect of the blind window. The sample is conditioned on at
            // least one arrival (an empty trace measures nothing) by
            // deterministically re-drawing with a salted seed.
            let base_seed = 0x7AACE ^ code_salt(code) ^ ((config.mean_arrivals as u64) << 16);
            let mut zero_based = FailureTrace::new();
            for salt in 0..64u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(base_seed ^ (salt << 32));
                zero_based = FailureTrace::poisson(
                    &cluster,
                    rate_per_hour,
                    horizon_s,
                    max_failures,
                    &mut rng,
                );
                if !zero_based.is_empty() {
                    break;
                }
            }
            let trace = FailureTrace::from_events(
                zero_based
                    .events()
                    .iter()
                    .map(|e| FailureEvent::at_ns(e.at_ns.saturating_add(start.0), e.kind))
                    .collect(),
            );
            let timeout = SimDuration::from_secs_f64(config.timeout_s);
            fs.set_detection_timeout(timeout);
            fs.schedule_trace(&trace);
            (trace, timeout, Some((acceleration, config.timeout_s)))
        }
        None => (FailureTrace::new(), SimDuration::ZERO, None),
    };

    // Drive the storage layer first (failures, detection, auto-repair on
    // the shared net), then issue the job into the same virtual window —
    // the repair-first ordering the contention experiments use.
    let failures_injected = trace.nodes_taken_down(&cluster).len();
    let repair_reports = fs.process_all_events()?;
    let metrics = JobRun::new(
        &job,
        built.as_ref(),
        &meta.placement,
        &cluster,
        scheduler.as_ref(),
    )
    .on(fs.cluster_net(), start)
    .failures(&trace, timeout)
    .run(&mut ChaCha8Rng::seed_from_u64(0x5EED ^ code_salt(code)))?;

    let baseline = Baseline {
        job_s: metrics.job_time_s,
        map_phase_s: metrics.map_phase_s,
    };
    let point = config.map(|(acceleration, timeout_s)| {
        FailureTracePoint {
            code,
            detection_timeout_s: timeout_s,
            rate_acceleration: acceleration,
            failures_injected,
            baseline_job_s: traced
                .as_ref()
                .expect("config implies traced")
                .baseline
                .job_s,
            traced_job_s: metrics.job_time_s,
            slowdown: metrics.job_time_s
                / traced
                    .as_ref()
                    .expect("config implies traced")
                    .baseline
                    .job_s,
            tasks_reexecuted: metrics.tasks_reexecuted,
            detection_lag_s: fs
                .timeline()
                .of(PhaseClass::DetectionLag)
                .map(|p| p.duration().as_secs_f64())
                .sum(),
            auto_repair_passes: repair_reports.len(),
            repair_network_bytes: repair_reports.iter().map(|r| r.network_bytes).sum(),
            // The storage and job timelines share the virtual epoch: how
            // long the auto-repair traffic overlapped any phase of the job.
            repair_job_overlap_s: overlap(
                fs.timeline().of(PhaseClass::Repair),
                &metrics.timeline.phases,
            )
            .as_secs_f64(),
        }
    });
    Ok((baseline, point))
}

impl Row for FailureTracePoint {
    const HEADER: &'static [&'static str] = &[
        "Code",
        "Detect (s)",
        "Accel",
        "Failures",
        "Baseline (s)",
        "Traced (s)",
        "Slowdown",
        "Re-exec",
        "Lag (s)",
        "Repair (MiB)",
        "Repair∩job (s)",
    ];

    fn cells(&self) -> Vec<String> {
        vec![
            self.code.to_string(),
            format!("{:.3}", self.detection_timeout_s),
            format!("{:.1e}", self.rate_acceleration),
            self.failures_injected.to_string(),
            format!("{:.3}", self.baseline_job_s),
            format!("{:.3}", self.traced_job_s),
            format!("{:.2}x", self.slowdown),
            self.tasks_reexecuted.to_string(),
            format!("{:.3}", self.detection_lag_s),
            mib(self.repair_network_bytes),
            format!("{:.3}", self.repair_job_overlap_s),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_traces_slow_the_job_and_repair_overlaps_it() {
        let report = run_failure_trace(1024 * 1024, 60).unwrap();
        eprintln!("{report}");
        // 4 codes x 2 timeouts x 2 rates.
        assert_eq!(report.rows.len(), 16);
        for row in &report.rows {
            assert!(row.baseline_job_s > 0.0, "{}", row.code);
            // Failure handling never meaningfully speeds the job up (a
            // sub-percent wobble from shifted reducer placement is noise,
            // not signal).
            assert!(
                row.slowdown > 0.99,
                "{}: failures must not speed the job up (baseline {:.3}s, traced {:.3}s)",
                row.code,
                row.baseline_job_s,
                row.traced_job_s
            );
            assert!(
                row.failures_injected >= 1,
                "{}: the accelerated rate must inject",
                row.code
            );
            // Every injected failure is eventually detected (a pass runs
            // even when the victim hosted no blocks of this file) and the
            // blind window is on the record.
            assert!(row.auto_repair_passes >= 1, "{}", row.code);
            assert!(row.detection_lag_s > 0.0, "{}", row.code);
        }
        // Per code: some point must show real repair traffic overlapping
        // the job on the shared substrate.
        for code in [
            CodeKind::TWO_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
            CodeKind::HeptagonLocal,
        ] {
            let per_code: Vec<&FailureTracePoint> =
                report.rows.iter().filter(|r| r.code == code).collect();
            assert!(
                per_code.iter().any(|r| r.repair_network_bytes > 0),
                "{code}: some victim must host blocks and trigger repair traffic"
            );
            assert!(
                per_code.iter().any(|r| r.repair_job_overlap_s > 0.0),
                "{code}: auto-repair must overlap the job somewhere"
            );
        }
        // The acceptance headline: detection-lag-dependent slowdown with
        // auto-repair traffic overlapping the job on the shared substrate.
        assert!(report.rows.iter().any(|r| r.slowdown > 1.0));
        // Slowdown is detection-lag-dependent: for each (code, rate), the
        // long-timeout run is at least as slow as the short one, and
        // strictly slower somewhere.
        let mut strictly = 0usize;
        for code in [
            CodeKind::TWO_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
            CodeKind::HeptagonLocal,
        ] {
            let per_code: Vec<&FailureTracePoint> =
                report.rows.iter().filter(|r| r.code == code).collect();
            for rate_idx in 0..2 {
                let short = per_code[rate_idx];
                let long = per_code[2 + rate_idx];
                assert!(short.detection_timeout_s < long.detection_timeout_s);
                assert!(
                    long.slowdown >= short.slowdown - 1e-9,
                    "{code}: longer blind windows must not speed the job up"
                );
                if long.slowdown > short.slowdown + 1e-9 {
                    strictly += 1;
                }
            }
        }
        assert!(strictly > 0, "some point must show strict lag dependence");
        let text = report.to_string();
        assert!(text.contains("Slowdown"));
        // Rows come code by code, four sweep points each.
        assert_eq!(report.rows[4].code, CodeKind::Pentagon);
    }
}
