//! Shuffle / repair contention on the shared cluster substrate.
//!
//! The paper's headline claim is that codes with inherent double replication
//! win precisely when repair traffic, degraded reads and MapReduce execution
//! contend for the same disks and links. With the shuffle now event-driven,
//! that contention is measurable end-to-end: this experiment writes a real
//! file per code, permanently fails the replicas of one data block, and runs
//! the same Terasort-like job twice on the file system's own
//! [`drc_sim::ClusterNet`] —
//!
//! * **solo**: the job runs alone (the failed block is served by a degraded
//!   read for the ft≥2 array codes, or by 2-rep's surviving replica, but no
//!   repair traffic competes), and
//! * **contended**: the RaidNode repair pass is issued at the same virtual
//!   instant, so its helper reads and replacement writes reserve the same
//!   NICs, disks and LAN fabric the job's map waves and shuffle fetches
//!   need.
//!
//! Byte accounting is identical in both runs (asserted); only the time axis
//! moves. The report shows the per-code job slowdown, the per-link seconds
//! the shuffle spent queueing, and how long the shuffle and the repair were
//! concurrently in flight.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use drc_cluster::{Cluster, NodeId};
use drc_codes::CodeKind;
use drc_hdfs::{DistributedFileSystem, EncodedFile};
use drc_mapreduce::{JobRun, JobSpec, LinkContention, SchedulerKind};
use drc_sim::{overlap, PhaseClass};

use crate::experiments::harness;
use crate::render::{Row, Table};
use crate::DrcError;

/// Contention measurements for one code.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShuffleContentionRow {
    /// The coding scheme.
    pub code: CodeKind,
    /// Nodes failed (and repaired in the contended run).
    pub failed_nodes: usize,
    /// Job time with no concurrent repair, in virtual seconds.
    pub solo_job_s: f64,
    /// Job time with the repair pass issued at the same instant.
    pub contended_job_s: f64,
    /// `contended_job_s / solo_job_s` — the headline slowdown.
    pub slowdown: f64,
    /// Per-link seconds the contended run's shuffle fetches spent queueing.
    pub contention: LinkContention,
    /// Total per-link wait of the solo run (the shuffle's self-contention).
    pub solo_contention_s: f64,
    /// Virtual seconds the repair pass was in flight.
    pub repair_s: f64,
    /// Virtual seconds shuffle fetches and repair were both in flight.
    pub shuffle_repair_overlap_s: f64,
    /// The job's network traffic — byte-identical in both runs.
    pub network_traffic_bytes: u64,
}

/// One measured execution window.
struct Window {
    job_s: f64,
    contention: LinkContention,
    repair_s: f64,
    overlap_s: f64,
    network_traffic_bytes: u64,
}

/// Runs the shuffle-contention experiment for 2-rep and the three
/// double-replicated array codes.
///
/// Each code writes a file of ~`target_tasks` blocks of `block_bytes` onto a
/// simulated 25-node cluster, loses every replica the code can tolerate of
/// data block 0 of stripe 0, and executes the job with and without a
/// concurrent RaidNode repair pass on the same [`drc_sim::ClusterNet`].
/// One row per code; the table prints `block_bytes` and `target_tasks` as
/// its configuration.
///
/// # Errors
///
/// [`DrcError::InvalidExperiment`] if `block_bytes` is not a positive whole
/// number of MiB; otherwise propagates file-system and execution errors
/// (none are expected for these codes, whose failures stay within
/// tolerance).
pub fn run_shuffle_contention(
    block_bytes: usize,
    target_tasks: usize,
) -> Result<Table<ShuffleContentionRow>, DrcError> {
    let codes = [
        CodeKind::TWO_REP,
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
    ];
    // ~`target_tasks` blocks in whole stripes, per code.
    let stripes_of = |k: usize| target_tasks.div_ceil(k).max(1);
    let files = harness::stripe_files(&codes, block_bytes, stripes_of)?;
    // One cell per code; the solo baseline and the contended run share a
    // cell because the row compares them.
    let cells = files
        .iter()
        .map(|file| move || contention_row(file, target_tasks))
        .collect();
    Ok(Table {
        title: format!(
            "Job slowdown under concurrent repair ({target_tasks} tasks, {} MiB blocks)",
            block_bytes / (1024 * 1024)
        ),
        config: vec![
            ("block_bytes", block_bytes.serialize()),
            ("target_tasks", target_tasks.serialize()),
        ],
        rows: harness::run_cells(cells)?,
    })
}

/// Measures one code's solo and contended windows and builds its row.
fn contention_row(
    file: &EncodedFile,
    target_tasks: usize,
) -> Result<ShuffleContentionRow, DrcError> {
    let code = file.code();
    let failed = code.build()?.fault_tolerance().min(2);
    let solo = run_window(file, target_tasks, failed, false)?;
    let contended = run_window(file, target_tasks, failed, true)?;
    // The headline slowdown is only meaningful if contention moved the
    // time axis and nothing else — enforce the byte identity in every
    // build, including the release runs that publish the number.
    if solo.network_traffic_bytes != contended.network_traffic_bytes {
        return Err(DrcError::InvalidExperiment {
            reason: format!(
                "{code}: contention changed byte accounting \
                 (solo {} vs contended {} bytes)",
                solo.network_traffic_bytes, contended.network_traffic_bytes
            ),
        });
    }
    Ok(ShuffleContentionRow {
        code,
        failed_nodes: failed,
        solo_job_s: solo.job_s,
        contended_job_s: contended.job_s,
        slowdown: contended.job_s / solo.job_s,
        contention: contended.contention,
        solo_contention_s: solo.contention.total_s(),
        repair_s: contended.repair_s,
        shuffle_repair_overlap_s: contended.overlap_s,
        network_traffic_bytes: contended.network_traffic_bytes,
    })
}

/// Executes one write → failure → (repair? + job) window and measures the
/// job. The repair pass, when present, is issued *first* at the shared
/// virtual instant, so the job's map-wave traffic and shuffle fetches queue
/// behind the reconstruction traffic on the shared links — the contended
/// ordering the paper's failure experiments describe.
fn run_window(
    file: &EncodedFile,
    target_tasks: usize,
    failed: usize,
    with_repair: bool,
) -> Result<Window, DrcError> {
    let code = file.code();
    let spec = harness::byte_cluster_spec(file.block_size())?;
    let mut fs = DistributedFileSystem::new(spec, 0xC0DE ^ code.to_string().len() as u64);

    let id = fs.write_encoded("/shuffle-contention", file)?;
    fs.sync();
    let meta = fs.namenode().file(id)?.clone();

    // Lose as many replicas of data block 0 of stripe 0 as the code
    // tolerates, so the repair pass has real reconstruction work on every
    // stripe the victims host. For the ft≥2 array codes both replicas go,
    // and the job's map task for that block runs as a degraded read; 2-rep
    // tolerates only one failure, so its map task falls back to the
    // surviving replica (a plain remote read) and its row measures pure
    // repair-vs-shuffle link contention.
    let victims: Vec<NodeId> = meta.block_locations(0, 0)?[..failed].to_vec();
    for &v in &victims {
        fs.fail_node_permanently(v);
    }

    // Snapshot the failed cluster for the job: `repair_nodes` marks the
    // victims up again once the pass completes, but the job is issued in the
    // same virtual window and must still see them down.
    let mut cluster = Cluster::new(fs.cluster().spec().clone());
    for &v in &victims {
        cluster.set_down(v);
    }

    let start = fs.now();
    let repair = if with_repair {
        Some(fs.repair_nodes(&victims)?)
    } else {
        None
    };

    // A Terasort-like job over a quarter of the file's data blocks (always
    // including the degraded block 0 of stripe 0), with short task overhead
    // and map CPU: the map phase stays a fraction of the repair pass, so the
    // shuffle is issued while the repair — which rebuilds *every* stripe the
    // victims host — is still in flight. That is the window the paper's
    // failure experiments are about.
    let job_blocks: Vec<_> = meta
        .placement
        .data_blocks()
        .into_iter()
        .take((target_tasks / 4).max(8))
        .collect();
    let job = JobSpec::new("shuffle-contention", job_blocks)
        .with_task_overhead_s(0.01)?
        .with_map_cpu_s_per_mb(0.005)?
        .with_reduce_tasks(cluster.up_nodes().len());
    let scheduler = SchedulerKind::Delay.build();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED ^ failed as u64);
    let built = code.build()?;
    let metrics = JobRun::new(
        &job,
        built.as_ref(),
        &meta.placement,
        &cluster,
        scheduler.as_ref(),
    )
    .on(fs.cluster_net(), start)
    .run(&mut rng)?;

    // The storage-layer and job timelines share the virtual time base:
    // measure how long the job's shuffle and the repair ran concurrently.
    let (repair_s, overlap_s) = match &repair {
        Some(report) => (
            report.completed_at.since(report.issued_at).as_secs_f64(),
            overlap(
                metrics.timeline.of(PhaseClass::Shuffle),
                fs.timeline().of(PhaseClass::Repair),
            )
            .as_secs_f64(),
        ),
        None => (0.0, 0.0),
    };
    Ok(Window {
        job_s: metrics.job_time_s,
        contention: metrics.shuffle_contention,
        repair_s,
        overlap_s,
        network_traffic_bytes: metrics.network_traffic_bytes,
    })
}

impl Row for ShuffleContentionRow {
    const HEADER: &'static [&'static str] = &[
        "Code",
        "Failed",
        "Solo job (s)",
        "Contended job (s)",
        "Slowdown",
        "Src-NIC wait (s)",
        "Dst-NIC wait (s)",
        "Fabric wait (s)",
        "Repair (s)",
        "Shuffle∩repair (s)",
    ];

    fn cells(&self) -> Vec<String> {
        vec![
            self.code.to_string(),
            self.failed_nodes.to_string(),
            format!("{:.3}", self.solo_job_s),
            format!("{:.3}", self.contended_job_s),
            format!("{:.2}x", self.slowdown),
            format!("{:.3}", self.contention.source_nic_wait_s),
            format!("{:.3}", self.contention.dest_nic_wait_s),
            format!("{:.3}", self.contention.fabric_wait_s),
            format!("{:.3}", self.repair_s),
            format!("{:.3}", self.shuffle_repair_overlap_s),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_repair_slows_the_job_and_contention_is_attributed() {
        let report = run_shuffle_contention(1024 * 1024, 100).unwrap();
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            assert!(row.failed_nodes >= 1, "{}", row.code);
            assert!(row.solo_job_s > 0.0, "{}", row.code);
            // The acceptance criteria: concurrent repair produces strictly
            // positive per-link contention and a measurable job slowdown.
            assert!(
                row.slowdown > 1.0,
                "{}: concurrent repair must slow the job (solo {:.3}s, contended {:.3}s)",
                row.code,
                row.solo_job_s,
                row.contended_job_s
            );
            assert!(row.contention.source_nic_wait_s > 0.0, "{}", row.code);
            assert!(row.contention.dest_nic_wait_s > 0.0, "{}", row.code);
            assert!(row.contention.total_s() > 0.0, "{}", row.code);
            assert!(row.solo_contention_s > 0.0, "{}", row.code);
            assert!(row.repair_s > 0.0, "{}", row.code);
            assert!(
                row.shuffle_repair_overlap_s > 0.0,
                "{}: shuffle and repair must be concurrently in flight",
                row.code
            );
            assert!(row.network_traffic_bytes > 0);
        }
        assert!(report.rows.iter().any(|r| r.code == CodeKind::Pentagon));
        let text = report.to_string();
        assert!(text.contains("Slowdown"));
    }
}
