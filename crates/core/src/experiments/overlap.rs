//! Repair / degraded-read overlap on the event-driven cluster substrate.
//!
//! The serial execution model of the original reproduction summed repair and
//! degraded-read work back-to-back, so the contention the paper's failure
//! experiments are really about was invisible. This experiment exercises the
//! rebuilt HDFS layer end-to-end: for each double-replicated array code it
//! writes a multi-stripe file, permanently fails both replicas of a
//! data block, then issues the whole-file degraded read **and** the RaidNode
//! repair pass at the same virtual instant. The two compete for the
//! surviving nodes' disks, NICs and the shared LAN; the per-phase timeline
//! shows how long they ran concurrently and how much shorter the combined
//! makespan is than the serial sum.
//!
//! Byte traffic is accounted exactly as before (and is identical at every
//! harness width); only the *time* model is new.

use serde::Serialize;

use drc_cluster::NodeId;
use drc_codes::CodeKind;
use drc_hdfs::{DistributedFileSystem, EncodedFile};
use drc_sim::{overlap, Phase, PhaseClass, PhaseKind, SimTime};

use crate::experiments::harness;
use crate::render::TextTable;
use crate::DrcError;

/// Overlap measurements for one code.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverlapRow {
    /// The coding scheme.
    pub code: CodeKind,
    /// Virtual seconds the initial write pass took.
    pub write_s: f64,
    /// Virtual seconds the degraded whole-file read was in flight.
    pub degraded_read_s: f64,
    /// Virtual seconds the repair pass was in flight.
    pub repair_s: f64,
    /// Virtual seconds repair and degraded reads ran *concurrently*.
    pub overlap_s: f64,
    /// Virtual makespan of the concurrent failure-handling window.
    pub makespan_s: f64,
    /// Measured makespan of an identical run executed serially (a `sync`
    /// between the degraded read and the repair pass) — the old execution
    /// model's number, re-measured rather than derived.
    pub serial_s: f64,
    /// Network bytes the degraded reads moved.
    pub degraded_read_bytes: u64,
    /// Network bytes the repair moved (per the code's plan).
    pub repair_network_bytes: u64,
    /// The raw failure-window phases (write phases excluded).
    pub phases: Vec<Phase>,
}

/// The repair/degraded-read overlap report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverlapReport {
    /// Stripes written per file.
    pub stripes: usize,
    /// Block size used, in bytes.
    pub block_bytes: u64,
    /// One row per code.
    pub rows: Vec<OverlapRow>,
}

impl OverlapReport {
    /// Looks up one code's row.
    pub fn row(&self, code: CodeKind) -> Option<&OverlapRow> {
        self.rows.iter().find(|r| r.code == code)
    }
}

/// Runs the overlap experiment for the double-replicated array codes.
///
/// Each code writes a `stripes`-stripe file (length-only: see the harness
/// docs) onto a simulated 25-node cluster with `block_bytes`-sized blocks,
/// loses both replicas of data block 0 of stripe 0 to permanent failures,
/// and then handles the failure with a concurrent degraded read + repair
/// pass.
///
/// # Errors
///
/// [`DrcError::InvalidExperiment`] if `block_bytes` is not a positive whole
/// number of MiB; otherwise propagates file-system errors (none are
/// expected for the array codes, which all tolerate double failures).
pub fn run_overlap(block_bytes: usize, stripes: usize) -> Result<OverlapReport, DrcError> {
    let codes = [
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
    ];
    let files = harness::stripe_files(&codes, block_bytes, |_| stripes)?;
    // One cell per code; the concurrent run and its measured serial baseline
    // share a cell because the row combines both.
    let cells = files
        .iter()
        .map(|file| {
            move || -> Result<OverlapRow, DrcError> {
                let concurrent = run_failure_window(file, false)?;
                // The serial baseline is *measured*, not derived: the identical
                // scenario with a `sync` between the read and the repair, i.e.
                // the pre-substrate back-to-back execution model.
                let serial = run_failure_window(file, true)?;
                Ok(OverlapRow {
                    serial_s: serial.makespan_s,
                    ..concurrent
                })
            }
        })
        .collect();
    Ok(OverlapReport {
        stripes,
        block_bytes: block_bytes as u64,
        rows: harness::run_cells(cells)?,
    })
}

/// Executes one write -> double-failure -> degraded-read + repair scenario
/// and measures its failure-handling window. With `serialise` the repair is
/// only issued after the read has fully drained (the old execution model);
/// without it both are issued at the same virtual instant and overlap.
fn run_failure_window(file: &EncodedFile, serialise: bool) -> Result<OverlapRow, DrcError> {
    let code = file.code();
    let spec = harness::byte_cluster_spec(file.block_size())?;
    let mut fs = DistributedFileSystem::new(spec, 0x5EED ^ code.to_string().len() as u64);

    let id = fs.write_encoded("/overlap", file)?;
    let write_done = fs.sync();
    let write_s = write_done.as_secs_f64();

    // Lose both replicas of data block 0 of stripe 0.
    let meta = fs.namenode().file(id)?.clone();
    let victims: Vec<NodeId> = meta.block_locations(0, 0)?.to_vec();
    for &v in &victims {
        fs.fail_node_permanently(v);
    }

    let window_start = fs.now();
    // Only the timed events and accounting of the whole-file read matter
    // here (the file has no bytes to copy): take the block handles.
    let back = fs.read_file_blocks(id)?;
    debug_assert_eq!(back.iter().map(|b| b.len()).sum::<usize>(), file.len());
    if serialise {
        fs.sync();
    }
    let report = fs.repair_nodes(&victims)?;
    let window_end = fs.sync();

    let timeline = fs.timeline();
    let degraded_read_s = span_secs(timeline.of(PhaseClass::DegradedRead), window_start);
    let repair_s = span_secs(timeline.of(PhaseClass::Repair), window_start);
    let overlap_s = overlap(
        timeline.of(PhaseClass::Repair),
        timeline.of(PhaseClass::DegradedRead),
    )
    .as_secs_f64();
    let makespan_s = window_end.since(window_start).as_secs_f64();
    let phases: Vec<Phase> = timeline
        .phases
        .iter()
        .filter(|p| !matches!(p.label, PhaseKind::Write { .. }))
        .copied()
        .collect();
    Ok(OverlapRow {
        code,
        write_s,
        degraded_read_s,
        repair_s,
        overlap_s,
        makespan_s,
        serial_s: makespan_s, // overwritten by the caller's serial run
        // Reconstruction traffic only -- the per-phase record excludes the
        // healthy replica reads the whole-file read also performed.
        degraded_read_bytes: timeline.bytes_of(PhaseClass::DegradedRead),
        repair_network_bytes: report.network_bytes,
        phases,
    })
}

/// The busy span (in seconds) of a phase group, measured from `origin`.
fn span_secs<'a>(phases: impl Iterator<Item = &'a Phase>, origin: SimTime) -> f64 {
    phases
        .map(|p| p.end.since(origin).as_secs_f64())
        .fold(0.0, f64::max)
}

impl std::fmt::Display for OverlapReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut table = TextTable::new(
            format!(
                "Repair / degraded-read overlap in virtual time ({} stripes, {} MiB blocks)",
                self.stripes,
                self.block_bytes / (1024 * 1024)
            ),
            &[
                "Code",
                "Degraded read (s)",
                "Repair (s)",
                "Overlap (s)",
                "Makespan (s)",
                "Serial (s)",
                "Degraded traffic (MiB)",
                "Repair traffic (MiB)",
            ],
        );
        for r in &self.rows {
            table.push_row(vec![
                r.code.to_string(),
                format!("{:.3}", r.degraded_read_s),
                format!("{:.3}", r.repair_s),
                format!("{:.3}", r.overlap_s),
                format!("{:.3}", r.makespan_s),
                format!("{:.3}", r.serial_s),
                format!("{:.1}", r.degraded_read_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.1}", r.repair_network_bytes as f64 / (1024.0 * 1024.0)),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_positive_and_beats_serial_execution() {
        let report = run_overlap(1024 * 1024, 2).unwrap();
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            assert!(row.write_s > 0.0, "{}: writes take virtual time", row.code);
            assert!(
                row.overlap_s > 0.0,
                "{}: repair and degraded reads must overlap",
                row.code
            );
            assert!(
                row.makespan_s < row.serial_s,
                "{}: overlapping execution must beat the serial sum",
                row.code
            );
            assert!(!row.phases.is_empty());
            assert!(row.repair_network_bytes > 0);
        }
        assert!(report.row(CodeKind::Pentagon).is_some());
        assert!(report.to_string().contains("Overlap"));
    }

    #[test]
    fn byte_traffic_is_harness_width_independent() {
        let single = harness::with_jobs(1, || run_overlap(1024 * 1024, 1).unwrap());
        let multi = harness::with_jobs(2, || run_overlap(1024 * 1024, 1).unwrap());
        for (a, b) in single.rows.iter().zip(&multi.rows) {
            assert_eq!(a.degraded_read_bytes, b.degraded_read_bytes);
            assert_eq!(a.repair_network_bytes, b.repair_network_bytes);
            assert_eq!(a.phases, b.phases, "virtual timelines are deterministic");
        }
    }
}
