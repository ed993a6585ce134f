//! Streaming (chunk-pipelined) repair versus the monolithic schedule.
//!
//! The HDFS repair path executes each stripe as fetch → rebuild → store.
//! Monolithically, a stripe's replacement stores cannot begin until the
//! *whole* of every helper block has arrived, so the repair's virtual time
//! is the *sum* of the transfer and store stages. Streamed in chunks, the
//! first chunk's stores are issued the instant that chunk's fetches land
//! and overlap the remaining fetches, so a stripe completes at
//! max(network, compute) + one-chunk pipeline fill.
//!
//! This experiment measures exactly that: for each code and each chunk
//! size it writes a multi-stripe file, permanently fails one stripe host,
//! and runs the RaidNode repair pass twice on identical fresh deployments
//! — once with the chunk-streamed schedule and once with
//! `repair_chunk_bytes = u64::MAX` (the serial whole-block baseline). Both
//! runs restore the same replicas (byte-identical on a file with bytes: the
//! driver's are length-only, the `#[cfg(test)]` proof builds real ones) and
//! account identical traffic;
//! only the virtual-time schedule differs, and the per-row `ratio`
//! (pipelined / serial) is the headline: strictly below 1.0 for every
//! erasure code (2-rep repairs move replicas without a rebuild stage and may
//! be neutral).

use serde::Serialize;

use drc_cluster::NodeId;
use drc_codes::CodeKind;
use drc_hdfs::{DistributedFileSystem, EncodedFile, FileId, RepairReport};

use crate::experiments::harness;
use crate::render::{mib, Row, Table};
use crate::DrcError;

/// One code × chunk-size measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineRow {
    /// The coding scheme.
    pub code: CodeKind,
    /// Streaming chunk size, in bytes.
    pub chunk_bytes: u64,
    /// Virtual seconds of the serial (whole-block) repair pass.
    pub serial_s: f64,
    /// Virtual seconds of the chunk-streamed repair pass.
    pub pipelined_s: f64,
    /// `pipelined_s / serial_s` — below 1.0 means the pipeline overlapped
    /// fetches with stores.
    pub ratio: f64,
    /// Network bytes the repair moved (identical in both runs).
    pub network_bytes: u64,
    /// Blocks restored (identical in both runs).
    pub blocks_restored: usize,
}

/// Runs the streaming-repair experiment: every paper code × every chunk
/// size in `chunk_sizes`, against a measured serial baseline. One row per
/// code × chunk size, code by code; the table prints `stripes` and
/// `block_bytes` as its configuration.
///
/// # Errors
///
/// [`DrcError::InvalidExperiment`] if `block_bytes` is not a positive whole
/// number of MiB; otherwise propagates file-system errors (none are
/// expected: the scenario is a single node failure, within every code's
/// tolerance).
pub fn run_repair_pipeline(
    block_bytes: usize,
    stripes: usize,
    chunk_sizes: &[u64],
) -> Result<Table<PipelineRow>, DrcError> {
    let codes = [
        CodeKind::TWO_REP,
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
    ];
    let files = harness::stripe_files(&codes, block_bytes, |_| stripes)?;
    // Stage 1: the serial baselines are *measured* on identical fresh
    // deployments, not derived — one cell per code, joined before the
    // pipelined stage because every chunked row compares against them.
    let serial_cells = files
        .iter()
        .map(|file| move || run_repair(file, u64::MAX))
        .collect();
    let serials: Vec<(f64, u64, usize)> = harness::run_cells(serial_cells)?;

    // Stage 2: one cell per code × chunk size, in the report's row order.
    let mut cells = Vec::new();
    for (file, serial) in files.iter().zip(serials) {
        for &chunk in chunk_sizes {
            cells.push(move || -> Result<PipelineRow, DrcError> {
                let pipelined = run_repair(file, chunk)?;
                debug_assert_eq!(pipelined.1, serial.1, "traffic must not depend on chunking");
                debug_assert_eq!(
                    pipelined.2, serial.2,
                    "restores must not depend on chunking"
                );
                Ok(PipelineRow {
                    code: file.code(),
                    chunk_bytes: chunk,
                    serial_s: serial.0,
                    pipelined_s: pipelined.0,
                    ratio: pipelined.0 / serial.0,
                    network_bytes: pipelined.1,
                    blocks_restored: pipelined.2,
                })
            });
        }
    }
    Ok(Table {
        title: format!(
            "Streaming repair: pipelined vs serial virtual time ({stripes} stripes, {} MiB blocks)",
            block_bytes / (1024 * 1024)
        ),
        config: vec![
            ("stripes", stripes.serialize()),
            ("block_bytes", block_bytes.serialize()),
        ],
        rows: harness::run_cells(cells)?,
    })
}

/// Ingests `file`, permanently fails one stripe-0 host, repairs it under the
/// given chunk size, and returns the pass's virtual duration, network bytes
/// and restored-block count.
fn run_repair(file: &EncodedFile, chunk: u64) -> Result<(f64, u64, usize), DrcError> {
    let (_, _, report) = repaired_fs(file, chunk)?;
    debug_assert_eq!(report.unrecoverable_stripes, 0);
    Ok((
        report.completed_at.since(report.issued_at).as_secs_f64(),
        report.network_bytes,
        report.blocks_restored,
    ))
}

/// The scenario behind [`run_repair`], handing back the repaired deployment
/// so the tests can hold its stored blocks against the payload.
fn repaired_fs(
    file: &EncodedFile,
    chunk: u64,
) -> Result<(DistributedFileSystem, FileId, RepairReport), DrcError> {
    let spec = harness::byte_cluster_spec(file.block_size())?;
    let mut fs = DistributedFileSystem::new(spec, 0x9147 ^ file.code().to_string().len() as u64);
    fs.set_repair_chunk_bytes(chunk);

    let id = fs.write_encoded("/pipeline", file)?;
    fs.sync();

    // Fail the node holding the first replica of data block 0 of stripe 0 —
    // a single permanent loss every code tolerates.
    let victim: NodeId = fs.namenode().file(id)?.block_locations(0, 0)?.to_vec()[0];
    fs.fail_node_permanently(victim);
    let report = fs.repair_nodes(&[victim])?;
    Ok((fs, id, report))
}

impl Row for PipelineRow {
    const HEADER: &'static [&'static str] = &[
        "Code",
        "Chunk (KiB)",
        "Serial (s)",
        "Pipelined (s)",
        "Ratio",
        "Traffic (MiB)",
        "Blocks restored",
    ];

    fn cells(&self) -> Vec<String> {
        vec![
            self.code.to_string(),
            (self.chunk_bytes / 1024).to_string(),
            format!("{:.3}", self.serial_s),
            format!("{:.3}", self.pipelined_s),
            format!("{:.3}", self.ratio),
            mib(self.network_bytes),
            self.blocks_restored.to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drc_hdfs::{Block, BlockKey, Bytes, HdfsError};

    #[test]
    fn pipelined_beats_serial_for_every_erasure_code() {
        let report = run_repair_pipeline(4 * 1024 * 1024, 2, &[1 << 20, 256 * 1024]).unwrap();
        assert_eq!(report.rows.len(), 4 * 2);
        for r in &report.rows {
            assert!(r.serial_s > 0.0, "{}: a repair takes virtual time", r.code);
            if matches!(r.code, CodeKind::Replication { .. }) {
                assert!(
                    r.ratio <= 1.0 + 1e-6,
                    "{} @ {}: replication may be neutral but never slower",
                    r.code,
                    r.chunk_bytes
                );
            } else {
                assert!(
                    r.ratio < 1.0,
                    "{} @ {}: the pipeline must strictly beat the serial \
                     schedule (ratio {:.4})",
                    r.code,
                    r.chunk_bytes,
                    r.ratio
                );
            }
        }
        // The headline: every erasure code at the smallest chunk.
        let smallest = report.rows.iter().filter(|r| r.chunk_bytes == 256 * 1024);
        let erasure: Vec<&PipelineRow> = smallest
            .filter(|r| !matches!(r.code, CodeKind::Replication { .. }))
            .collect();
        assert_eq!(erasure.len(), 3);
        for r in erasure {
            assert!(r.ratio < 1.0, "{} headline ratio {:.4}", r.code, r.ratio);
        }
    }

    /// Where a replica of a content block of file `id` is not the payload
    /// window it was written from: handles are compared against payload
    /// views in place (no timed read, no file-sized copy), and the payload
    /// being block-distinct, a right-looking block in the wrong slot is
    /// found too.
    fn first_wrong_replica(
        fs: &DistributedFileSystem,
        id: FileId,
        payload: &Bytes,
        block: usize,
    ) -> Option<String> {
        let meta = fs.namenode().file(id).unwrap();
        for (index, key) in meta.content_block_keys().into_iter().enumerate() {
            let want = payload.slice(index * block..(index + 1) * block);
            let hosts = meta.block_locations(key.stripe, key.block).unwrap();
            assert_eq!(hosts.len(), 2, "double replication");
            for &node in &hosts {
                let stored = fs.datanode(node).unwrap().peek(&key);
                if stored.as_ref().map(Block::bytes) != Some(Ok(&want)) {
                    return Some(format!("{key:?} on {node}"));
                }
            }
        }
        None
    }

    /// The repair restores real bytes: after the pass, every replica of
    /// every data block — the victim's rebuilt ones included — is the
    /// payload window it was written from. The drivers ingest length-only
    /// files, so this proof builds its own real ones, over the same
    /// scenario ([`repaired_fs`]).
    #[test]
    fn repair_restores_the_payload_bytes_on_every_replica() {
        let block = 1024 * 1024;
        for code in [
            CodeKind::TWO_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
            CodeKind::HeptagonLocal,
        ] {
            let k = code.build().unwrap().data_blocks();
            let payload = harness::pattern_payload(2 * k * block);
            let file = EncodedFile::encode(payload.clone(), code, block).unwrap();
            for chunk in [u64::MAX, 256 * 1024] {
                let (fs, id, report) = repaired_fs(&file, chunk).unwrap();
                assert_eq!(report.unrecoverable_stripes, 0, "{code}");
                assert!(report.blocks_restored > 0, "{code}");
                assert_eq!(
                    first_wrong_replica(&fs, id, &payload, block),
                    None,
                    "{code}"
                );
            }
        }
    }

    /// The proof above has teeth: a replica holding its stripe neighbour's
    /// bytes — right length, right pattern, wrong window — is reported.
    #[test]
    fn a_wrong_block_on_a_replica_fails_the_byte_proof() {
        let (code, block) = (CodeKind::Pentagon, 1024 * 1024);
        let payload = harness::pattern_payload(18 * block);
        let file = EncodedFile::encode(payload.clone(), code, block).unwrap();
        let (fs, id, _) = repaired_fs(&file, u64::MAX).unwrap();
        let meta = fs.namenode().file(id).unwrap();
        let (key, neighbour) = (BlockKey::new(id, 1, 3), BlockKey::new(id, 1, 4));
        let host = fs.datanode(meta.block_locations(1, 3).unwrap()[1]).unwrap();
        let donor = fs.datanode(meta.block_locations(1, 4).unwrap()[0]).unwrap();
        host.store(key, donor.peek(&neighbour).unwrap());
        assert_eq!(
            first_wrong_replica(&fs, id, &payload, block),
            Some(format!("{key:?} on {}", host.id()))
        );
    }

    /// The driver's own files carry no bytes: the same scenario repairs
    /// them to the same report, and the restored replicas are lengths.
    #[test]
    fn the_drivers_files_are_length_only_and_repair_to_the_same_report() {
        let (code, block) = (CodeKind::Heptagon, 1024 * 1024);
        let sized = &harness::stripe_files(&[code], block, |_| 2).unwrap()[0];
        let real = EncodedFile::encode(harness::pattern_payload(sized.len()), code, block).unwrap();
        let (mut fs, id, report) = repaired_fs(sized, 256 * 1024).unwrap();
        assert_eq!(report, repaired_fs(&real, 256 * 1024).unwrap().2);
        assert!(matches!(fs.read_file(id), Err(HdfsError::NoContent { .. })));
    }
}
