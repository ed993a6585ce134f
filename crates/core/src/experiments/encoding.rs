//! Encoding-duration measurements (§5: "other important metrics, like
//! encoding duration ... also need to be ascertained").
//!
//! For each code the experiment encodes a fixed volume of data through the
//! real encode path and reports throughput in MiB/s per stripe, alongside the
//! parity fraction that must be computed. Replication "encoding" is a plain
//! copy, the pentagon/heptagon codes compute one XOR parity per stripe, and
//! the heptagon-local code additionally evaluates two GF-weighted global
//! parities — the measured ordering reflects exactly that work.

// drc-lint: allow(determinism): the paper's encode-throughput measurement —
// `encoding` is the one host-dependent table `repro` prints.
use std::time::Instant;

use serde::Serialize;

use drc_codes::{CodeKind, StripeEncoder};
use drc_hdfs::Bytes;

use crate::experiments::harness;
use crate::render::TextTable;
use crate::DrcError;

/// Encoding-throughput measurement for one code.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EncodingRow {
    /// The coding scheme.
    pub code: CodeKind,
    /// Data bytes encoded per stripe.
    pub stripe_data_bytes: usize,
    /// Parity bytes computed per stripe (stored parity content, excluding
    /// replication of data blocks).
    pub stripe_parity_bytes: usize,
    /// Measured encoding throughput in MiB of *data* per second.
    pub throughput_mb_per_s: f64,
    /// Wall-clock seconds measured.
    pub elapsed_s: f64,
}

/// The encoding-duration table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EncodingReport {
    /// Block size used for the measurement, in bytes.
    pub block_bytes: usize,
    /// Stripes encoded per code.
    pub stripes: usize,
    /// One row per code.
    pub rows: Vec<EncodingRow>,
}

/// Measures encoding throughput for the paper's codes.
///
/// `block_bytes` is the payload size per block and `stripes` the number of
/// stripes encoded per code (more stripes → more stable numbers).
///
/// # Errors
///
/// Returns an error only if a code fails to build or encode.
pub fn run_encoding(block_bytes: usize, stripes: usize) -> Result<EncodingReport, DrcError> {
    let mut kinds = vec![CodeKind::TWO_REP];
    kinds.extend(CodeKind::table1_set());
    // One stripe of the widest code, shared: each cell slices its `k`
    // blocks from it.
    let mut widest = 0;
    for kind in &kinds {
        widest = widest.max(kind.build()?.data_blocks());
    }
    let payload = harness::pattern_payload(widest * block_bytes);
    let payload = &payload;
    // One cell per code. Each cell owns its encoder and timer; the
    // throughput / elapsed fields are wall-clock measurements, so only the
    // structural fields are expected to be width-invariant.
    let cells = kinds
        .into_iter()
        .map(|kind| move || encoding_row(kind, block_bytes, stripes, payload))
        .collect();
    Ok(EncodingReport {
        block_bytes,
        stripes: stripes.max(1),
        rows: harness::run_cells(cells)?,
    })
}

/// Encodes `stripes` stripes through the production encode path for one code
/// and measures throughput.
fn encoding_row(
    kind: CodeKind,
    block_bytes: usize,
    stripes: usize,
    payload: &Bytes,
) -> Result<EncodingRow, DrcError> {
    let code = kind.build()?;
    let k = code.data_blocks();
    let data: Vec<Bytes> = (0..k)
        .map(|i| payload.slice(i * block_bytes..(i + 1) * block_bytes))
        .collect();
    // Measure the production encode path: buffer-reusing, fused,
    // zero-allocation parity computation (`encode_parities_into`, which
    // the simulated HDFS write path calls on its own pooled buffers).
    let mut encoder = StripeEncoder::new();
    // drc-lint: allow(determinism): times the encode loop below, the one
    // wall-clock read in `drc_core` (`throughput_mb_per_s` / `elapsed_s`).
    let start = Instant::now();
    let mut parity_bytes = 0usize;
    for _ in 0..stripes.max(1) {
        let parities = encoder.encode(code.as_ref(), &data)?;
        parity_bytes = parities.iter().map(Vec::len).sum();
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let data_bytes = k * block_bytes * stripes.max(1);
    Ok(EncodingRow {
        code: kind,
        stripe_data_bytes: k * block_bytes,
        stripe_parity_bytes: parity_bytes,
        throughput_mb_per_s: data_bytes as f64 / (1024.0 * 1024.0) / elapsed,
        elapsed_s: elapsed,
    })
}

impl std::fmt::Display for EncodingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut table = TextTable::new(
            format!(
                "Encoding throughput ({} KiB blocks, {} stripes per code)",
                self.block_bytes / 1024,
                self.stripes
            ),
            &[
                "Code",
                "Data per stripe",
                "Parity per stripe",
                "Throughput (MiB/s)",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.code.to_string(),
                format!("{} KiB", row.stripe_data_bytes / 1024),
                format!("{} KiB", row.stripe_parity_bytes / 1024),
                format!("{:.0}", row.throughput_mb_per_s),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_all_codes_and_parity_volumes() {
        let report = run_encoding(64 * 1024, 2).unwrap();
        assert_eq!(report.rows.len(), 7);
        let row = |kind: CodeKind| report.rows.iter().find(|r| r.code == kind).unwrap();
        // Replication computes no parity at all.
        assert_eq!(row(CodeKind::TWO_REP).stripe_parity_bytes, 0);
        assert_eq!(row(CodeKind::THREE_REP).stripe_parity_bytes, 0);
        // Pentagon and heptagon compute one parity block per stripe.
        assert_eq!(row(CodeKind::Pentagon).stripe_parity_bytes, 64 * 1024);
        assert_eq!(row(CodeKind::Heptagon).stripe_parity_bytes, 64 * 1024);
        // Heptagon-local computes two local parities plus two global parities.
        assert_eq!(
            row(CodeKind::HeptagonLocal).stripe_parity_bytes,
            4 * 64 * 1024
        );
        for r in &report.rows {
            assert!(r.throughput_mb_per_s > 0.0);
            assert!(r.elapsed_s > 0.0);
        }
        assert!(report.to_string().contains("Throughput"));
    }
}
