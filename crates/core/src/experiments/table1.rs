//! Table 1: storage overhead, code length and MTTDL of the coding schemes.

use serde::Serialize;

use drc_codes::CodeKind;
use drc_reliability::{group_mttdl, ReliabilityParams};

use crate::experiments::harness;
use crate::render::{scientific, TextTable};
use crate::DrcError;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table1Row {
    /// The coding scheme.
    pub code: CodeKind,
    /// Storage overhead (stored blocks per data block).
    pub storage_overhead: f64,
    /// Code length (nodes per stripe).
    pub code_length: usize,
    /// Worst-case fault tolerance.
    pub fault_tolerance: usize,
    /// MTTDL in years as computed by the Markov model.
    pub mttdl_years: f64,
    /// MTTDL in years reported by the paper (for side-by-side comparison).
    pub paper_mttdl_years: f64,
}

/// The reproduced Table 1.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table1 {
    /// The failure/repair model parameters used.
    pub params: ReliabilityParams,
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

/// The MTTDL values printed in the paper's Table 1, in years.
pub fn paper_mttdl_years(code: CodeKind) -> Option<f64> {
    match code {
        CodeKind::Replication { replicas: 3 } => Some(1.20e9),
        CodeKind::Pentagon => Some(1.05e8),
        CodeKind::Heptagon => Some(2.68e7),
        CodeKind::HeptagonLocal => Some(8.34e9),
        CodeKind::RaidMirror { total: 10 } => Some(2.03e9),
        CodeKind::RaidMirror { total: 12 } => Some(6.50e8),
        _ => None,
    }
}

/// Computes Table 1 for the paper's six codes under the given reliability
/// parameters.
///
/// # Errors
///
/// Returns an error if a code fails to build or its reliability model is
/// degenerate (which does not happen for the paper's codes).
pub fn run_table1(params: &ReliabilityParams) -> Result<Table1, DrcError> {
    // One cell per code: each solves its own Markov model independently.
    let params = *params;
    let cells = CodeKind::table1_set()
        .into_iter()
        .map(|kind| {
            move || -> Result<Table1Row, DrcError> {
                let code = kind.build()?;
                let mttdl = group_mttdl(code.as_ref(), &params)?;
                Ok(Table1Row {
                    code: kind,
                    storage_overhead: code.storage_overhead(),
                    code_length: code.node_count(),
                    fault_tolerance: code.fault_tolerance(),
                    mttdl_years: mttdl.mttdl_years,
                    paper_mttdl_years: paper_mttdl_years(kind).unwrap_or(f64::NAN),
                })
            }
        })
        .collect();
    Ok(Table1 {
        params,
        rows: harness::run_cells(cells)?,
    })
}

impl std::fmt::Display for Table1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut table = TextTable::new(
            "Table 1: storage overhead, code length and MTTDL",
            &[
                "Code",
                "Storage overhead",
                "Code length",
                "Tolerance",
                "MTTDL (years)",
                "Paper MTTDL (years)",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.code.to_string(),
                format!("{:.2}x", row.storage_overhead),
                row.code_length.to_string(),
                row.fault_tolerance.to_string(),
                scientific(row.mttdl_years),
                scientific(row.paper_mttdl_years),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The storage overheads printed in the paper's Table 1.
    fn paper_storage_overhead(code: CodeKind) -> Option<f64> {
        match code {
            CodeKind::Replication { replicas: 3 } => Some(3.0),
            CodeKind::Pentagon => Some(2.22),
            CodeKind::Heptagon => Some(2.1),
            CodeKind::HeptagonLocal => Some(2.15),
            CodeKind::RaidMirror { total: 10 } => Some(2.22),
            CodeKind::RaidMirror { total: 12 } => Some(2.18),
            _ => None,
        }
    }

    #[test]
    fn reproduces_table1_shape() {
        let table = run_table1(&ReliabilityParams::default()).unwrap();
        assert_eq!(table.rows.len(), 6);
        // Row order matches the paper.
        assert_eq!(table.rows[0].code, CodeKind::THREE_REP);
        assert_eq!(table.rows[1].code, CodeKind::Pentagon);
        assert_eq!(table.rows[5].code, CodeKind::RAID_M_12_11);
        // Storage overhead and code length columns match the paper exactly.
        for row in &table.rows {
            let paper = paper_storage_overhead(row.code).unwrap();
            assert!(
                (row.storage_overhead - paper).abs() < 0.01,
                "{}: overhead {} vs paper {paper}",
                row.code,
                row.storage_overhead
            );
        }
        let lengths: Vec<usize> = table.rows.iter().map(|r| r.code_length).collect();
        assert_eq!(lengths, vec![3, 5, 7, 15, 20, 24]);
        // MTTDL within a factor of ~3 of the paper's values for every row.
        for row in &table.rows {
            let ratio = row.mttdl_years / row.paper_mttdl_years;
            assert!(
                ratio > 0.3 && ratio < 3.0,
                "{}: mttdl {:.3e} vs paper {:.3e}",
                row.code,
                row.mttdl_years,
                row.paper_mttdl_years
            );
        }
        let rendered = table.to_string();
        assert!(rendered.contains("pentagon"));
        assert!(rendered.contains("heptagon-local"));
    }

    #[test]
    fn paper_reference_values_cover_table1_codes() {
        for kind in CodeKind::table1_set() {
            assert!(paper_mttdl_years(kind).is_some());
            assert!(paper_storage_overhead(kind).is_some());
        }
        assert!(paper_mttdl_years(CodeKind::TWO_REP).is_none());
    }
}
