//! The §3.1 repair-bandwidth analysis.
//!
//! The paper highlights two numbers: an on-the-fly repair (degraded read) of
//! a block whose two replicas are down costs **3 blocks** with the pentagon
//! code versus **9 blocks** with the (10,9) RAID+m code, and repairing two
//! failed pentagon nodes costs **10 blocks** thanks to partial parities. This
//! experiment tabulates single-node repair, double-node repair and worst-case
//! degraded-read bandwidth for every code.

use std::collections::BTreeSet;

use serde::Serialize;

use drc_codes::CodeKind;

use crate::experiments::harness;
use crate::render::TextTable;
use crate::DrcError;

/// Repair-bandwidth figures for one code, in blocks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RepairBandwidthRow {
    /// The coding scheme.
    pub code: CodeKind,
    /// Average network blocks to repair one failed node of a stripe.
    pub single_node_repair_blocks: f64,
    /// Network blocks to repair the worst-case pair of failed nodes
    /// (`None` if the code does not tolerate two failures).
    pub double_node_repair_blocks: Option<usize>,
    /// Network blocks to serve a read of a data block when one replica holder
    /// is down.
    pub degraded_read_one_down: usize,
    /// Network blocks to serve a read when every replica holder is down
    /// (`None` if that makes the block unreadable).
    pub degraded_read_all_replicas_down: Option<usize>,
    /// Number of partial-parity transfers used in the double-node repair.
    pub partial_parity_transfers: usize,
}

/// The reproduced repair-bandwidth table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RepairBandwidthTable {
    /// One row per code.
    pub rows: Vec<RepairBandwidthRow>,
}

/// Computes repair and degraded-read bandwidth for the paper's codes plus
/// 2-rep (the baseline the MapReduce experiments use).
///
/// # Errors
///
/// Returns an error only if a code fails to build.
pub fn run_repair_bandwidth() -> Result<RepairBandwidthTable, DrcError> {
    let mut kinds = vec![CodeKind::TWO_REP];
    kinds.extend(CodeKind::table1_set());
    // One cell per code: the all-pairs repair-plan scan dominates and is
    // independent across codes.
    let cells = kinds
        .into_iter()
        .map(|kind| move || repair_bandwidth_row(kind))
        .collect();
    Ok(RepairBandwidthTable {
        rows: harness::run_cells(cells)?,
    })
}

fn repair_bandwidth_row(kind: CodeKind) -> Result<RepairBandwidthRow, DrcError> {
    let code = kind.build()?;
    // Worst-case two-node repair over all pairs.
    let mut double = None;
    let mut partials = 0;
    if code.fault_tolerance() >= 2 {
        let mut worst = 0usize;
        for a in 0..code.node_count() {
            for b in (a + 1)..code.node_count() {
                let failed: BTreeSet<usize> = [a, b].into_iter().collect();
                if let Ok(plan) = code.repair_plan(&failed) {
                    if plan.network_blocks() > worst {
                        worst = plan.network_blocks();
                        partials = plan.partial_parity_transfers();
                    }
                }
            }
        }
        double = Some(worst);
    }
    // Degraded reads of data block 0.
    let hosts: Vec<usize> = code.block_locations(0).to_vec();
    let one_down: BTreeSet<usize> = [hosts[0]].into_iter().collect();
    let degraded_one = code
        .degraded_read_plan(0, &one_down)
        .map(|p| p.network_blocks)
        .unwrap_or(0);
    let all_down: BTreeSet<usize> = hosts.iter().copied().collect();
    let degraded_all = code
        .degraded_read_plan(0, &all_down)
        .ok()
        .map(|p| p.network_blocks);
    Ok(RepairBandwidthRow {
        code: kind,
        single_node_repair_blocks: code.single_node_repair_blocks(),
        double_node_repair_blocks: double,
        degraded_read_one_down: degraded_one,
        degraded_read_all_replicas_down: degraded_all,
        partial_parity_transfers: partials,
    })
}

impl std::fmt::Display for RepairBandwidthTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut table = TextTable::new(
            "Repair bandwidth (blocks), per the codes' repair plans (Section 3.1)",
            &[
                "Code",
                "1-node repair",
                "2-node repair (worst)",
                "Degraded read (1 replica down)",
                "Degraded read (all replicas down)",
                "Partial parities used",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.code.to_string(),
                format!("{:.1}", row.single_node_repair_blocks),
                row.double_node_repair_blocks
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                row.degraded_read_one_down.to_string(),
                row.degraded_read_all_replicas_down
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "unreadable".to_string()),
                row.partial_parity_transfers.to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_papers_headline_numbers() {
        let table = run_repair_bandwidth().unwrap();
        let row = |kind: CodeKind| table.rows.iter().find(|r| r.code == kind).unwrap().clone();

        // Pentagon: degraded read of a doubly-lost block costs 3 blocks, a
        // two-node repair costs 10 blocks, single-node repair-by-transfer 4.
        let pentagon = row(CodeKind::Pentagon);
        assert_eq!(pentagon.degraded_read_all_replicas_down, Some(3));
        assert_eq!(pentagon.double_node_repair_blocks, Some(10));
        assert_eq!(pentagon.single_node_repair_blocks, 4.0);
        assert!(pentagon.partial_parity_transfers > 0);

        // (10,9) RAID+m: the same degraded read needs 9 blocks.
        let raid_m = row(CodeKind::RAID_M_10_9);
        assert_eq!(raid_m.degraded_read_all_replicas_down, Some(9));
        assert_eq!(raid_m.single_node_repair_blocks, 1.0);

        // 2-rep cannot serve a block whose both replicas are down.
        let two_rep = row(CodeKind::TWO_REP);
        assert_eq!(two_rep.degraded_read_all_replicas_down, None);

        // Heptagon: 5 partial parities for the degraded read, 16-block double repair.
        let heptagon = row(CodeKind::Heptagon);
        assert_eq!(heptagon.degraded_read_all_replicas_down, Some(5));
        assert_eq!(heptagon.double_node_repair_blocks, Some(16));

        // Every code reads one block when a single replica is down.
        for r in &table.rows {
            assert_eq!(r.degraded_read_one_down, 1, "{}", r.code);
        }

        let rendered = table.to_string();
        assert!(rendered.contains("Degraded read"));
    }
}
