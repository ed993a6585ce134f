//! Metadata-plane scaling: placement-index size at datacenter block counts.
//!
//! The paper's experiments run on 9–25 nodes, but the codes are pitched at
//! datacenter HDFS deployments where a NameNode tracks millions of blocks.
//! This experiment sweeps cluster size × blocks for each code and reports
//! the placement index's resident bytes per distinct block.
//!
//! The headline row places **10 million blocks over a 1000-node cluster**
//! and still fits the quick profile: the index stores one `u32` per
//! stripe-local host plus one `u32` reverse-posting, i.e. `8·n / d` bytes
//! per block for an arity-`n`, `d`-distinct-block code — 16 B for 2-rep,
//! 4 B for the pentagon — where a map entry per block spends over a hundred
//! (the measured-and-rejected baseline in `crates/cluster/INTERNALS.md`).
//!
//! The table is structural and byte-reproducible. How fast the index
//! answers is host-dependent and measured by the benchmark ledger
//! (`cluster.index_lookups_per_s`, `cluster.repair_scan_blocks_per_s`,
//! `cluster.index_build_blocks_per_s`), not here.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;

use super::{harness, Effort, DEFAULT_SEED};
use crate::render::{Row, Table};
use crate::DrcError;

/// One (code, cluster size, block count) point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetadataScaleRow {
    /// The coding scheme whose placement is indexed.
    pub code: CodeKind,
    /// Data nodes in the cluster.
    pub nodes: usize,
    /// Stripes placed.
    pub stripes: usize,
    /// Distinct blocks indexed (stripes × distinct blocks per stripe).
    pub blocks: usize,
    /// Heap bytes resident in the index (per its own accounting).
    pub index_bytes: usize,
    /// Index bytes per distinct block.
    pub bytes_per_block: f64,
}

/// Places enough whole stripes of `kind` to hold `min_blocks` distinct
/// blocks over a `nodes`-node datacenter cluster and sizes the resulting
/// index.
fn index_row(
    kind: CodeKind,
    nodes: usize,
    min_blocks: usize,
) -> Result<MetadataScaleRow, DrcError> {
    let code = kind.build()?;
    let stripes = min_blocks.div_ceil(code.distinct_blocks());
    let cluster = Cluster::new(ClusterSpec::datacenter(nodes));
    let mut rng = ChaCha8Rng::seed_from_u64(DEFAULT_SEED);
    // Round-robin fills the arena by copying the up-node ring lap after
    // lap and draws nothing; the random policy shuffles the whole node pool
    // once per stripe, which swamps everything else at 10M-block scale.
    let placement = PlacementMap::place(
        code.as_ref(),
        &cluster,
        stripes,
        PlacementPolicy::RoundRobin,
        &mut rng,
    )?;
    let blocks = stripes * placement.distinct_blocks_per_stripe();
    let index_bytes = placement.heap_bytes();
    Ok(MetadataScaleRow {
        code: kind,
        nodes,
        stripes,
        blocks,
        index_bytes,
        bytes_per_block: index_bytes as f64 / blocks as f64,
    })
}

/// Runs the metadata-plane scaling sweep: the paper's three code families
/// at a mid-size point, then 2-rep and the pentagon at datacenter scale
/// (1000 nodes, 10M+ blocks).
///
/// # Errors
///
/// Propagates placement or code-construction failures.
pub fn run_metadata_scale(effort: Effort) -> Result<Table<MetadataScaleRow>, DrcError> {
    let (mid_blocks, big_blocks) = match effort {
        Effort::Quick => (200_000usize, 10_000_000usize),
        Effort::Full => (1_000_000, 20_000_000),
    };
    // One cell per configuration, in the table's fixed row order.
    let specs = [
        (CodeKind::TWO_REP, 100, mid_blocks),
        (CodeKind::Pentagon, 100, mid_blocks),
        (CodeKind::HeptagonLocal, 100, mid_blocks),
        (CodeKind::TWO_REP, 1000, big_blocks),
        (CodeKind::Pentagon, 1000, big_blocks),
    ];
    let cells = specs.map(|(kind, nodes, blocks)| move || index_row(kind, nodes, blocks));
    Ok(Table {
        title: "Metadata plane at scale: placement-index size".to_string(),
        config: Vec::new(),
        rows: harness::run_cells(cells.into())?,
    })
}

impl Row for MetadataScaleRow {
    const HEADER: &'static [&'static str] = &["Code", "Nodes", "Blocks", "Index bytes", "B/block"];

    fn cells(&self) -> Vec<String> {
        vec![
            self.code.to_string(),
            self.nodes.to_string(),
            self.blocks.to_string(),
            self.index_bytes.to_string(),
            format!("{:.1}", self.bytes_per_block),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_bytes_per_block_meet_the_target() {
        // The ISSUE target is ≤48 B/block; the arena layout comes in far
        // under it for every paper code at non-toy sizes.
        for kind in [
            CodeKind::TWO_REP,
            CodeKind::Pentagon,
            CodeKind::HeptagonLocal,
        ] {
            let row = index_row(kind, 30, 20_000).unwrap();
            assert!(
                row.bytes_per_block <= 48.0,
                "{kind}: {:.1} B/block",
                row.bytes_per_block
            );
        }
    }
}
