//! A small registry that names the coding schemes evaluated in the paper and
//! builds them on demand.
//!
//! Experiments across the workspace (reliability tables, locality
//! simulations, MapReduce runs) are parameterised by a [`CodeKind`]; the
//! registry keeps the mapping between the paper's code names and concrete
//! [`ErasureCode`] implementations in one place.

use std::fmt;
use std::sync::Arc;

use serde::Serialize;

use crate::codes::{PolygonCode, PolygonLocalCode, RaidMirrorCode, ReplicationCode, RsCode};
use crate::{CodeError, ErasureCode};

/// An identifier for a coding scheme, convertible into a concrete code.
///
/// # Example
///
/// ```
/// use drc_codes::CodeKind;
///
/// let pentagon = CodeKind::Pentagon.build().unwrap();
/// assert_eq!(pentagon.data_blocks(), 9);
/// assert_eq!(CodeKind::Pentagon.to_string(), "pentagon");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[non_exhaustive]
pub enum CodeKind {
    /// Plain `r`-way replication.
    Replication {
        /// Number of replicas of every block.
        replicas: usize,
    },
    /// The pentagon repair-by-transfer code (9 data blocks on 5 nodes).
    Pentagon,
    /// The heptagon repair-by-transfer code (20 data blocks on 7 nodes).
    Heptagon,
    /// The heptagon-local code (two heptagons plus a global-parity node).
    HeptagonLocal,
    /// A general `K_n` polygon code.
    Polygon {
        /// Number of graph vertices / storage nodes.
        nodes: usize,
    },
    /// The `(total, total-1)` RAID+mirroring scheme.
    RaidMirror {
        /// Number of distinct coded blocks (data + one parity).
        total: usize,
    },
    /// A single-copy systematic Reed–Solomon code.
    ReedSolomon {
        /// Data blocks per stripe.
        data: usize,
        /// Parity blocks per stripe.
        parity: usize,
    },
}

impl CodeKind {
    /// 3-way replication (the Hadoop default).
    pub const THREE_REP: CodeKind = CodeKind::Replication { replicas: 3 };
    /// 2-way replication.
    pub const TWO_REP: CodeKind = CodeKind::Replication { replicas: 2 };
    /// The paper's `(10,9)` RAID+m comparison code.
    pub const RAID_M_10_9: CodeKind = CodeKind::RaidMirror { total: 10 };
    /// The paper's `(12,11)` RAID+m comparison code.
    pub const RAID_M_12_11: CodeKind = CodeKind::RaidMirror { total: 12 };

    /// The six codes of Table 1, in the paper's row order.
    pub fn table1_set() -> Vec<CodeKind> {
        vec![
            CodeKind::THREE_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
            CodeKind::HeptagonLocal,
            CodeKind::RAID_M_10_9,
            CodeKind::RAID_M_12_11,
        ]
    }

    /// The codes whose map-task locality is simulated in Fig. 3.
    pub fn fig3_set() -> Vec<CodeKind> {
        vec![CodeKind::TWO_REP, CodeKind::Pentagon, CodeKind::Heptagon]
    }

    /// The codes measured in the cluster experiments of Fig. 4.
    pub fn fig4_set() -> Vec<CodeKind> {
        vec![
            CodeKind::THREE_REP,
            CodeKind::TWO_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
        ]
    }

    /// The codes measured in the cluster experiments of Fig. 5.
    pub fn fig5_set() -> Vec<CodeKind> {
        vec![CodeKind::THREE_REP, CodeKind::TWO_REP, CodeKind::Pentagon]
    }

    /// Builds the concrete code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if the parameters embedded in
    /// the kind are invalid (e.g. zero replicas).
    pub fn build(&self) -> Result<Arc<dyn ErasureCode>, CodeError> {
        Ok(match *self {
            CodeKind::Replication { replicas } => Arc::new(ReplicationCode::new(replicas)?),
            CodeKind::Pentagon => Arc::new(PolygonCode::pentagon()),
            CodeKind::Heptagon => Arc::new(PolygonCode::heptagon()),
            CodeKind::HeptagonLocal => Arc::new(PolygonLocalCode::heptagon_local()),
            CodeKind::Polygon { nodes } => Arc::new(PolygonCode::new(nodes)?),
            CodeKind::RaidMirror { total } => Arc::new(RaidMirrorCode::new(total)?),
            CodeKind::ReedSolomon { data, parity } => Arc::new(RsCode::new(data, parity)?),
        })
    }

    /// Returns `true` if the scheme stores at least two replicas of every
    /// data block (the "inherent double replication" property).
    pub fn has_inherent_double_replication(&self) -> bool {
        match *self {
            CodeKind::Replication { replicas } => replicas >= 2,
            CodeKind::Pentagon
            | CodeKind::Heptagon
            | CodeKind::HeptagonLocal
            | CodeKind::Polygon { .. }
            | CodeKind::RaidMirror { .. } => true,
            CodeKind::ReedSolomon { .. } => false,
        }
    }
}

impl fmt::Display for CodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodeKind::Replication { replicas } => write!(f, "{replicas}-rep"),
            CodeKind::Pentagon => write!(f, "pentagon"),
            CodeKind::Heptagon => write!(f, "heptagon"),
            CodeKind::HeptagonLocal => write!(f, "heptagon-local"),
            CodeKind::Polygon { nodes } => write!(f, "{nodes}-gon"),
            CodeKind::RaidMirror { total } => write!(f, "({total},{}) RAID+m", total - 1),
            CodeKind::ReedSolomon { data, parity } => write!(f, "RS({data},{parity})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_built_code_names() {
        for kind in [
            CodeKind::THREE_REP,
            CodeKind::TWO_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
            CodeKind::HeptagonLocal,
            CodeKind::RAID_M_10_9,
            CodeKind::RAID_M_12_11,
            CodeKind::ReedSolomon {
                data: 10,
                parity: 4,
            },
            CodeKind::Polygon { nodes: 6 },
        ] {
            let code = kind.build().unwrap();
            assert_eq!(kind.to_string(), code.name(), "kind {kind:?}");
        }
    }

    #[test]
    fn table1_set_matches_paper_rows() {
        let names: Vec<String> = CodeKind::table1_set()
            .iter()
            .map(CodeKind::to_string)
            .collect();
        assert_eq!(
            names,
            vec![
                "3-rep",
                "pentagon",
                "heptagon",
                "heptagon-local",
                "(10,9) RAID+m",
                "(12,11) RAID+m"
            ]
        );
    }

    #[test]
    fn storage_overheads_match_table1() {
        // Table 1, column "Storage Overhead".
        let expected = [
            (CodeKind::THREE_REP, 3.0),
            (CodeKind::Pentagon, 20.0 / 9.0),      // 2.22x
            (CodeKind::Heptagon, 2.1),             // 2.1x
            (CodeKind::HeptagonLocal, 2.15),       // 2.15x
            (CodeKind::RAID_M_10_9, 20.0 / 9.0),   // 2.22x
            (CodeKind::RAID_M_12_11, 24.0 / 11.0), // 2.18x
        ];
        for (kind, overhead) in expected {
            let code = kind.build().unwrap();
            assert!(
                (code.storage_overhead() - overhead).abs() < 1e-9,
                "{kind}: got {}, want {overhead}",
                code.storage_overhead()
            );
        }
    }

    #[test]
    fn code_lengths_match_table1() {
        // Table 1, column "Code Length".
        let expected = [
            (CodeKind::THREE_REP, 3),
            (CodeKind::Pentagon, 5),
            (CodeKind::Heptagon, 7),
            (CodeKind::HeptagonLocal, 15),
            (CodeKind::RAID_M_10_9, 20),
            (CodeKind::RAID_M_12_11, 24),
        ];
        for (kind, length) in expected {
            assert_eq!(kind.build().unwrap().node_count(), length, "{kind}");
        }
    }

    #[test]
    fn double_replication_property() {
        assert!(CodeKind::Pentagon.has_inherent_double_replication());
        assert!(CodeKind::HeptagonLocal.has_inherent_double_replication());
        assert!(CodeKind::RAID_M_10_9.has_inherent_double_replication());
        assert!(CodeKind::TWO_REP.has_inherent_double_replication());
        assert!(!CodeKind::Replication { replicas: 1 }.has_inherent_double_replication());
        assert!(!CodeKind::ReedSolomon {
            data: 10,
            parity: 4
        }
        .has_inherent_double_replication());
    }

    #[test]
    fn invalid_kinds_fail_to_build() {
        assert!(CodeKind::Replication { replicas: 0 }.build().is_err());
        assert!(CodeKind::Polygon { nodes: 2 }.build().is_err());
        assert!(CodeKind::RaidMirror { total: 1 }.build().is_err());
        assert!(CodeKind::ReedSolomon { data: 0, parity: 1 }
            .build()
            .is_err());
    }

    #[test]
    fn figure_sets_build() {
        for kind in CodeKind::fig3_set()
            .into_iter()
            .chain(CodeKind::fig4_set())
            .chain(CodeKind::fig5_set())
        {
            assert!(kind.build().is_ok());
        }
    }

    /// `repro --json` prints a report's `code` with this spelling; a renamed
    /// variant or field must fail here, not only in a downstream reader.
    #[test]
    fn json_spelling_is_recorded() {
        let rs_10_4 = CodeKind::ReedSolomon {
            data: 10,
            parity: 4,
        };
        let recorded = [
            (CodeKind::THREE_REP, r#"{"Replication":{"replicas":3}}"#),
            (CodeKind::TWO_REP, r#"{"Replication":{"replicas":2}}"#),
            (CodeKind::Pentagon, r#""Pentagon""#),
            (CodeKind::Heptagon, r#""Heptagon""#),
            (CodeKind::HeptagonLocal, r#""HeptagonLocal""#),
            (CodeKind::RAID_M_10_9, r#"{"RaidMirror":{"total":10}}"#),
            (CodeKind::RAID_M_12_11, r#"{"RaidMirror":{"total":12}}"#),
            (rs_10_4, r#"{"ReedSolomon":{"data":10,"parity":4}}"#),
        ];
        for kind in CodeKind::table1_set()
            .into_iter()
            .chain(CodeKind::fig3_set())
            .chain(CodeKind::fig4_set())
            .chain(CodeKind::fig5_set())
            .chain([rs_10_4])
        {
            let (_, json) = recorded
                .iter()
                .find(|(k, _)| *k == kind)
                .unwrap_or_else(|| panic!("{kind}: no recorded spelling"));
            assert_eq!(serde_json::to_string(&kind).unwrap(), *json, "{kind}");
        }
    }
}
