//! Failure and repair model parameters.

use serde::Serialize;

/// Hours in a (365-day) year, used to convert MTTDL to the paper's unit.
pub const HOURS_PER_YEAR: f64 = 8760.0;

/// How repairs proceed when several nodes of a group are down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub enum RepairStrategy {
    /// One repair at a time (a single repair "server" per group). This is the
    /// classic model of Xin et al. and what the Table 1 reproduction uses.
    #[default]
    Sequential,
    /// All failed nodes are repaired in parallel (repair rate grows linearly
    /// with the number of failures).
    Parallel,
}

/// How data-loss transitions are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub enum FatalityModel {
    /// Data is considered lost as soon as the number of simultaneous failures
    /// exceeds the code's worst-case tolerance `t`, regardless of the actual
    /// failure pattern. Conservative; matches the standard closed-form models
    /// in the literature and is the default for the Table 1 reproduction.
    #[default]
    WorstCase,
    /// Transitions weight data loss by the exact fraction of failure patterns
    /// of each size that are fatal for the specific code (computed by
    /// exhaustive enumeration). More accurate for codes such as RAID+m and
    /// heptagon-local where many above-tolerance patterns are survivable.
    PatternAware,
}

/// Parameters of the node failure / repair model used to compute MTTDL.
///
/// The defaults are the calibration used for the Table 1 reproduction:
/// a node mean-time-to-failure of five years and a mean repair time of
/// 1.2 hours, values in line with the "standard node failure and repair
/// models available in the literature" that the paper cites (Xin et al.,
/// IEEE MSST 2003). Scaling either parameter rescales every MTTDL by the
/// same factor; the *relative* ordering of codes is what the reproduction
/// checks.
///
/// # Example
///
/// ```
/// use drc_reliability::ReliabilityParams;
///
/// let params = ReliabilityParams::default();
/// assert!(params.failure_rate_per_hour() > 0.0);
/// assert!(params.repair_rate_per_hour() > params.failure_rate_per_hour());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReliabilityParams {
    /// Mean time to failure of a single node, in hours.
    pub node_mttf_hours: f64,
    /// Mean time to repair a failed node of the group, in hours, for a code
    /// whose repair moves one block per stored block (replication-like). The
    /// per-code repair time is scaled by the code's relative repair traffic.
    pub node_repair_hours: f64,
    /// Whether repairs are sequential or parallel within a group.
    pub repair_strategy: RepairStrategy,
    /// Whether data-loss transitions use worst-case tolerance or exact
    /// per-pattern fatality fractions.
    pub fatality_model: FatalityModel,
    /// If `true`, each code's repair rate is divided by its relative repair
    /// traffic (network blocks moved per stored block of the failed node);
    /// replication has factor 1, Reed–Solomon ~`k`. Defaults to `false`
    /// because the paper's Table 1 is insensitive to it for the codes listed
    /// (all of them have factor 1).
    pub scale_repair_with_traffic: bool,
}

impl Default for ReliabilityParams {
    fn default() -> Self {
        ReliabilityParams {
            node_mttf_hours: 5.0 * HOURS_PER_YEAR,
            node_repair_hours: 1.2,
            repair_strategy: RepairStrategy::Sequential,
            fatality_model: FatalityModel::WorstCase,
            scale_repair_with_traffic: false,
        }
    }
}

impl ReliabilityParams {
    /// The per-node failure rate λ (per hour).
    pub fn failure_rate_per_hour(&self) -> f64 {
        1.0 / self.node_mttf_hours
    }

    /// The base per-node repair rate μ (per hour).
    pub fn repair_rate_per_hour(&self) -> f64 {
        1.0 / self.node_repair_hours
    }

    /// Returns a copy with a different fatality model.
    pub fn with_fatality_model(mut self, model: FatalityModel) -> Self {
        self.fatality_model = model;
        self
    }

    /// Returns a copy with a different repair strategy.
    pub fn with_repair_strategy(mut self, strategy: RepairStrategy) -> Self {
        self.repair_strategy = strategy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_calibration_is_sane() {
        let p = ReliabilityParams::default();
        assert!((p.node_mttf_hours - 43800.0).abs() < 1e-9);
        assert!(p.node_repair_hours < 24.0);
        assert_eq!(p.repair_strategy, RepairStrategy::Sequential);
        assert_eq!(p.fatality_model, FatalityModel::WorstCase);
        assert!(!p.scale_repair_with_traffic);
    }

    #[test]
    fn rates_are_reciprocal_of_times() {
        let p = ReliabilityParams::default();
        assert!((p.failure_rate_per_hour() * p.node_mttf_hours - 1.0).abs() < 1e-12);
        assert!((p.repair_rate_per_hour() * p.node_repair_hours - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builder_style_modifiers() {
        let p = ReliabilityParams::default()
            .with_fatality_model(FatalityModel::PatternAware)
            .with_repair_strategy(RepairStrategy::Parallel);
        assert_eq!(p.fatality_model, FatalityModel::PatternAware);
        assert_eq!(p.repair_strategy, RepairStrategy::Parallel);
    }
}
