//! Continuous-time Markov-chain MTTDL computation for one redundancy group
//! (one stripe's worth of nodes) of an erasure code.
//!
//! The model follows the standard construction the paper refers to
//! ("standard node failure and repair models available in the literature",
//! Xin et al., MSST 2003): each of the group's `n` nodes fails independently
//! at rate `λ`, failed nodes are repaired at rate `μ` (sequentially or in
//! parallel), and the group reaches the absorbing *data loss* state when the
//! set of simultaneously-failed nodes becomes unrecoverable for the code.
//! The mean time to data loss (MTTDL) is the expected time to absorption
//! starting from the all-healthy state.

use drc_codes::ErasureCode;

use crate::params::{FatalityModel, ReliabilityParams, RepairStrategy, HOURS_PER_YEAR};
use crate::solver::solve_linear;
use crate::ReliabilityError;

/// The result of an MTTDL computation for one code.
#[derive(Debug, Clone, PartialEq)]
pub struct MttdlResult {
    /// Name of the code.
    pub code: String,
    /// Number of nodes in the redundancy group (the code length).
    pub group_size: usize,
    /// Worst-case fault tolerance used (or underlying the pattern fractions).
    pub fault_tolerance: usize,
    /// Mean time to data loss in hours.
    pub mttdl_hours: f64,
    /// Mean time to data loss in years (the unit of Table 1).
    pub mttdl_years: f64,
    /// Expected time spent in each transient state (diagnostic).
    pub state_times_hours: Vec<f64>,
}

/// Computes the MTTDL of a single redundancy group of `code` under `params`.
///
/// # Errors
///
/// Returns [`ReliabilityError::DegenerateModel`] if the code cannot survive
/// even a single failure (the chain would be absorbed immediately, MTTDL is
/// just the first failure time), or a solver error if the linear system is
/// singular (which does not happen for well-formed chains).
///
/// # Example
///
/// ```
/// use drc_codes::CodeKind;
/// use drc_reliability::{group_mttdl, ReliabilityParams};
///
/// let three_rep = CodeKind::THREE_REP.build().unwrap();
/// let result = group_mttdl(three_rep.as_ref(), &ReliabilityParams::default()).unwrap();
/// assert!(result.mttdl_years > 1e8); // Table 1: 1.20e+09 years
/// ```
pub fn group_mttdl(
    code: &dyn ErasureCode,
    params: &ReliabilityParams,
) -> Result<MttdlResult, ReliabilityError> {
    let n = code.node_count();
    let lambda = params.failure_rate_per_hour();
    let mut mu = params.repair_rate_per_hour();
    if params.scale_repair_with_traffic {
        let blocks_per_node = code.stored_blocks() as f64 / n as f64;
        let traffic_factor = (code.single_node_repair_blocks() / blocks_per_node).max(1.0);
        mu /= traffic_factor;
    }

    // survivors[f] = number of non-fatal failure patterns of size f. Under the
    // worst-case model this is "all patterns" up to the tolerance and zero
    // beyond it; under the pattern-aware model it is counted exhaustively.
    let tolerance = code.fault_tolerance();
    if tolerance == 0 {
        return Err(ReliabilityError::DegenerateModel {
            code: code.name().to_string(),
            reason: "code cannot survive any node failure".to_string(),
        });
    }
    let max_states = match params.fatality_model {
        FatalityModel::WorstCase => tolerance,
        FatalityModel::PatternAware => n - 1,
    };
    // non_fatal[f] for f = 0..=max_states (+1 sentinel for transitions out).
    let mut non_fatal: Vec<f64> = Vec::with_capacity(max_states + 2);
    for f in 0..=(max_states + 1).min(n) {
        let count = match params.fatality_model {
            FatalityModel::WorstCase => {
                if f <= tolerance {
                    binomial(n, f)
                } else {
                    0.0
                }
            }
            FatalityModel::PatternAware => {
                let (fatal, total) = code.count_fatal_patterns(f);
                total as f64 - fatal as f64
            }
        };
        non_fatal.push(count);
    }
    // Transient states are those f with a non-zero count of non-fatal patterns.
    let num_states = non_fatal
        .iter()
        .take(max_states + 1)
        .take_while(|&&c| c > 0.0)
        .count();
    debug_assert!(num_states >= 1);

    // Build the linear system for expected absorption times T_f:
    //   (sum of outgoing rates) T_f - sum_g rate(f->g) T_g = 1
    // where g ranges over transient states; transitions to the absorbing
    // state contribute only to the diagonal.
    let mut a = vec![vec![0.0; num_states]; num_states];
    let mut b = vec![1.0; num_states];
    for f in 0..num_states {
        let failure_rate = (n - f) as f64 * lambda;
        let repair_rate = if f == 0 {
            0.0
        } else {
            match params.repair_strategy {
                RepairStrategy::Sequential => mu,
                RepairStrategy::Parallel => f as f64 * mu,
            }
        };
        // Probability that the (f+1)-th failure lands on a non-fatal pattern,
        // assuming the current pattern is uniformly distributed among
        // non-fatal patterns of size f.
        let p_survive = if non_fatal[f] > 0.0 && f + 1 < non_fatal.len() {
            ((non_fatal[f + 1] * (f as f64 + 1.0)) / (non_fatal[f] * (n - f) as f64)).min(1.0)
        } else {
            0.0
        };
        let out_rate = failure_rate + repair_rate;
        a[f][f] = out_rate;
        b[f] = 1.0;
        // Failure to the next (still transient) state.
        if f + 1 < num_states && p_survive > 0.0 {
            a[f][f + 1] -= failure_rate * p_survive;
        }
        // Repair back to the previous state.
        if f > 0 {
            a[f][f - 1] -= repair_rate;
        }
        let _ = out_rate;
    }
    let times = solve_linear(&a, &b)?;
    let mttdl_hours = times[0];
    Ok(MttdlResult {
        code: code.name().to_string(),
        group_size: n,
        fault_tolerance: tolerance,
        mttdl_hours,
        mttdl_years: mttdl_hours / HOURS_PER_YEAR,
        state_times_hours: times,
    })
}

/// The closed-form high-repair-rate approximation
/// `MTTDL ≈ μ^t / (n (n-1) ... (n-t) λ^(t+1))` for a code of length `n` and
/// tolerance `t` under sequential repair.
///
/// Useful as an analytic cross-check of the exact chain solution.
pub fn closed_form_mttdl_hours(n: usize, tolerance: usize, params: &ReliabilityParams) -> f64 {
    let lambda = params.failure_rate_per_hour();
    let mu = params.repair_rate_per_hour();
    let mut denom = 1.0;
    for i in 0..=tolerance {
        denom *= (n - i) as f64;
    }
    mu.powi(tolerance as i32) / (denom * lambda.powi(tolerance as i32 + 1))
}

fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let mut result = 1.0;
    for i in 0..k {
        result *= (n - i) as f64 / (i + 1) as f64;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use drc_codes::CodeKind;

    fn params() -> ReliabilityParams {
        ReliabilityParams::default()
    }

    #[test]
    fn exact_chain_close_to_closed_form_for_replication() {
        let code = CodeKind::THREE_REP.build().unwrap();
        let exact = group_mttdl(code.as_ref(), &params()).unwrap();
        let approx = closed_form_mttdl_hours(3, 2, &params()) / HOURS_PER_YEAR;
        let rel = (exact.mttdl_years - approx).abs() / approx;
        assert!(rel < 0.01, "exact {} vs approx {approx}", exact.mttdl_years);
    }

    #[test]
    fn table1_orderings_hold() {
        let p = params();
        let mttdl = |kind: CodeKind| {
            group_mttdl(kind.build().unwrap().as_ref(), &p)
                .unwrap()
                .mttdl_years
        };
        let three_rep = mttdl(CodeKind::THREE_REP);
        let pentagon = mttdl(CodeKind::Pentagon);
        let heptagon = mttdl(CodeKind::Heptagon);
        let heptagon_local = mttdl(CodeKind::HeptagonLocal);
        let raid_10_9 = mttdl(CodeKind::RAID_M_10_9);
        let raid_12_11 = mttdl(CodeKind::RAID_M_12_11);
        // Orderings of Table 1.
        assert!(heptagon_local > raid_10_9);
        assert!(raid_10_9 > three_rep);
        assert!(three_rep > raid_12_11);
        assert!(raid_12_11 > pentagon);
        assert!(pentagon > heptagon);
        // Rough magnitudes (the paper reports 1.20e9 for 3-rep, 1.05e8 for the
        // pentagon, 2.68e7 for the heptagon, 8.34e9 for heptagon-local).
        assert!(three_rep > 1e8 && three_rep < 1e10);
        assert!(pentagon > 1e7 && pentagon < 1e9);
        assert!(heptagon > 1e6 && heptagon < 1e8);
        assert!(heptagon_local > 1e9 && heptagon_local < 1e11);
    }

    #[test]
    fn pattern_aware_model_is_at_least_as_optimistic() {
        let p = params();
        let pa = p.with_fatality_model(FatalityModel::PatternAware);
        for kind in [
            CodeKind::THREE_REP,
            CodeKind::Pentagon,
            CodeKind::RAID_M_10_9,
            CodeKind::HeptagonLocal,
        ] {
            let code = kind.build().unwrap();
            let worst = group_mttdl(code.as_ref(), &p).unwrap().mttdl_years;
            let aware = group_mttdl(code.as_ref(), &pa).unwrap().mttdl_years;
            assert!(
                aware >= worst * 0.99,
                "{kind}: pattern-aware {aware} < worst-case {worst}"
            );
        }
    }

    #[test]
    fn parallel_repair_improves_mttdl() {
        let p = params();
        let par = p.with_repair_strategy(RepairStrategy::Parallel);
        let code = CodeKind::HeptagonLocal.build().unwrap();
        let seq = group_mttdl(code.as_ref(), &p).unwrap().mttdl_years;
        let parallel = group_mttdl(code.as_ref(), &par).unwrap().mttdl_years;
        assert!(parallel > seq);
    }

    #[test]
    fn faster_repair_and_more_reliable_nodes_increase_mttdl() {
        let code = CodeKind::Pentagon.build().unwrap();
        let base = group_mttdl(code.as_ref(), &params()).unwrap().mttdl_years;
        let mut faster = params();
        faster.node_repair_hours /= 2.0;
        assert!(group_mttdl(code.as_ref(), &faster).unwrap().mttdl_years > base);
        let mut tougher = params();
        tougher.node_mttf_hours *= 2.0;
        assert!(group_mttdl(code.as_ref(), &tougher).unwrap().mttdl_years > base);
    }

    #[test]
    fn repair_traffic_scaling_penalises_reed_solomon() {
        let rs = CodeKind::ReedSolomon {
            data: 10,
            parity: 4,
        }
        .build()
        .unwrap();
        let plain = group_mttdl(rs.as_ref(), &params()).unwrap().mttdl_years;
        let mut scaled_params = params();
        scaled_params.scale_repair_with_traffic = true;
        let scaled = group_mttdl(rs.as_ref(), &scaled_params)
            .unwrap()
            .mttdl_years;
        assert!(scaled < plain);
        // Replication is unaffected (repair factor 1).
        let rep = CodeKind::THREE_REP.build().unwrap();
        let a = group_mttdl(rep.as_ref(), &params()).unwrap().mttdl_years;
        let b = group_mttdl(rep.as_ref(), &scaled_params)
            .unwrap()
            .mttdl_years;
        assert!((a - b).abs() / a < 1e-9);
    }

    #[test]
    fn single_replica_code_is_degenerate() {
        let one_rep = CodeKind::Replication { replicas: 1 }.build().unwrap();
        assert!(matches!(
            group_mttdl(one_rep.as_ref(), &params()),
            Err(ReliabilityError::DegenerateModel { .. })
        ));
    }

    #[test]
    fn binomial_helper() {
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(3, 5), 0.0);
    }
}
