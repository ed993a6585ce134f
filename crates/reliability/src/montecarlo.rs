//! Monte-Carlo estimation of the MTTDL of one redundancy group, used to
//! cross-validate the Markov-chain solver.
//!
//! The simulation is event-driven: up nodes fail after exponential times,
//! down nodes are repaired after exponential times (one at a time under
//! sequential repair), and a run ends when the set of simultaneously-down
//! nodes becomes unrecoverable for the code. With the realistic Table 1
//! parameters a single run would need billions of events, so Monte-Carlo is
//! only practical (and only used) with artificially small repair-to-failure
//! ratios — which is exactly what is needed to validate the solver.

use std::collections::BTreeSet;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use drc_codes::ErasureCode;

use crate::params::{ReliabilityParams, RepairStrategy, HOURS_PER_YEAR};

/// Result of a Monte-Carlo MTTDL estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloResult {
    /// Name of the code.
    pub code: String,
    /// Number of independent runs.
    pub runs: usize,
    /// Sample mean of the time to data loss, in hours.
    pub mean_hours: f64,
    /// Sample mean in years.
    pub mean_years: f64,
    /// Standard error of the mean, in hours.
    pub std_error_hours: f64,
}

/// Estimates the group MTTDL of `code` by simulating `runs` independent
/// failure/repair histories with the given `seed`.
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn monte_carlo_mttdl(
    code: &dyn ErasureCode,
    params: &ReliabilityParams,
    runs: usize,
    seed: u64,
) -> MonteCarloResult {
    assert!(runs > 0, "at least one run is required");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let samples: Vec<f64> = (0..runs)
        .map(|_| simulate_one_group(code, params, &mut rng))
        .collect();
    let mean = samples.iter().sum::<f64>() / runs as f64;
    let variance =
        samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (runs.max(2) - 1) as f64;
    let std_error = (variance / runs as f64).sqrt();
    MonteCarloResult {
        code: code.name().to_string(),
        runs,
        mean_hours: mean,
        mean_years: mean / HOURS_PER_YEAR,
        std_error_hours: std_error,
    }
}

/// Simulates one failure/repair history until data loss; returns the time in
/// hours.
fn simulate_one_group<R: Rng + ?Sized>(
    code: &dyn ErasureCode,
    params: &ReliabilityParams,
    rng: &mut R,
) -> f64 {
    let n = code.node_count();
    let lambda = params.failure_rate_per_hour();
    let mu = params.repair_rate_per_hour();
    let mut now = 0.0f64;
    let mut down: BTreeSet<usize> = BTreeSet::new();

    loop {
        let up_count = n - down.len();
        let failure_rate = up_count as f64 * lambda;
        let repair_rate = if down.is_empty() {
            0.0
        } else {
            match params.repair_strategy {
                RepairStrategy::Sequential => mu,
                RepairStrategy::Parallel => down.len() as f64 * mu,
            }
        };
        let total_rate = failure_rate + repair_rate;
        debug_assert!(total_rate > 0.0);
        now += exponential(total_rate, rng);
        // Decide which event happened.
        if rng.gen::<f64>() * total_rate < failure_rate {
            // A uniformly random up node fails.
            let victim_rank = rng.gen_range(0..up_count);
            let victim = (0..n)
                .filter(|node| !down.contains(node))
                .nth(victim_rank)
                // drc-lint: allow(panic-hygiene): victim_rank < up_count and the filter
                // yields exactly up_count nodes, both computed in this block.
                .expect("victim rank within up nodes");
            down.insert(victim);
            if !code.can_recover(&down) {
                return now;
            }
        } else {
            // One down node finishes repair (uniformly random choice).
            let fixed_rank = rng.gen_range(0..down.len());
            // drc-lint: allow(panic-hygiene): fixed_rank < down.len() by the
            // gen_range bound on the previous line.
            let fixed = *down.iter().nth(fixed_rank).expect("non-empty down set");
            down.remove(&fixed);
        }
    }
}

fn exponential<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::group_mttdl;
    use drc_codes::CodeKind;

    /// Artificially failure-prone parameters so runs terminate quickly.
    fn fast_params() -> ReliabilityParams {
        ReliabilityParams {
            node_mttf_hours: 100.0,
            node_repair_hours: 40.0,
            ..ReliabilityParams::default()
        }
    }

    #[test]
    fn monte_carlo_agrees_with_markov_for_replication() {
        let code = CodeKind::THREE_REP.build().unwrap();
        let params = fast_params();
        let markov = group_mttdl(code.as_ref(), &params).unwrap();
        let mc = monte_carlo_mttdl(code.as_ref(), &params, 4000, 42);
        let diff = (mc.mean_hours - markov.mttdl_hours).abs();
        assert!(
            diff < 5.0 * mc.std_error_hours + 0.05 * markov.mttdl_hours,
            "monte carlo {} vs markov {} (stderr {})",
            mc.mean_hours,
            markov.mttdl_hours,
            mc.std_error_hours
        );
    }

    #[test]
    fn monte_carlo_agrees_with_markov_for_pentagon() {
        let code = CodeKind::Pentagon.build().unwrap();
        let params = fast_params();
        let markov = group_mttdl(code.as_ref(), &params).unwrap();
        let mc = monte_carlo_mttdl(code.as_ref(), &params, 4000, 7);
        let diff = (mc.mean_hours - markov.mttdl_hours).abs();
        assert!(
            diff < 5.0 * mc.std_error_hours + 0.05 * markov.mttdl_hours,
            "monte carlo {} vs markov {}",
            mc.mean_hours,
            markov.mttdl_hours
        );
    }

    #[test]
    fn pattern_aware_markov_matches_monte_carlo_for_raid_m() {
        // The Monte-Carlo simulation is pattern-exact, so it should line up
        // with the pattern-aware Markov model (and exceed the worst-case one).
        use crate::params::FatalityModel;
        let code = CodeKind::RaidMirror { total: 4 }.build().unwrap();
        let params = fast_params();
        let aware = group_mttdl(
            code.as_ref(),
            &params.with_fatality_model(FatalityModel::PatternAware),
        )
        .unwrap();
        let worst = group_mttdl(code.as_ref(), &params).unwrap();
        let mc = monte_carlo_mttdl(code.as_ref(), &params, 3000, 11);
        assert!(mc.mean_hours > worst.mttdl_hours);
        let diff = (mc.mean_hours - aware.mttdl_hours).abs();
        assert!(
            diff < 6.0 * mc.std_error_hours + 0.1 * aware.mttdl_hours,
            "monte carlo {} vs pattern-aware markov {}",
            mc.mean_hours,
            aware.mttdl_hours
        );
    }

    #[test]
    fn result_fields_are_consistent() {
        let code = CodeKind::TWO_REP.build().unwrap();
        let mc = monte_carlo_mttdl(code.as_ref(), &fast_params(), 500, 3);
        assert_eq!(mc.code, "2-rep");
        assert_eq!(mc.runs, 500);
        assert!(mc.mean_hours > 0.0);
        assert!((mc.mean_years - mc.mean_hours / HOURS_PER_YEAR).abs() < 1e-9);
        assert!(mc.std_error_hours > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let code = CodeKind::TWO_REP.build().unwrap();
        let a = monte_carlo_mttdl(code.as_ref(), &fast_params(), 200, 5);
        let b = monte_carlo_mttdl(code.as_ref(), &fast_params(), 200, 5);
        assert_eq!(a, b);
    }
}
