//! Fig. 5: Terasort on set-up 2 (9 server-class nodes, 4 map slots) —
//! network traffic and data locality vs load for 3-rep, 2-rep and pentagon.

use drc_cluster::ClusterSpec;
use drc_codes::CodeKind;
use drc_workloads::setup2_loads;

use crate::experiments::fig4::{run_terasort_sweep, TerasortSweep};
use crate::experiments::Effort;
use crate::DrcError;

/// The Fig. 5 result is a Terasort sweep on set-up 2.
pub type Fig5Data = TerasortSweep;

/// Runs the Fig. 5 sweep: set-up 2, Terasort, loads 25–100%, codes 3-rep,
/// 2-rep and pentagon (the heptagon would fit set-up 2's nine nodes too, but
/// the paper only measured the pentagon there).
///
/// # Errors
///
/// Propagates placement or execution errors (none occur for this fixed
/// configuration).
pub fn run_fig5(effort: Effort) -> Result<Fig5Data, DrcError> {
    run_terasort_sweep(
        "setup2 (9 nodes, 4 map slots)",
        ClusterSpec::setup2(),
        CodeKind::fig5_set(),
        setup2_loads(),
        effort,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_matches_paper() {
        let sweep = run_fig5(Effort::Quick).unwrap();
        assert_eq!(sweep.points.len(), 3 * 4);
        let p = |code, load| {
            sweep
                .points
                .iter()
                .find(|p| p.code == code && p.load_percent == load)
                .unwrap()
        };
        // The paper's conclusion (iv): with 4 cores/slots per node, the
        // pentagon's performance is very close to 2-rep up to 75% load.
        let pent = p(CodeKind::Pentagon, 75.0);
        let two = p(CodeKind::TWO_REP, 75.0);
        assert!(pent.data_locality_percent > 85.0);
        assert!((pent.job_time_s - two.job_time_s).abs() / two.job_time_s < 0.2);
        // Locality still degrades with load for the pentagon.
        assert!(
            p(CodeKind::Pentagon, 25.0).data_locality_percent
                >= p(CodeKind::Pentagon, 100.0).data_locality_percent
        );
        // Network traffic rises with load for every code.
        for code in CodeKind::fig5_set() {
            assert!(p(code, 100.0).network_traffic_gb > p(code, 25.0).network_traffic_gb);
        }
        // 2-rep and 3-rep are nearly indistinguishable on this set-up.
        let three = p(CodeKind::THREE_REP, 100.0);
        let two_full = p(CodeKind::TWO_REP, 100.0);
        assert!((three.data_locality_percent - two_full.data_locality_percent).abs() < 10.0);
    }
}
