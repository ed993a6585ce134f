//! Fig. 3: map-task data locality vs load, for µ = 2, 4, 8 map slots per
//! node, under delay scheduling, maximum matching and (for µ = 4) the
//! modified peeling algorithm.

use serde::Serialize;

use drc_codes::CodeKind;
use drc_mapreduce::{simulate_locality_each, LocalityConfig, LocalityResult, SchedulerKind};
use drc_workloads::fig3_loads;

use crate::experiments::{harness, Effort, DEFAULT_SEED};
use crate::render::TextTable;
use crate::DrcError;

/// The full set of Fig. 3 curves.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig3Data {
    /// One locality result per (µ, code, scheduler, load) combination.
    pub points: Vec<LocalityResult>,
}

/// Runs the Fig. 3 simulation sweep.
///
/// The three top panels sweep µ ∈ {2, 4, 8} with delay scheduling and maximum
/// matching for 2-rep, pentagon and heptagon; the fourth panel adds the
/// peeling scheduler at µ = 4 (matching the paper's bottom-right subplot).
///
/// # Errors
///
/// Propagates any simulation configuration error (which does not occur for
/// the fixed sweep used here).
pub fn run_fig3(effort: Effort) -> Result<Fig3Data, DrcError> {
    use SchedulerKind::{Delay, MaxMatching, Peeling};
    let trials = effort.trials();
    let loads = fig3_loads();
    // One cell per (µ, code, load) point, µ → code → load: each trial is
    // placed once and read by every scheduler of the point, each on a copy
    // of the trial's rng taken right after placement — exactly the state a
    // cell of its own would hand it. The peeling panel (µ = 4, pentagon and
    // heptagon, as in the paper) rides in its points' cells.
    let mut cells = Vec::new();
    for &mu in &[2usize, 4, 8] {
        for code in CodeKind::fig3_set() {
            let peeling = mu == 4 && matches!(code, CodeKind::Pentagon | CodeKind::Heptagon);
            let schedulers: &[SchedulerKind] = if peeling {
                &[Delay, MaxMatching, Peeling]
            } else {
                &[Delay, MaxMatching]
            };
            for load in &loads {
                let config = LocalityConfig::new(code, Delay, mu, load.percent)
                    .with_trials(trials)
                    .with_seed(DEFAULT_SEED);
                cells.push(move || Ok(simulate_locality_each(&config, schedulers)?));
            }
        }
    }
    let results: Vec<Vec<LocalityResult>> = harness::run_cells(cells)?;
    // The figure's panel order: µ → code → scheduler → load for delay and
    // max-matching, then the peeling panel, code → load. Each chunk holds
    // one (µ, code) pair's cells, its loads in order.
    let mut points = Vec::with_capacity(results.iter().map(Vec::len).sum());
    for curves in results.chunks(loads.len()) {
        for at in [0, 1] {
            points.extend(curves.iter().map(|cell| cell[at].clone()));
        }
    }
    for curves in results.chunks(loads.len()) {
        points.extend(curves.iter().filter_map(|cell| cell.get(2).cloned()));
    }
    Ok(Fig3Data { points })
}

impl std::fmt::Display for Fig3Data {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let loads = fig3_loads();
        let mut slots: Vec<usize> = self.points.iter().map(|p| p.map_slots).collect();
        slots.sort_unstable();
        slots.dedup();
        for &mu in &slots {
            let mut schedulers: Vec<SchedulerKind> = self
                .points
                .iter()
                .filter(|p| p.map_slots == mu)
                .map(|p| p.scheduler)
                .collect();
            schedulers.sort_by_key(|s| format!("{s:?}"));
            schedulers.dedup();
            for scheduler in schedulers {
                let mut table = TextTable::new(
                    format!("Fig. 3 panel: mu = {mu} map slots, {scheduler}"),
                    &["Code", "25% load", "50% load", "75% load", "100% load"],
                );
                let mut codes: Vec<CodeKind> = self
                    .points
                    .iter()
                    .filter(|p| p.map_slots == mu && p.scheduler == scheduler)
                    .map(|p| p.code)
                    .collect();
                codes.dedup();
                for code in codes {
                    let mut cells = vec![code.to_string()];
                    for load in &loads {
                        let point = self.points.iter().find(|p| {
                            (p.map_slots, p.scheduler, p.code) == (mu, scheduler, code)
                                && p.load_percent == load.percent
                        });
                        cells.push(point.map_or_else(
                            || "-".to_string(),
                            |p| format!("{:.1}%", p.mean_locality_percent),
                        ));
                    }
                    table.push_row(cells);
                }
                writeln!(f, "{table}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The points of one `(µ, scheduler, code, load)` selection.
    fn select(
        data: &Fig3Data,
        mu: usize,
        scheduler: SchedulerKind,
        code: Option<CodeKind>,
        load: Option<f64>,
    ) -> Vec<&LocalityResult> {
        data.points
            .iter()
            .filter(|p| p.map_slots == mu && p.scheduler == scheduler)
            .filter(|p| code.is_none_or(|c| p.code == c))
            .filter(|p| load.is_none_or(|l| p.load_percent == l))
            .collect()
    }

    #[test]
    fn sweep_covers_every_panel_of_the_figure() {
        let data = run_fig3(Effort::Quick).unwrap();
        // 3 slots x 3 codes x 2 schedulers x 4 loads + peeling: 2 codes x 4 loads.
        assert_eq!(data.points.len(), 3 * 3 * 2 * 4 + 2 * 4);
        let panel = |mu, scheduler| select(&data, mu, scheduler, None, None).len();
        for &mu in &[2usize, 4, 8] {
            assert_eq!(panel(mu, SchedulerKind::Delay), 12);
            assert_eq!(panel(mu, SchedulerKind::MaxMatching), 12);
        }
        assert_eq!(panel(4, SchedulerKind::Peeling), 8);
        assert_eq!(panel(2, SchedulerKind::Peeling), 0);
        let full = Some(100.0);
        let pentagon = Some(CodeKind::Pentagon);
        assert_eq!(
            select(&data, 2, SchedulerKind::Delay, pentagon, full).len(),
            1
        );
        let rendered = data.to_string();
        assert!(rendered.contains("mu = 2"));
        assert!(rendered.contains("peeling"));
    }

    #[test]
    fn figure_shape_matches_paper() {
        let data = run_fig3(Effort::Quick).unwrap();
        let loc = |mu, sched, code, load| {
            let point = select(&data, mu, sched, Some(code), Some(load));
            assert_eq!(point.len(), 1, "one point per µ, scheduler, code and load");
            point[0].mean_locality_percent
        };
        // At mu = 2 and full load the ordering is 2-rep > pentagon > heptagon.
        assert!(
            loc(2, SchedulerKind::Delay, CodeKind::TWO_REP, 100.0)
                > loc(2, SchedulerKind::Delay, CodeKind::Pentagon, 100.0)
        );
        assert!(
            loc(2, SchedulerKind::Delay, CodeKind::Pentagon, 100.0)
                > loc(2, SchedulerKind::Delay, CodeKind::Heptagon, 100.0)
        );
        // Locality improves with more map slots for the array codes.
        assert!(
            loc(8, SchedulerKind::Delay, CodeKind::Heptagon, 100.0)
                > loc(2, SchedulerKind::Delay, CodeKind::Heptagon, 100.0)
        );
        // Peeling improves on delay scheduling at mu = 4 (the bottom panel).
        assert!(
            loc(4, SchedulerKind::Peeling, CodeKind::Pentagon, 100.0)
                >= loc(4, SchedulerKind::Delay, CodeKind::Pentagon, 100.0) - 0.5
        );
        // Max-matching is the upper benchmark everywhere we sample.
        assert!(
            loc(4, SchedulerKind::MaxMatching, CodeKind::Heptagon, 75.0)
                >= loc(4, SchedulerKind::Delay, CodeKind::Heptagon, 75.0) - 0.5
        );
    }
}
