//! Fig. 3: map-task data locality vs load, for µ = 2, 4, 8 map slots per
//! node, under delay scheduling, maximum matching and (for µ = 4) the
//! modified peeling algorithm.

use serde::Serialize;

use drc_codes::CodeKind;
use drc_mapreduce::{simulate_locality, LocalityConfig, LocalityResult, SchedulerKind};
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

impl Fig3Data {
    /// The locality points of one panel (a fixed µ and scheduler), ordered by
    /// code then load — one plotted curve per code.
    pub fn panel(&self, map_slots: usize, scheduler: SchedulerKind) -> Vec<&LocalityResult> {
        self.points
            .iter()
            .filter(|p| p.map_slots == map_slots && p.scheduler == scheduler)
            .collect()
    }

    /// Looks up a single point.
    pub fn point(
        &self,
        map_slots: usize,
        scheduler: SchedulerKind,
        code: CodeKind,
        load: f64,
    ) -> Option<&LocalityResult> {
        self.points.iter().find(|p| {
            p.map_slots == map_slots
                && p.scheduler == scheduler
                && p.code == code
                && (p.load_percent - load).abs() < 1e-9
        })
    }
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
    let trials = effort.trials();
    // One cell per (µ, code, scheduler, load) point, in the figure's fixed
    // panel order; every cell seeds its own rng from the shared base seed.
    let mut specs: Vec<(CodeKind, SchedulerKind, usize, f64)> = Vec::new();
    for &mu in &[2usize, 4, 8] {
        for code in CodeKind::fig3_set() {
            for scheduler in [SchedulerKind::Delay, SchedulerKind::MaxMatching] {
                for load in fig3_loads() {
                    specs.push((code, scheduler, mu, load.percent));
                }
            }
        }
    }
    // The peeling panel (µ = 4), pentagon and heptagon as in the paper.
    for code in [CodeKind::Pentagon, CodeKind::Heptagon] {
        for load in fig3_loads() {
            specs.push((code, SchedulerKind::Peeling, 4, load.percent));
        }
    }
    let cells = specs
        .into_iter()
        .map(|(code, scheduler, mu, load)| move || run_point(code, scheduler, mu, load, trials))
        .collect();
    Ok(Fig3Data {
        points: harness::run_cells(cells)?,
    })
}

fn run_point(
    code: CodeKind,
    scheduler: SchedulerKind,
    mu: usize,
    load: f64,
    trials: usize,
) -> Result<LocalityResult, DrcError> {
    let config = LocalityConfig::new(code, scheduler, mu, load)
        .with_trials(trials)
        .with_seed(DEFAULT_SEED);
    Ok(simulate_locality(&config)?)
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
                        let value = self
                            .point(mu, scheduler, code, load.percent)
                            .map(|p| format!("{:.1}%", p.mean_locality_percent))
                            .unwrap_or_else(|| "-".to_string());
                        cells.push(value);
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

    #[test]
    fn sweep_covers_every_panel_of_the_figure() {
        let data = run_fig3(Effort::Quick).unwrap();
        // 3 slots x 3 codes x 2 schedulers x 4 loads + peeling: 2 codes x 4 loads.
        assert_eq!(data.points.len(), 3 * 3 * 2 * 4 + 2 * 4);
        for &mu in &[2usize, 4, 8] {
            assert_eq!(data.panel(mu, SchedulerKind::Delay).len(), 12);
            assert_eq!(data.panel(mu, SchedulerKind::MaxMatching).len(), 12);
        }
        assert_eq!(data.panel(4, SchedulerKind::Peeling).len(), 8);
        assert_eq!(data.panel(2, SchedulerKind::Peeling).len(), 0);
        assert!(data
            .point(2, SchedulerKind::Delay, CodeKind::Pentagon, 100.0)
            .is_some());
        let rendered = data.to_string();
        assert!(rendered.contains("mu = 2"));
        assert!(rendered.contains("peeling"));
    }

    #[test]
    fn figure_shape_matches_paper() {
        let data = run_fig3(Effort::Quick).unwrap();
        let loc = |mu, sched, code, load| {
            data.point(mu, sched, code, load)
                .unwrap()
                .mean_locality_percent
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
