//! `simulate_locality_each` — one placement, task list and graph per trial,
//! each scheduler on a clone of the trial's generator taken right after
//! placement — against the loop it replaced, kept verbatim in
//! `support/old_locality.rs`, which places every trial again for every
//! scheduler. Every `LocalityResult` field must be equal, floats by bit
//! pattern, for:
//!
//! * every Fig. 3 point (µ ∈ {2, 4, 8} × 2-rep, pentagon, heptagon × the
//!   four loads) under all three schedulers at the quick effort's 30
//!   trials;
//! * `mr_sweep`'s shape, `ClusterSpec::datacenter(120)` at 400 % for the
//!   pentagon (1 920 tasks on 480 slots);
//! * one heptagon-local and one RS(10,4) point, with the schedulers listed
//!   in reverse and with one listed twice;
//!
//! each on two seeds. `simulate_locality` itself, the one-scheduler case,
//! is held to the oracle on every Fig. 3 point too.
//!
//! Mutants made on a copy of the library, each failing here:
//!
//! * the clone taken *before* placement: every scheduler's draws shift
//!   (the Fig. 3 and wide-code tests fail);
//! * one generator passed through the schedulers in turn: only the
//!   reordered lists fail, because delay is the one scheduler whose
//!   locality depends on its draws — max-matching's is the maximum
//!   matching's size whatever its shuffles, and peeling draws nothing — so
//!   delay listed first, as in Fig. 3, still sees the right state;
//! * samples filed under the wrong scheduler (the results reversed): the
//!   Fig. 3 and wide-code tests fail.
//!
//! The `mr_sweep` shape catches none of them: at 400 % load every scheduler
//! fills all but at most a few of the 480 slots locally, so its three
//! results are equal and depend on the placement alone. It holds the
//! shared loop to the oracle at the benchmark's size, not the rng hand-off.

use drc_cluster::ClusterSpec;
use drc_codes::CodeKind;
use drc_mapreduce::{
    simulate_locality, simulate_locality_each, LocalityConfig, LocalityResult, SchedulerKind,
};

#[path = "support/old_locality.rs"]
mod old_locality;

/// Fig. 3's loads (`drc_workloads::fig3_loads`, a crate above this one).
const FIG3_LOADS: [f64; 4] = [25.0, 50.0, 75.0, 100.0];

const SEEDS: [u64; 2] = [0x5EED_2014, 7];

/// Every field of `got` equals `want`'s, floats compared by bit pattern.
fn assert_same(got: &LocalityResult, want: &LocalityResult, case: &str) {
    assert_eq!(
        (
            got.code,
            got.scheduler,
            got.map_slots,
            got.tasks,
            got.trials
        ),
        (
            want.code,
            want.scheduler,
            want.map_slots,
            want.tasks,
            want.trials
        ),
        "{case}"
    );
    let bits = |r: &LocalityResult| {
        [
            r.load_percent.to_bits(),
            r.mean_locality_percent.to_bits(),
            r.std_dev_percent.to_bits(),
        ]
    };
    assert_eq!(bits(got), bits(want), "{case}: {got:?} vs {want:?}");
}

/// Runs `schedulers` on one shared call and requires each result to be the
/// oracle's for that scheduler alone; returns the oracle's results.
fn assert_each_matches_the_oracle(
    config: &LocalityConfig,
    schedulers: &[SchedulerKind],
) -> Vec<LocalityResult> {
    let got = simulate_locality_each(config, schedulers).unwrap();
    assert_eq!(got.len(), schedulers.len());
    let mut oracle = Vec::new();
    for (got, &scheduler) in got.iter().zip(schedulers) {
        let alone = LocalityConfig {
            scheduler,
            ..config.clone()
        };
        let want = old_locality::simulate_locality(&alone).unwrap();
        assert_same(got, &want, &case(&alone));
        oracle.push(want);
    }
    oracle
}

fn case(config: &LocalityConfig) -> String {
    format!(
        "{} / {} / µ {} / {} % / seed {}",
        config.code,
        config.scheduler,
        config.cluster.map_slots_per_node,
        config.load_percent,
        config.seed
    )
}

#[test]
fn every_fig3_point_matches_the_oracle_under_every_scheduler() {
    let schedulers = SchedulerKind::all();
    for seed in SEEDS {
        for mu in [2, 4, 8] {
            for code in [CodeKind::TWO_REP, CodeKind::Pentagon, CodeKind::Heptagon] {
                for load in FIG3_LOADS {
                    // `scheduler` is ignored by the shared call; set it to
                    // one that is not first to show that.
                    let config = LocalityConfig::new(code, SchedulerKind::Peeling, mu, load)
                        .with_trials(30)
                        .with_seed(seed);
                    let oracle = assert_each_matches_the_oracle(&config, &schedulers);
                    for (&scheduler, want) in schedulers.iter().zip(&oracle) {
                        let alone = LocalityConfig {
                            scheduler,
                            ..config.clone()
                        };
                        let got = simulate_locality(&alone).unwrap();
                        assert_same(&got, want, &format!("alone: {}", case(&alone)));
                    }
                }
            }
        }
    }
}

#[test]
fn the_benchmark_shape_matches_the_oracle() {
    let spec = ClusterSpec::datacenter(120);
    assert_eq!(
        (spec.tasks_for_load(400.0), spec.total_map_slots()),
        (1920, 480)
    );
    for seed in SEEDS {
        let config = LocalityConfig {
            cluster: spec.clone(),
            ..LocalityConfig::new(CodeKind::Pentagon, SchedulerKind::Delay, 4, 400.0)
        }
        .with_trials(3)
        .with_seed(seed);
        assert_each_matches_the_oracle(&config, &SchedulerKind::all());
    }
}

#[test]
fn wide_codes_match_the_oracle_in_any_scheduler_order() {
    use SchedulerKind::{Delay, MaxMatching, Peeling};
    for seed in SEEDS {
        for (code, mu, load) in [
            (CodeKind::HeptagonLocal, 4, 75.0),
            (
                CodeKind::ReedSolomon {
                    data: 10,
                    parity: 4,
                },
                2,
                100.0,
            ),
        ] {
            let config = LocalityConfig::new(code, Delay, mu, load)
                .with_trials(20)
                .with_seed(seed);
            assert_each_matches_the_oracle(&config, &[Peeling, MaxMatching, Delay]);
            assert_each_matches_the_oracle(&config, &[MaxMatching, Delay, MaxMatching]);
        }
    }
}
