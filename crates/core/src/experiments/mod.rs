//! Experiment drivers: one module per table or figure of the paper.
//!
//! | Paper artifact | Module | Regenerates |
//! |---|---|---|
//! | Table 1 | [`table1`] | storage overhead, code length, MTTDL per code |
//! | §3.1 repair-bandwidth analysis | [`repair_bandwidth`] | repair and degraded-read network blocks per code |
//! | Fig. 3 | [`fig3`] | map-task locality vs load for µ = 2, 4, 8 and three schedulers |
//! | Fig. 4 | [`fig4`] | Terasort job time / network traffic / locality on set-up 1 |
//! | Fig. 5 | [`fig5`] | Terasort network traffic / locality on set-up 2 |
//! | §5 extensions | [`encoding`], [`degraded_mr`] | encoding throughput; MapReduce under node failures |
//! | substrate extension | [`overlap`] | repair / degraded-read overlap in virtual time on the event-driven HDFS |
//! | substrate extension | [`shuffle_contention`] | job slowdown when the event-driven shuffle shares links with a concurrent repair pass |
//! | substrate extension | [`failure_trace`] | detection-lag-dependent job slowdown and repair/job overlap under live Poisson failure traces |
//! | substrate extension | [`metadata_scale`] | placement-index bytes and bytes/block per code, up to 1000 nodes / 10M blocks (structural; query rates live in the benchmark ledger) |
//! | substrate extension | [`repair_pipeline`] | chunk-streamed repair virtual time vs the serial whole-block schedule, per code × chunk size |
//!
//! Every experiment has one shape: a row type that implements
//! [`Row`](crate::Row) (its column headers, its formatted cells, its
//! `Serialize`) and a driver that returns a [`Table`](crate::Table) of those
//! rows. The table prints as one paper-style text table and serialises as
//! its run configuration followed by its rows, so the `repro` binary in
//! `drc-bench`, the integration tests and the benchmark all consume the same
//! source of truth, and tests read the `rows` directly. Two results keep a
//! type of their own: [`fig3::Fig3Data`], which prints pivoted panels rather
//! than one line per point, and [`fig4::TerasortSweep`] (Figs. 4 and 5),
//! whose `setup` and `points` fields the benchmark reads; its points are
//! `Row`s printed by the same renderer.
//!
//! Every driver decomposes its sweep into independent, shared-nothing
//! *cells* (one code × config point each) and fans them out through the
//! [`harness`] module, whose scoped threads share one cell queue — output stays
//! byte-identical at every harness width because results merge in fixed
//! cell order after the join.
//!
//! Eleven of the twelve tables are byte-reproducible from run to run as
//! well. [`encoding`] is the one host-dependent table: its
//! `throughput_mb_per_s` / `elapsed_s` are the paper's encode-throughput
//! measurement, the only wall-clock read in this crate (`drc-lint`'s
//! `determinism` rule holds every other module to that).

pub mod degraded_mr;
pub mod encoding;
pub mod failure_trace;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod harness;
pub mod metadata_scale;
pub mod overlap;
pub mod repair_bandwidth;
pub mod repair_pipeline;
pub mod shuffle_contention;
pub mod table1;

/// How much work an experiment run should do.
///
/// The paper's figures average over many runs; the `Full` profile matches
/// that, while `Quick` keeps integration tests and CI fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Effort {
    /// Few trials; seconds of runtime. Used by tests and the default `repro` run.
    #[default]
    Quick,
    /// Many trials; the smoothest curves.
    Full,
}

impl Effort {
    /// Number of random trials to average per experimental point.
    pub fn trials(&self) -> usize {
        match self {
            Effort::Quick => 30,
            Effort::Full => 300,
        }
    }
}

/// The base RNG seed shared by all experiments (reproducible by default).
pub const DEFAULT_SEED: u64 = 0x5EED_2014;
