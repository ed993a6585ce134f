//! Width and kernel differentials over the full quick-effort repro: the
//! cell harness must produce the same serialised output no matter how many
//! jobs fan the cells out, and no matter which GF kernel tier does the
//! arithmetic. One serial (width 1) baseline is compared against widths 2
//! and 4, and one auto-kernel run against the `reference` kernel, across
//! all 12 experiments.
//!
//! `encoding` carries wall-clock measurements inside its rows (the paper's
//! encode throughput), so it is compared structurally — every field except
//! the wall-clock ones byte-identical — while the other eleven experiments
//! must match byte-for-byte.
//!
//! The serial baseline is also held to the recorded virtual-time headlines
//! of `shuffle_contention`, `failure_trace` and `repair_pipeline`.
//!
//! The width override is the thread-local `harness::with_jobs`, not an
//! environment variable: env mutation would race with the parallel libtest
//! runner.

mod support;

use drc_core::codes::CodeKind;
use drc_core::experiments::{failure_trace, harness, repair_pipeline, shuffle_contention};
use drc_core::gf::kernel;
use serde_json::Value;
use support::assert_same_repro;

/// The virtual-time headlines of the three contention tables, as integer-
/// nanosecond quotients: exact on every host, kernel and width, and unchanged
/// since the tables were first recorded. The differentials below only hold
/// runs to each other; this holds them to the record.
fn assert_golden_headlines(baseline: &[(&'static str, Value)]) {
    let json = |name: &str| -> Value {
        let (_, value) = baseline
            .iter()
            .find(|(n, _)| *n == name)
            .expect("every experiment ran");
        value.clone()
    };

    let shuffle: shuffle_contention::ShuffleContentionReport =
        serde_json::from_value(json("shuffle_contention")).expect("round-trips");
    let slowdowns = [
        (CodeKind::TWO_REP, 1.293747816621346),
        (CodeKind::Pentagon, 1.8308832362841956),
        (CodeKind::Heptagon, 1.9349996865130876),
        (CodeKind::HeptagonLocal, 1.5745486823318045),
    ];
    assert_eq!(shuffle.rows.len(), slowdowns.len());
    for (code, slowdown) in slowdowns {
        let row = shuffle.row(code).expect("one row per code");
        assert_eq!(row.slowdown, slowdown, "shuffle_contention {code} slowdown");
    }
    assert_eq!(
        shuffle.headline_slowdown(),
        1.9349996865130876,
        "shuffle_contention headline_slowdown"
    );

    let trace: failure_trace::FailureTraceReport =
        serde_json::from_value(json("failure_trace")).expect("round-trips");
    assert_eq!(
        trace.headline_slowdown(),
        1.793159450850097,
        "failure_trace headline_slowdown"
    );
    assert_eq!(
        trace.max_repair_job_overlap_s(),
        0.233333338,
        "failure_trace max_repair_job_overlap_s"
    );

    let pipeline: repair_pipeline::RepairPipelineReport =
        serde_json::from_value(json("repair_pipeline")).expect("round-trips");
    // (pipelined / serial) at 1 MiB and at 256 KiB chunks.
    let ratios = [
        (CodeKind::TWO_REP, [0.7500000112499998, 0.6875000515624997]),
        (CodeKind::Pentagon, [0.9166666804166665, 0.8958334005208329]),
        (CodeKind::Heptagon, [0.9423077064423075, 0.941538532984615]),
        (CodeKind::HeptagonLocal, [0.89285715625, 0.8660714935267855]),
    ];
    let chunks = drc_bench::REPAIR_PIPELINE_QUICK.2;
    assert_eq!(pipeline.rows.len(), ratios.len() * chunks.len());
    for (code, per_chunk) in ratios {
        for (&chunk_bytes, ratio) in chunks.iter().zip(per_chunk) {
            let row = pipeline
                .row(code, chunk_bytes)
                .expect("one row per code and chunk size");
            assert_eq!(
                row.ratio, ratio,
                "repair_pipeline {code} ratio at {chunk_bytes} B chunks"
            );
        }
    }
    assert_eq!(
        pipeline.worst_erasure_ratio(),
        Some(0.941538532984615),
        "repair_pipeline worst_erasure_ratio"
    );
}

#[test]
fn quick_repro_is_byte_identical_at_widths_1_2_4() {
    let baseline =
        harness::with_jobs(1, drc_bench::quick_repro_results).expect("serial repro runs");
    assert_eq!(baseline.len(), drc_bench::EXPERIMENTS.len());
    assert_golden_headlines(&baseline);
    for width in [2usize, 4] {
        let wide =
            harness::with_jobs(width, drc_bench::quick_repro_results).expect("wide repro runs");
        assert_same_repro(&baseline, &wide, &format!("widths 1 and {width}"));
    }
}

/// The GF kernel tiers agree end to end: the whole quick repro on the
/// scalar `reference` kernel equals the run on the auto-selected one. (The
/// pin is process-wide; racing the width test above is harmless because its
/// output does not depend on the kernel either.)
#[test]
fn quick_repro_is_byte_identical_on_the_reference_kernel() {
    let auto = drc_bench::quick_repro_results().expect("repro runs");
    let reference = kernel::with_forced(kernel::reference(), drc_bench::quick_repro_results)
        .expect("repro runs on the reference kernel");
    let what = format!("kernels {} and reference", kernel::active().name());
    assert_same_repro(&auto, &reference, &what);
}
