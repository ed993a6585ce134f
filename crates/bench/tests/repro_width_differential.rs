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

use drc_bench::{json_f64, json_lookup};
use drc_core::codes::CodeKind;
use drc_core::experiments::harness;
use drc_core::gf::kernel;
use serde_json::Value;
use support::assert_same_repro;

/// The `rows` of one experiment's printed report.
fn report_rows<'a>(baseline: &'a [(&'static str, Value)], name: &str) -> &'a [Value] {
    let (_, report) = baseline
        .iter()
        .find(|(n, _)| *n == name)
        .expect("every experiment ran");
    match json_lookup(report, "rows") {
        Some(Value::Seq(rows)) => rows,
        other => panic!("{name}: `rows` is not a sequence: {other:?}"),
    }
}

/// The one row whose fields print as `keys` do.
fn find_row<'a>(rows: &'a [Value], keys: &[(&str, Value)]) -> &'a Value {
    let mut hits = rows
        .iter()
        .filter(|row| keys.iter().all(|(k, v)| json_lookup(row, k) == Some(v)));
    let row = hits
        .next()
        .unwrap_or_else(|| panic!("no row with {keys:?}"));
    assert!(hits.next().is_none(), "two rows with {keys:?}");
    row
}

/// A numeric field of a printed row.
fn number(row: &Value, key: &str) -> f64 {
    json_lookup(row, key)
        .and_then(json_f64)
        .unwrap_or_else(|| panic!("no numeric `{key}` in {row:?}"))
}

/// `code` as a report prints it.
fn code_json(code: CodeKind) -> Value {
    serde_json::to_value(&code).expect("CodeKind serialises")
}

/// The virtual-time headlines of the three contention tables, as integer-
/// nanosecond quotients: exact on every host, kernel and width, and unchanged
/// since the tables were first recorded. The differentials below only hold
/// runs to each other; this holds them to the record. It reads the printed
/// JSON — what `repro --json` writes — and finds a row by its `code` as
/// `CodeKind` serialises.
fn assert_golden_headlines(baseline: &[(&'static str, Value)]) {
    let shuffle = report_rows(baseline, "shuffle_contention");
    let slowdowns = [
        (CodeKind::TWO_REP, 1.293747816621346),
        (CodeKind::Pentagon, 1.8308832362841956),
        (CodeKind::Heptagon, 1.9349996865130876),
        (CodeKind::HeptagonLocal, 1.5745486823318045),
    ];
    assert_eq!(shuffle.len(), slowdowns.len());
    for (code, slowdown) in slowdowns {
        let row = find_row(shuffle, &[("code", code_json(code))]);
        assert_eq!(
            number(row, "slowdown"),
            slowdown,
            "shuffle_contention {code} slowdown"
        );
    }
    let max = |rows: &[Value], key: &str, floor: f64| {
        rows.iter().map(|r| number(r, key)).fold(floor, f64::max)
    };
    assert_eq!(
        max(shuffle, "slowdown", 1.0),
        1.9349996865130876,
        "shuffle_contention headline slowdown"
    );

    // Re-recorded when repairs stopped reading from dead nodes: the
    // pentagon row's second pass rebuilds a block whose other replica sits
    // on a down, wiped node from three partial parities instead of
    // charging one copy from that node (repair bytes 12 → 14 MiB, slowdown
    // 1.793159450850097 → this, overlap 0.233333338 → this).
    let trace = report_rows(baseline, "failure_trace");
    assert_eq!(
        max(trace, "slowdown", 1.0),
        1.8520852326438257,
        "failure_trace headline slowdown"
    );
    assert_eq!(
        max(trace, "repair_job_overlap_s", 0.0),
        0.250000005,
        "failure_trace max repair_job_overlap_s"
    );

    let pipeline = report_rows(baseline, "repair_pipeline");
    // (pipelined / serial) at 1 MiB and at 256 KiB chunks.
    let ratios = [
        (CodeKind::TWO_REP, [0.7500000112499998, 0.6875000515624997]),
        (CodeKind::Pentagon, [0.9166666804166665, 0.8958334005208329]),
        (CodeKind::Heptagon, [0.9423077064423075, 0.941538532984615]),
        (CodeKind::HeptagonLocal, [0.89285715625, 0.8660714935267855]),
    ];
    let chunks = drc_bench::REPAIR_PIPELINE_QUICK.2;
    assert_eq!(pipeline.len(), ratios.len() * chunks.len());
    for (code, per_chunk) in ratios {
        for (&chunk_bytes, ratio) in chunks.iter().zip(per_chunk) {
            let row = find_row(
                pipeline,
                &[
                    ("code", code_json(code)),
                    ("chunk_bytes", Value::UInt(chunk_bytes)),
                ],
            );
            assert_eq!(
                number(row, "ratio"),
                ratio,
                "repair_pipeline {code} ratio at {chunk_bytes} B chunks"
            );
        }
    }
    // The worst erasure-code ratio at the smallest chunk size: replication
    // has no rebuild stage to overlap.
    let smallest = pipeline
        .iter()
        .map(|r| number(r, "chunk_bytes"))
        .fold(f64::INFINITY, f64::min);
    let erasure_at_smallest: Vec<Value> = pipeline
        .iter()
        .filter(|r| number(r, "chunk_bytes") == smallest)
        .filter(|r| {
            json_lookup(r, "code")
                .and_then(|c| json_lookup(c, "Replication"))
                .is_none()
        })
        .cloned()
        .collect();
    assert_eq!(
        max(&erasure_at_smallest, "ratio", 0.0),
        0.941538532984615,
        "repair_pipeline worst erasure ratio"
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
