//! Width differential over the full quick-effort repro: the cell harness
//! must produce the same serialised output no matter how many jobs fan the
//! cells out. One serial (width 1) baseline is compared against widths 2
//! and 4 across all 12 experiments.
//!
//! `encoding` carries wall-clock measurements inside its rows (the paper's
//! encode throughput), so it is compared structurally — every field except
//! the wall-clock ones byte-identical — while the other eleven experiments
//! must match byte-for-byte.
//!
//! The width override is the thread-local `harness::with_jobs` (not the
//! `DRC_REPRO_JOBS` env var): env mutation would race with the parallel
//! libtest runner.

use drc_core::experiments::harness;
use serde_json::Value;

/// Per-row fields that measure real elapsed time and legitimately vary
/// between runs (and between widths).
const WALL_CLOCK_FIELDS: &[&str] = &["throughput_mb_per_s", "elapsed_s"];

/// Experiments whose results contain `WALL_CLOCK_FIELDS`.
const WALL_CLOCK_EXPERIMENTS: &[&str] = &["encoding"];

/// Removes every wall-clock field from a result tree, recursively.
fn strip_wall_clock(v: &mut Value) {
    match v {
        Value::Map(entries) => {
            entries.retain(|(k, _)| !WALL_CLOCK_FIELDS.contains(&k.as_str()));
            for (_, child) in entries {
                strip_wall_clock(child);
            }
        }
        Value::Seq(items) => {
            for child in items {
                strip_wall_clock(child);
            }
        }
        _ => {}
    }
}

#[test]
fn quick_repro_is_byte_identical_at_widths_1_2_4() {
    let baseline =
        harness::with_jobs(1, drc_bench::quick_repro_results).expect("serial repro runs");
    assert_eq!(baseline.len(), drc_bench::EXPERIMENTS.len());
    for width in [2usize, 4] {
        let wide =
            harness::with_jobs(width, drc_bench::quick_repro_results).expect("wide repro runs");
        assert_eq!(baseline.len(), wide.len());
        for ((serial_name, serial_value), (wide_name, wide_value)) in baseline.iter().zip(&wide) {
            assert_eq!(
                serial_name, wide_name,
                "experiment order must not depend on the width"
            );
            if WALL_CLOCK_EXPERIMENTS.contains(serial_name) {
                let mut serial_stripped = serial_value.clone();
                let mut wide_stripped = wide_value.clone();
                strip_wall_clock(&mut serial_stripped);
                strip_wall_clock(&mut wide_stripped);
                assert_eq!(
                    serde_json::to_string(&serial_stripped).expect("serialises"),
                    serde_json::to_string(&wide_stripped).expect("serialises"),
                    "{serial_name}: structure must be identical at widths 1 and {width}"
                );
            } else {
                assert_eq!(
                    serde_json::to_string(serial_value).expect("serialises"),
                    serde_json::to_string(wide_value).expect("serialises"),
                    "{serial_name}: output must be byte-identical at widths 1 and {width}"
                );
            }
        }
    }
}
