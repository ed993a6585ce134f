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
//! The width override is the thread-local `harness::with_jobs`, not an
//! environment variable: env mutation would race with the parallel libtest
//! runner.

use drc_core::experiments::harness;
use drc_core::gf::kernel;
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

/// Asserts two `quick_repro_results()` runs are byte-identical outside the
/// wall-clock fields; `what` names the two sides in the failure message.
fn assert_same_repro(
    baseline: &[(&'static str, Value)],
    other: &[(&'static str, Value)],
    what: &str,
) {
    assert_eq!(baseline.len(), other.len());
    for ((base_name, base_value), (other_name, other_value)) in baseline.iter().zip(other) {
        assert_eq!(
            base_name, other_name,
            "experiment order must not depend on {what}"
        );
        if WALL_CLOCK_EXPERIMENTS.contains(base_name) {
            let mut base_stripped = base_value.clone();
            let mut other_stripped = other_value.clone();
            strip_wall_clock(&mut base_stripped);
            strip_wall_clock(&mut other_stripped);
            assert_eq!(
                serde_json::to_string(&base_stripped).expect("serialises"),
                serde_json::to_string(&other_stripped).expect("serialises"),
                "{base_name}: structure must be identical across {what}"
            );
        } else {
            assert_eq!(
                serde_json::to_string(base_value).expect("serialises"),
                serde_json::to_string(other_value).expect("serialises"),
                "{base_name}: output must be byte-identical across {what}"
            );
        }
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
