//! What the repro tests share: the comparison of two quick-effort repro
//! runs that ignores `encoding`'s wall-clock fields.

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

/// Asserts two `quick_repro_results()`-shaped runs are byte-identical
/// outside the wall-clock fields; `what` names the two sides in the failure
/// message.
pub fn assert_same_repro(
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
