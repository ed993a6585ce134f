//! `repro_quick`: `drc_bench::quick_repro_results()` — all twelve
//! experiments at quick effort, the exact surface CI and `repro` run and the
//! byte-identical contract every refactor is held to. All layers mix.
//!
//! The product takes no seed here (the experiments derive their rngs from
//! their own `DEFAULT_SEED`), so `--seed` changes nothing in this workload.

use crate::surface::{self, Failure, Value};
use crate::trace;
use crate::workload::{Attribution, Checks, Iteration, Meter, Model, Workload};

/// Result fields that measure host time and legitimately differ between two
/// runs. Copied from the private `WALL_CLOCK_FIELDS` of
/// `crates/bench/tests/repro_width_differential.rs`, so the fingerprint
/// covers exactly what that test compares.
pub const WALL_CLOCK_FIELDS: [&str; 4] = [
    "throughput_mb_per_s",
    "elapsed_s",
    "lookups_per_s",
    "repair_scan_blocks_per_s",
];

/// Removes every wall-clock field from a result tree, recursively.
pub fn strip_wall_clock(v: &mut Value) {
    match v {
        Value::Map(entries) => {
            entries.retain(|(k, _)| !WALL_CLOCK_FIELDS.contains(&k.as_str()));
            for (_, child) in entries {
                strip_wall_clock(child);
            }
        }
        Value::Seq(items) => items.iter_mut().for_each(strip_wall_clock),
        _ => {}
    }
}

/// The canonical text of a repro run: each experiment's name and its JSON
/// with the wall-clock fields stripped.
pub fn canonical(results: &[(&'static str, Value)]) -> Result<String, Failure> {
    let mut out = String::new();
    for (name, value) in results {
        let mut stripped = value.clone();
        strip_wall_clock(&mut stripped);
        let json = serde_json::to_string(&stripped).map_err(|e| format!("{name}: {e}"))?;
        out.push_str(&format!("{name}={json}\n"));
    }
    Ok(out)
}

pub struct ReproQuick;

impl Workload for ReproQuick {
    fn work_unit(&self) -> &'static str {
        "experiments"
    }

    fn iterations_repeat(&self) -> bool {
        true
    }

    fn iterate(&mut self, _iter: u32, checks: &mut Checks) -> Result<Iteration, Failure> {
        let mut meter = Meter::default();
        // Traced iterations run the twelve experiments one by one so each
        // gets its span; untraced ones make the single call users make.
        let results = meter.run(|| {
            if trace::enabled() {
                surface::quick_repro_by_experiment()
            } else {
                surface::quick_repro()
            }
        })?;
        let names = surface::experiment_names();
        checks.check(results.len() == names.len(), || {
            format!(
                "{} results, {} experiments expected",
                results.len(),
                names.len()
            )
        });
        for (want, (got, value)) in names.iter().zip(&results) {
            checks.check(want == got && !matches!(value, Value::Null), || {
                format!("experiment {want} missing (found {got})")
            });
        }
        Ok(Iteration {
            meter,
            work: results.len() as f64,
            model: Model::default(),
            canon: canonical(&results)?,
        })
    }

    /// Every layer mixes here and the other three workloads take them apart;
    /// the experiments' spans are all `core`, and stay unsplit.
    fn attribute(&mut self, top: &Attribution) -> Result<Attribution, Failure> {
        Ok(top.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::object as map;

    #[test]
    fn wall_clock_fields_are_stripped_at_every_depth() {
        let mut v = map(vec![
            (
                "rows",
                Value::Seq(vec![map(vec![
                    ("code", Value::Str("pentagon".into())),
                    ("throughput_mb_per_s", Value::Float(123.4)),
                    (
                        "nested",
                        map(vec![
                            ("elapsed_s", Value::Float(0.5)),
                            ("bytes", Value::UInt(9)),
                        ]),
                    ),
                ])]),
            ),
            ("lookups_per_s", Value::Float(1e6)),
            ("repair_scan_blocks_per_s", Value::Float(2e6)),
        ]);
        strip_wall_clock(&mut v);
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            r#"{"rows":[{"code":"pentagon","nested":{"bytes":9}}]}"#
        );
    }

    #[test]
    fn canonical_text_ignores_wall_clock_values_only() {
        let run = |tput: f64, bytes: u64| {
            vec![(
                "encoding",
                map(vec![
                    ("throughput_mb_per_s", Value::Float(tput)),
                    ("bytes", Value::UInt(bytes)),
                ]),
            )]
        };
        assert_eq!(
            canonical(&run(1.0, 7)).unwrap(),
            canonical(&run(2.0, 7)).unwrap()
        );
        assert_ne!(
            canonical(&run(1.0, 7)).unwrap(),
            canonical(&run(1.0, 8)).unwrap()
        );
    }
}
