//! The `repro` binary and the helpers it shares with the benchmark.
//!
//! [`run_experiment`] is the one table of the twelve paper experiments: it
//! alone names the [`drc_core::experiments`] drivers and their quick / full
//! configurations. The `repro` binary loops over [`EXPERIMENTS`] through it
//! and prints each table; [`quick_repro_results`] — the `repro_quick`
//! workload of `benchmark/` and the width differential's subject — loops
//! over the same table and keeps only the JSON.
//!
//! This crate measures nothing. Every wall-clock number lives in the
//! `benchmark/` ledger; `repro --json` is stamped with [`provenance`] — git
//! SHA, active GF kernel, worker-thread and host CPU count — so dumps are
//! comparable across PRs and across hosts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use drc_core::experiments::{
    degraded_mr, encoding, failure_trace, fig3, fig4, fig5, metadata_scale, overlap,
    repair_bandwidth, repair_pipeline, shuffle_contention, table1, Effort,
};
use drc_core::gf::kernel;
use drc_core::reliability::ReliabilityParams;
use drc_core::DrcError;

/// Parses an effort level from a command-line string.
///
/// Accepts `quick` (the default when no value is given) and `full`; any
/// other value is an error naming the valid set — the same contract the
/// `DRC_GF_KERNEL` selector follows, so a typo'd `--effort ful` fails loudly
/// instead of silently running the quick profile.
///
/// # Errors
///
/// Returns a message naming the valid values when `arg` is neither `quick`
/// nor `full`.
pub fn parse_effort(arg: Option<&str>) -> Result<Effort, String> {
    match arg {
        None | Some("quick") => Ok(Effort::Quick),
        Some("full") => Ok(Effort::Full),
        Some(other) => Err(format!(
            "unknown effort '{other}'; valid values are 'quick' and 'full'"
        )),
    }
}

/// The experiment names understood by the `repro` binary, in presentation
/// order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "repair_bw",
    "fig3",
    "fig4",
    "fig5",
    "encoding",
    "degraded_mr",
    "overlap",
    "shuffle_contention",
    "failure_trace",
    "metadata_scale",
    "repair_pipeline",
];

/// Quick-effort configuration of the `failure_trace` experiment,
/// `(block_bytes, target_tasks)`. Public because `benchmark/src/surface.rs`
/// times the same configuration cell by cell (`core.wall_ms.failure_trace`).
pub const FAILURE_TRACE_QUICK: (usize, usize) = (1024 * 1024, 60);

/// Quick-effort configuration of the `repair_pipeline` experiment,
/// `(block_bytes, stripes, chunk_sizes)`. Public for the same reason as
/// [`FAILURE_TRACE_QUICK`]; the width differential's golden pin reads its
/// two chunk sizes.
pub const REPAIR_PIPELINE_QUICK: (usize, usize, &[u64]) =
    (4 * 1024 * 1024, 2, &[1 << 20, 256 * 1024]);

/// The HDFS block of the paper's clusters (`ClusterSpec::simulation_25`,
/// set-up 2 of §4): what the full-effort storage experiments simulate. The
/// cells ingest length-only files, so a block costs no memory.
const PAPER_BLOCK_BYTES: usize = 128 * 1024 * 1024;

/// Runs the experiment `name` at `effort` and returns its paper-style table
/// (rendered only if the caller prints it) with the result as JSON.
///
/// This is the experiment table: the only place that names the twelve
/// drivers and their quick / full configurations.
///
/// # Errors
///
/// [`DrcError::InvalidExperiment`] for a name outside [`EXPERIMENTS`];
/// otherwise whatever the driver returns.
pub fn run_experiment(
    name: &str,
    effort: Effort,
) -> Result<(Box<dyn fmt::Display>, serde_json::Value), DrcError> {
    macro_rules! report {
        ($result:expr) => {{
            let report = $result?;
            let json = serde_json::to_value(&report).expect("experiment results are serializable");
            (Box::new(report) as Box<dyn fmt::Display>, json)
        }};
    }
    Ok(match name {
        "table1" => report!(table1::run_table1(&ReliabilityParams::default())),
        "repair_bw" => report!(repair_bandwidth::run_repair_bandwidth()),
        "fig3" => report!(fig3::run_fig3(effort)),
        "fig4" => report!(fig4::run_fig4(effort)),
        "fig5" => report!(fig5::run_fig5(effort)),
        "encoding" => report!(encoding::run_encoding(1024 * 1024, 8)),
        "degraded_mr" => report!(degraded_mr::run_degraded_mr(effort)),
        "overlap" => {
            let (block_bytes, stripes) = match effort {
                Effort::Quick => (1024 * 1024, 2),
                Effort::Full => (PAPER_BLOCK_BYTES, 4),
            };
            report!(overlap::run_overlap(block_bytes, stripes))
        }
        "shuffle_contention" => {
            let (block_bytes, target_tasks) = match effort {
                Effort::Quick => (1024 * 1024, 100),
                Effort::Full => (PAPER_BLOCK_BYTES, 200),
            };
            report!(shuffle_contention::run_shuffle_contention(
                block_bytes,
                target_tasks
            ))
        }
        "failure_trace" => {
            let (block_bytes, target_tasks) = match effort {
                Effort::Quick => FAILURE_TRACE_QUICK,
                Effort::Full => (PAPER_BLOCK_BYTES, 120),
            };
            report!(failure_trace::run_failure_trace(block_bytes, target_tasks))
        }
        "metadata_scale" => report!(metadata_scale::run_metadata_scale(effort)),
        "repair_pipeline" => {
            let (block_bytes, stripes, chunks) = match effort {
                Effort::Quick => REPAIR_PIPELINE_QUICK,
                Effort::Full => (PAPER_BLOCK_BYTES, 4, &[1 << 20, 256 * 1024, 64 * 1024][..]),
            };
            report!(repair_pipeline::run_repair_pipeline(
                block_bytes,
                stripes,
                chunks
            ))
        }
        other => {
            return Err(DrcError::InvalidExperiment {
                reason: format!(
                    "unknown experiment '{other}'; expected one of {}",
                    EXPERIMENTS.join(", ")
                ),
            })
        }
    })
}

/// Runs every experiment once at quick effort — what `repro --effort quick`
/// runs — and returns `(name, result)` pairs in [`EXPERIMENTS`] order, each
/// result as JSON. No table is rendered.
///
/// Two consumers: `benchmark/`'s `repro_quick` workload, whose timed body
/// this is, and the width / kernel differential with its golden pin
/// (`tests/repro_width_differential.rs`).
///
/// # Errors
///
/// Propagates the first experiment error in presentation order.
pub fn quick_repro_results() -> Result<Vec<(&'static str, serde_json::Value)>, DrcError> {
    EXPERIMENTS
        .iter()
        .map(|&name| Ok((name, run_experiment(name, Effort::Quick)?.1)))
        .collect()
}

/// Looks up `key` in a JSON object from the vendored `serde_json`.
pub fn json_lookup<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    match v {
        serde_json::Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Numeric coercion of a JSON scalar (float, signed or unsigned integer).
pub fn json_f64(v: &serde_json::Value) -> Option<f64> {
    match v {
        serde_json::Value::Float(f) => Some(*f),
        serde_json::Value::Int(n) => Some(*n as f64),
        serde_json::Value::UInt(n) => Some(*n as f64),
        _ => None,
    }
}

/// The commit the running tree was built from, best-effort
/// (`"unknown"` outside a git checkout or without a `git` binary).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPUs the current host actually has (1 if undetectable). Recorded in
/// [`provenance`] and in `benchmark/`'s result header so a reader can tell a
/// genuine multi-core run from an oversubscribed one — "2 threads" on a
/// 1-CPU container time-slices one core and can never show a speedup.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The provenance stamp of a `repro --json` dump: git SHA, active GF
/// kernel, the harness's default cell fan-out width (`threads`) and the
/// host's CPU count. The default width *is* the available parallelism, so
/// `threads` always equals `host_cpus`; the key stays so dumps from before
/// and after that became true line up. Cross-PR (and cross-host) dumps are
/// only comparable with this context attached.
pub fn provenance() -> serde_json::Value {
    serde_json::Value::Map(vec![
        ("git_sha".to_string(), serde_json::Value::Str(git_sha())),
        (
            "gf_kernel".to_string(),
            serde_json::Value::Str(kernel::active().name().to_string()),
        ),
        (
            "threads".to_string(),
            serde_json::Value::UInt(host_cpus() as u64),
        ),
        (
            "host_cpus".to_string(),
            serde_json::Value::UInt(host_cpus() as u64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_parsing() {
        assert_eq!(parse_effort(None), Ok(Effort::Quick));
        assert_eq!(parse_effort(Some("quick")), Ok(Effort::Quick));
        assert_eq!(parse_effort(Some("full")), Ok(Effort::Full));
        // Unknown values are a hard error that names the valid set — the
        // same contract the DRC_GF_KERNEL selector follows.
        let err = parse_effort(Some("garbage")).expect_err("garbage must not parse");
        assert!(err.contains("garbage"), "{err}");
        assert!(err.contains("quick") && err.contains("full"), "{err}");
    }

    #[test]
    fn experiment_list_is_complete() {
        assert_eq!(EXPERIMENTS.len(), 12);
        assert!(EXPERIMENTS.contains(&"table1"));
        assert!(EXPERIMENTS.contains(&"fig5"));
        assert!(EXPERIMENTS.contains(&"overlap"));
        assert!(EXPERIMENTS.contains(&"shuffle_contention"));
        assert!(EXPERIMENTS.contains(&"failure_trace"));
        assert!(EXPERIMENTS.contains(&"metadata_scale"));
        assert!(EXPERIMENTS.contains(&"repair_pipeline"));
    }

    #[test]
    fn a_name_outside_the_table_is_a_typed_error() {
        let Err(err) = run_experiment("nope", Effort::Quick) else {
            panic!("'nope' is not an experiment");
        };
        assert!(matches!(err, DrcError::InvalidExperiment { .. }), "{err}");
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn provenance_has_the_four_stamps() {
        let serde_json::Value::Map(entries) = provenance() else {
            panic!("provenance must be a map");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["git_sha", "gf_kernel", "threads", "host_cpus"]);
        assert!(matches!(&entries[2].1, serde_json::Value::UInt(n) if *n >= 1));
        assert!(matches!(&entries[3].1, serde_json::Value::UInt(n) if *n >= 1));
    }
}
