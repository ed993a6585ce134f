//! Shared helpers for the benchmark harness and the `repro` binary.
//!
//! The Criterion benches in `benches/` measure the computational kernels
//! behind each table and figure (MTTDL solves, repair planning, locality
//! simulation, Terasort execution, encoding, the event-driven substrate),
//! while the `repro` binary regenerates the tables and figure series
//! themselves in a paper-comparable textual form. Both are thin wrappers
//! around [`drc_core::experiments`].
//!
//! Every machine-readable artifact (`repro --json`, `BENCH_gf.json`,
//! `BENCH_sim.json`) is stamped with [`provenance`] — git SHA, active GF
//! kernel and worker-thread count — so numbers are comparable across PRs
//! and across hosts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use drc_core::experiments::Effort;
use drc_core::gf::kernel;
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
/// `(block_bytes, target_tasks)`. One definition shared by the `repro`
/// binary's quick arm and the `sim_throughput` bench's headline run, so the
/// `failure_trace_*` numbers in `BENCH_sim.json` always describe the same
/// configuration as the CI repro artifact.
pub const FAILURE_TRACE_QUICK: (usize, usize) = (1024 * 1024, 60);

/// Quick-effort configuration of the `repair_pipeline` experiment,
/// `(block_bytes, stripes, chunk_sizes)`. Shared by the `repro` binary's
/// quick arm and the `sim_throughput` bench's headline run, so the
/// `repair_pipeline_*` numbers in `BENCH_sim.json` always describe the same
/// configuration as the CI repro artifact.
pub const REPAIR_PIPELINE_QUICK: (usize, usize, &[u64]) =
    (4 * 1024 * 1024, 2, &[1 << 20, 256 * 1024]);

/// Runs every experiment once at quick effort — the exact configurations
/// the `repro` binary's quick arm uses — and returns `(name, result)` pairs
/// in presentation order, each result serialised to JSON.
///
/// One definition serves three consumers: the width-differential test (the
/// emitted JSON must be identical at every harness width), the
/// `sim_throughput` bench's `repro_wall_s` / `repro_cell_speedup` headlines
/// (which time this function at 1 and N harness jobs), and — structurally —
/// the `repro` binary itself, whose quick arms must stay in sync with the
/// configurations here.
///
/// # Errors
///
/// Propagates the first experiment error in presentation order.
pub fn quick_repro_results() -> Result<Vec<(&'static str, serde_json::Value)>, DrcError> {
    use drc_core::experiments::{
        degraded_mr::run_degraded_mr, encoding::run_encoding, failure_trace::run_failure_trace,
        fig3::run_fig3, fig4::run_fig4, fig5::run_fig5, metadata_scale::run_metadata_scale,
        overlap::run_overlap, repair_bandwidth::run_repair_bandwidth,
        repair_pipeline::run_repair_pipeline, shuffle_contention::run_shuffle_contention,
        table1::run_table1,
    };
    use drc_core::reliability::ReliabilityParams;

    let effort = Effort::Quick;
    let (ft_block, ft_tasks) = FAILURE_TRACE_QUICK;
    let (rp_block, rp_stripes, rp_chunks) = REPAIR_PIPELINE_QUICK;
    macro_rules! json {
        ($result:expr) => {
            serde_json::to_value(&$result?).expect("experiment results are serializable")
        };
    }
    Ok(vec![
        ("table1", json!(run_table1(&ReliabilityParams::default()))),
        ("repair_bw", json!(run_repair_bandwidth())),
        ("fig3", json!(run_fig3(effort))),
        ("fig4", json!(run_fig4(effort))),
        ("fig5", json!(run_fig5(effort))),
        ("encoding", json!(run_encoding(1024 * 1024, 8))),
        ("degraded_mr", json!(run_degraded_mr(effort))),
        ("overlap", json!(run_overlap(1024 * 1024, 2))),
        (
            "shuffle_contention",
            json!(run_shuffle_contention(1024 * 1024, 100)),
        ),
        (
            "failure_trace",
            json!(run_failure_trace(ft_block, ft_tasks)),
        ),
        ("metadata_scale", json!(run_metadata_scale(effort))),
        (
            "repair_pipeline",
            json!(run_repair_pipeline(rp_block, rp_stripes, rp_chunks)),
        ),
    ])
}

/// Workspace-root path of `BENCH_gf.json` (written by the `gf_throughput`
/// bench in `repro` mode), independent of the cwd cargo gives bench/bin
/// targets (the package directory).
pub const GF_BENCH_JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gf.json");

/// Workspace-root path of `BENCH_sim.json` (written by the `sim_throughput`
/// bench in `repro` mode and read back by the `check_speedup` CI gate).
pub const SIM_BENCH_JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");

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

/// The commit the benchmarked tree was built from, best-effort
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
/// [`provenance`] so snapshot consumers (notably the `check_speedup` gate)
/// can tell a genuine multi-core measurement from an oversubscribed one —
/// "2 threads" on a 1-CPU container time-slices one core and can never show
/// a speedup.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The provenance stamp every benchmark JSON carries: git SHA, active GF
/// kernel, worker-pool thread count and the benching host's CPU count.
/// Cross-PR (and cross-host) numbers are only comparable with this context
/// attached.
pub fn provenance() -> serde_json::Value {
    serde_json::Value::Map(vec![
        ("git_sha".to_string(), serde_json::Value::Str(git_sha())),
        (
            "gf_kernel".to_string(),
            serde_json::Value::Str(kernel::active().name().to_string()),
        ),
        (
            "threads".to_string(),
            serde_json::Value::UInt(rayon::current_num_threads() as u64),
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
