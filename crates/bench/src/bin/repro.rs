//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--experiment <name>] [--effort quick|full] [--json <path>]
//!
//!   <name> ∈ { table1, repair_bw, fig3, fig4, fig5, encoding, degraded_mr,
//!              overlap, shuffle_contention, failure_trace, metadata_scale,
//!              repair_pipeline, all }
//! ```
//!
//! With no arguments every experiment runs at `quick` effort and the
//! paper-style tables are printed to stdout. `--json` additionally dumps the
//! raw results as JSON (the data behind `EXPERIMENTS.md`).
//!
//! Each experiment decomposes into independent cells that run concurrently
//! on the worker pool, as many at a time as the pool is wide
//! (`DRC_SIM_THREADS=1` runs them serially). Results merge in fixed cell
//! order after the join, so the output — including `--json` dumps — is
//! byte-identical at every width.
//!
//! `shuffle_contention` is the end-to-end contention experiment: it runs the
//! same MapReduce job with and without a concurrent RaidNode repair pass on
//! one shared `ClusterNet` and reports the per-code job slowdown, per-link
//! shuffle wait seconds and the shuffle∩repair overlap window.
//!
//! `failure_trace` goes one step further: node fail-stops arrive as a live
//! Poisson trace *while* the job runs; the NameNode detects them after a
//! configurable heartbeat timeout and auto-repairs on the shared substrate,
//! and the engine re-executes the lost attempts. The sweep reports job
//! slowdown per detection timeout × arrival rate and the repair∩job overlap.

use std::collections::BTreeMap;
use std::process::ExitCode;

use drc_bench::{parse_effort, provenance, EXPERIMENTS};
use drc_core::experiments::{
    degraded_mr::run_degraded_mr, encoding::run_encoding, failure_trace::run_failure_trace,
    fig3::run_fig3, fig4::run_fig4, fig5::run_fig5, metadata_scale::run_metadata_scale,
    overlap::run_overlap, repair_bandwidth::run_repair_bandwidth,
    repair_pipeline::run_repair_pipeline, shuffle_contention::run_shuffle_contention,
    table1::run_table1, Effort,
};
use drc_core::reliability::ReliabilityParams;
use drc_core::DrcError;

/// The HDFS block of the paper's clusters (`ClusterSpec::simulation_25`,
/// set-up 2 of §4): what the full-effort storage experiments simulate. The
/// cells ingest length-only files, so a block costs no memory.
const PAPER_BLOCK_BYTES: usize = 128 * 1024 * 1024;

struct Options {
    experiment: String,
    effort: Effort,
    json_path: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut experiment = "all".to_string();
    let mut effort = Effort::Quick;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--experiment" | "-e" => {
                experiment = args.next().ok_or("--experiment needs a value")?;
            }
            "--effort" => {
                let value = args.next().ok_or("--effort needs a value")?;
                effort = parse_effort(Some(&value))?;
            }
            "--json" => {
                json_path = Some(args.next().ok_or("--json needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--experiment <{}|all>] [--effort quick|full] [--json <path>]",
                    EXPERIMENTS.join("|")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Options {
        experiment,
        effort,
        json_path,
    })
}

fn run(options: &Options) -> Result<BTreeMap<String, serde_json::Value>, DrcError> {
    let mut results = BTreeMap::new();
    let wanted = |name: &str| options.experiment == "all" || options.experiment == name;

    if wanted("table1") {
        let table = run_table1(&ReliabilityParams::default())?;
        println!("{table}\n");
        results.insert(
            "table1".to_string(),
            serde_json::to_value(&table).expect("serializable"),
        );
    }
    if wanted("repair_bw") {
        let table = run_repair_bandwidth()?;
        println!("{table}\n");
        results.insert(
            "repair_bw".to_string(),
            serde_json::to_value(&table).expect("serializable"),
        );
    }
    if wanted("fig3") {
        let data = run_fig3(options.effort)?;
        println!("{data}");
        results.insert(
            "fig3".to_string(),
            serde_json::to_value(&data).expect("serializable"),
        );
    }
    if wanted("fig4") {
        let data = run_fig4(options.effort)?;
        println!("{data}\n");
        results.insert(
            "fig4".to_string(),
            serde_json::to_value(&data).expect("serializable"),
        );
    }
    if wanted("fig5") {
        let data = run_fig5(options.effort)?;
        println!("{data}\n");
        results.insert(
            "fig5".to_string(),
            serde_json::to_value(&data).expect("serializable"),
        );
    }
    if wanted("encoding") {
        let report = run_encoding(1024 * 1024, 8)?;
        println!("{report}\n");
        results.insert(
            "encoding".to_string(),
            serde_json::to_value(&report).expect("serializable"),
        );
    }
    if wanted("degraded_mr") {
        let report = run_degraded_mr(options.effort)?;
        println!("{report}\n");
        results.insert(
            "degraded_mr".to_string(),
            serde_json::to_value(&report).expect("serializable"),
        );
    }
    if wanted("overlap") {
        let (block_bytes, stripes) = match options.effort {
            Effort::Quick => (1024 * 1024, 2),
            Effort::Full => (PAPER_BLOCK_BYTES, 4),
        };
        let report = run_overlap(block_bytes, stripes)?;
        println!("{report}\n");
        results.insert(
            "overlap".to_string(),
            serde_json::to_value(&report).expect("serializable"),
        );
    }
    if wanted("shuffle_contention") {
        let (block_bytes, target_tasks) = match options.effort {
            Effort::Quick => (1024 * 1024, 100),
            Effort::Full => (PAPER_BLOCK_BYTES, 200),
        };
        let report = run_shuffle_contention(block_bytes, target_tasks)?;
        println!("{report}\n");
        results.insert(
            "shuffle_contention".to_string(),
            serde_json::to_value(&report).expect("serializable"),
        );
    }
    if wanted("failure_trace") {
        let (block_bytes, target_tasks) = match options.effort {
            Effort::Quick => drc_bench::FAILURE_TRACE_QUICK,
            Effort::Full => (PAPER_BLOCK_BYTES, 120),
        };
        let report = run_failure_trace(block_bytes, target_tasks)?;
        println!("{report}\n");
        results.insert(
            "failure_trace".to_string(),
            serde_json::to_value(&report).expect("serializable"),
        );
    }
    if wanted("repair_pipeline") {
        let (block_bytes, stripes, chunks) = match options.effort {
            Effort::Quick => drc_bench::REPAIR_PIPELINE_QUICK,
            Effort::Full => (PAPER_BLOCK_BYTES, 4, &[1 << 20, 256 * 1024, 64 * 1024][..]),
        };
        let report = run_repair_pipeline(block_bytes, stripes, chunks)?;
        println!("{report}\n");
        results.insert(
            "repair_pipeline".to_string(),
            serde_json::to_value(&report).expect("serializable"),
        );
    }
    if wanted("metadata_scale") {
        let report = run_metadata_scale(options.effort)?;
        println!("{report}\n");
        results.insert(
            "metadata_scale".to_string(),
            serde_json::to_value(&report).expect("serializable"),
        );
    }
    // Stamp the run so JSON dumps are comparable across PRs and hosts.
    results.insert("provenance".to_string(), provenance());
    Ok(results)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if options.experiment != "all" && !EXPERIMENTS.contains(&options.experiment.as_str()) {
        eprintln!(
            "error: unknown experiment '{}'; expected one of {} or 'all'",
            options.experiment,
            EXPERIMENTS.join(", ")
        );
        return ExitCode::FAILURE;
    }
    match run(&options) {
        Ok(results) => {
            if let Some(path) = &options.json_path {
                match serde_json::to_string_pretty(&results) {
                    Ok(json) => {
                        if let Err(e) = std::fs::write(path, json) {
                            eprintln!("error writing {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        println!("wrote JSON results to {path}");
                    }
                    Err(e) => {
                        eprintln!("error serialising results: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
