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
//! paper-style tables are printed to stdout, in `EXPERIMENTS` order. `--json`
//! additionally dumps the raw results as JSON. Which driver and which quick /
//! full configuration a name means is `drc_bench::run_experiment`'s business.
//!
//! Each experiment decomposes into independent cells that run concurrently
//! on one scoped thread per available core (`taskset -c 0` gives the serial
//! run), each cell on one thread. Results
//! merge in fixed cell order after the join, so the output — including
//! `--json` dumps — is byte-identical at every width.
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

use drc_bench::{parse_effort, provenance, run_experiment, EXPERIMENTS};
use drc_core::experiments::Effort;
use drc_core::DrcError;

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
    for &name in EXPERIMENTS {
        if options.experiment != "all" && options.experiment != name {
            continue;
        }
        let (table, json) = run_experiment(name, options.effort)?;
        // Every section ends with two blank lines, however many newlines its
        // own rendering ends with (`fig3` is several tables, the rest one).
        println!("{}\n\n", table.to_string().trim_end_matches('\n'));
        results.insert(name.to_string(), json);
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
