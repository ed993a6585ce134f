//! `drc-benchmark`: the repo's benchmark, measured from outside the product.
//!
//! ```text
//! drc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result JSON
//! drc-benchmark [--seed <n>] [--seconds <s>] [--runs <r>]
//!     every workload, untraced then traced, one process each; prints every
//!     metric and writes benchmark/out/result.json
//! drc-benchmark compare <A.json> <B.json>
//!     B (the change) against A (the parent) under the regression bounds
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and how they
//! interact.

#![forbid(unsafe_code)]

mod compare;
mod fail_repair;
mod ingest_read;
mod ledger;
mod metrics;
mod mr_sweep;
mod procfs;
mod repro_quick;
mod run;
mod stats;
mod suite;
mod surface;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 2014;
/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read '{v}'");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                let v = value()?;
                cli.seconds = v.parse().map_err(|_| bad(v))?;
                if !cli.seconds.is_finite() || cli.seconds < 0.0 {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => {
                let v = value()?;
                cli.runs = v.parse().ok().filter(|&r| r >= 1).ok_or_else(|| bad(v))?;
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(w) = &cli.workload {
        if !workload::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload '{w}'; the workloads are {}",
                workload::WORKLOADS.join(", ")
            ));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        parse(&args).and_then(|cli| match &cli.workload {
            Some(name) => {
                let plan = run::Plan {
                    workload: name.clone(),
                    seed: cli.seed,
                    seconds: cli.seconds,
                    trace: cli.trace,
                };
                let report = run::run(&plan, &workload::Size::full(), &cli.out_dir)?;
                print!("{}", report.table());
                println!("info: {}", suite::info_line(&report));
                println!("{}", report.result_line());
                // The result line carries `correct`; the process only fails
                // when it could not produce one.
                Ok(true)
            }
            None => suite::run_all(&cli),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("drc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse(&args("--workload mr_sweep --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("mr_sweep"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10.0, true));
    }

    #[test]
    fn defaults_and_rejections() {
        let cli = parse(&[]).unwrap();
        assert_eq!(
            (cli.workload, cli.seed, cli.trace, cli.runs),
            (None, 2014, false, 1)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds -1")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--runs 0")).is_err());
        assert!(parse(&args("--bogus")).is_err());
    }
}
