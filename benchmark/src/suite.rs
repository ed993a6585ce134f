//! Every workload, one process each: `drc-benchmark` without `--workload`.
//!
//! The binary re-executes itself per workload and mode, so `peak_rss_mib`
//! and the product's process-wide buffer pool are never shared between
//! workloads. Each workload runs untraced (end-to-end metrics) and traced
//! (per-layer metrics); `--runs` repeats the set so the run-to-run spread is
//! on record. The outcome goes to `benchmark/out/result.json`, stamped with
//! where it came from.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::metrics::{self, Def};
use crate::run::Report;
use crate::stats::{median, spread};
use crate::surface::{self, json_f64, json_lookup, Value};
use crate::workload::WORKLOADS;
use crate::Cli;

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// What a run's result line does not carry, as one JSON object: printed on
/// the line before it, prefixed `info: `.
pub fn info_line(report: &Report) -> String {
    let info = object(vec![
        ("workload", text(&report.plan.workload)),
        ("seed", Value::UInt(report.plan.seed)),
        ("seconds", Value::Float(report.plan.seconds)),
        ("trace", Value::Bool(report.plan.trace)),
        ("work_unit", text(report.work_unit)),
        ("iterations", Value::UInt(report.iterations as u64)),
        (
            "traced_iterations",
            Value::UInt(report.traced_iterations as u64),
        ),
        ("fingerprint", text(&report.fingerprint)),
    ]);
    serde_json::to_string(&info).expect("a Value tree serialises")
}

/// One child run, parsed back from its standard output.
struct ChildRun {
    info: Value,
    result: Value,
}

fn run_child(cli: &Cli, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&cli.out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let [table @ .., info, result] = lines.as_slice() else {
        return Err(format!("{workload}: no result ({})", output.status));
    };
    for line in table {
        println!("{line}");
    }
    let parse = |what: &str, s: &str| {
        serde_json::parse(s).map_err(|e| format!("{workload}: bad {what} line: {e}"))
    };
    Ok(ChildRun {
        info: parse("info", info.trim_start_matches("info: "))?,
        result: parse("result", result)?,
    })
}

/// Everything recorded about one workload over the repeated runs.
#[derive(Default)]
struct Collected {
    work_unit: String,
    fingerprints: Vec<String>,
    iterations: Vec<u64>,
    traced_iterations: Vec<u64>,
    attempted: u64,
    failed: u64,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Collected {
    fn absorb(&mut self, run: &ChildRun) -> Result<(), String> {
        let field = |v: &Value, key: &str| {
            json_lookup(v, key)
                .cloned()
                .ok_or_else(|| format!("child output lacks '{key}'"))
        };
        let count =
            |v: &Value, key: &str| Ok::<_, String>(json_f64(&field(v, key)?).unwrap_or(0.0) as u64);
        if let Value::Str(s) = field(&run.info, "work_unit")? {
            self.work_unit = s;
        }
        if let Value::Str(s) = field(&run.info, "fingerprint")? {
            self.fingerprints.push(s);
        }
        if matches!(field(&run.info, "trace")?, Value::Bool(true)) {
            self.traced_iterations
                .push(count(&run.info, "traced_iterations")?);
        } else {
            self.iterations.push(count(&run.info, "iterations")?);
        }
        self.attempted += count(&run.result, "attempted")?;
        self.failed += count(&run.result, "failed")?;
        let Value::Map(metrics) = field(&run.result, "metrics")? else {
            return Err("child 'metrics' is not an object".to_string());
        };
        for (name, m) in metrics {
            let value = json_lookup(&m, "value")
                .and_then(json_f64)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            self.samples.entry(name).or_default().push(value);
        }
        Ok(())
    }

    fn section(&self, defs: Vec<Def>) -> Value {
        Value::Map(
            defs.into_iter()
                .filter_map(|d| {
                    let samples = self.samples.get(&d.name)?;
                    let entry = object(vec![
                        ("value", Value::Float(median(samples))),
                        ("unit", text(d.unit)),
                        ("base", text(d.base.label())),
                        ("spread", Value::Float(spread(samples))),
                        (
                            "samples",
                            Value::Seq(samples.iter().map(|&s| Value::Float(s)).collect()),
                        ),
                    ]);
                    Some((d.name, entry))
                })
                .collect(),
        )
    }

    fn to_json(&self) -> Value {
        let list = |v: &[u64]| Value::Seq(v.iter().map(|&n| Value::UInt(n)).collect());
        let mut fingerprints = self.fingerprints.clone();
        fingerprints.dedup();
        object(vec![
            ("work_unit", text(&self.work_unit)),
            // One entry when every run, traced or not, produced the same
            // simulated outputs — which is the contract.
            (
                "fingerprint",
                Value::Seq(fingerprints.into_iter().map(text).collect()),
            ),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("iterations", list(&self.iterations)),
            ("traced_iterations", list(&self.traced_iterations)),
            ("end_to_end", self.section(metrics::end_to_end())),
            ("per_layer", self.section(metrics::per_layer())),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers come from. `dirty` is true when `git status
/// --porcelain` lists anything, so a result measured on uncommitted code
/// cannot pass for its `git_sha`.
fn provenance(cli: &Cli) -> Value {
    let dirty = match command_line("git", &["status", "--porcelain"]) {
        Some(listing) => Value::Bool(!listing.is_empty()),
        None => text("unknown"),
    };
    object(vec![
        ("git_sha", text(surface::git_sha())),
        ("dirty", dirty),
        ("gf_kernel", text(surface::gf_kernel())),
        ("host_cpus", Value::UInt(surface::host_cpus() as u64)),
        ("pool_width", Value::UInt(1)),
        ("harness_jobs", Value::UInt(1)),
        ("seed", Value::UInt(cli.seed)),
        ("seconds", Value::Float(cli.seconds)),
        ("runs", Value::UInt(cli.runs as u64)),
        (
            "rustc",
            text(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())),
        ),
    ])
}

/// Runs every workload `cli.runs` times, untraced and traced, prints every
/// metric and writes `result.json`. `Ok(false)` when a check failed.
pub fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut collected: BTreeMap<&str, Collected> = BTreeMap::new();
    for _ in 0..cli.runs {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let run = run_child(cli, workload, trace)?;
                collected.entry(workload).or_default().absorb(&run)?;
            }
        }
    }
    let workloads = WORKLOADS
        .iter()
        .map(|w| (w.to_string(), collected[w].to_json()))
        .collect();
    let result = object(vec![
        ("provenance", provenance(cli)),
        ("workloads", Value::Map(workloads)),
    ]);
    let path = cli.out_dir.join("result.json");
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
    let json = serde_json::to_string_pretty(&result).expect("a Value tree serialises");
    std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;

    let failed: u64 = collected.values().map(|c| c.failed).sum();
    let attempted: u64 = collected.values().map(|c| c.attempted).sum();
    println!(
        "{} of {attempted} checks failed (failed_share {:.6}); wrote {}",
        failed,
        failed as f64 / attempted.max(1) as f64,
        path.display()
    );
    Ok(failed == 0)
}
