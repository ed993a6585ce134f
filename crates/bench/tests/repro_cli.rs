//! The `repro` binary from the outside: what it writes, the order it prints
//! in, that a whole quick run agrees with `quick_repro_results()` (the
//! benchmark's `repro_quick` body), and that every malformed command line
//! fails loudly without producing output.

mod support;

use std::path::PathBuf;
use std::process::{Command, Output};

use serde_json::Value;
use support::assert_same_repro;

/// The first line each experiment prints, in `EXPERIMENTS` order.
const SECTION_TITLES: [(&str, &str); 12] = [
    ("table1", "Table 1: storage overhead"),
    ("repair_bw", "Repair bandwidth (blocks)"),
    ("fig3", "Fig. 3 panel: mu = 2 map slots, delay-scheduling"),
    ("fig4", "Terasort on setup1"),
    ("fig5", "Terasort on setup2"),
    ("encoding", "Encoding throughput"),
    ("degraded_mr", "Terasort under node failures"),
    ("overlap", "Repair / degraded-read overlap"),
    ("shuffle_contention", "Job slowdown under concurrent repair"),
    ("failure_trace", "Job slowdown under live failure traces"),
    ("metadata_scale", "Metadata plane at scale"),
    ("repair_pipeline", "Streaming repair: pipelined vs serial"),
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

/// A path under cargo's per-package test scratch directory, removed first so
/// a file found there afterwards was written by this run.
fn scratch(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// A `--json` dump and its top-level keys, in file order.
fn read_dump(path: &PathBuf) -> (Value, Vec<String>) {
    let text = std::fs::read_to_string(path).expect("repro wrote the dump");
    let dump = serde_json::parse(&text).expect("the dump is JSON");
    let Value::Map(entries) = &dump else {
        panic!("the dump must be a map, got {dump:?}");
    };
    let keys = entries.iter().map(|(k, _)| k.clone()).collect();
    (dump, keys)
}

#[test]
fn one_experiment_dumps_itself_and_the_provenance() {
    let path = scratch("repro_cli_one.json");
    let out = repro(&[
        "--experiment",
        "repair_bw",
        "--json",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let (_, keys) = read_dump(&path);
    assert_eq!(keys, ["provenance", "repair_bw"]);
}

#[test]
fn a_whole_quick_run_agrees_with_the_library_and_prints_in_order() {
    let path = scratch("repro_cli_all.json");
    let out = repro(&[
        "--experiment",
        "all",
        "--effort",
        "quick",
        "--json",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");

    let (dump, keys) = read_dump(&path);
    let mut expected_keys: Vec<&str> = drc_bench::EXPERIMENTS.to_vec();
    expected_keys.push("provenance");
    expected_keys.sort_unstable();
    assert_eq!(keys, expected_keys, "the dump is a sorted map");

    let from_binary: Vec<(&'static str, Value)> = drc_bench::EXPERIMENTS
        .iter()
        .map(|&name| {
            let value = drc_bench::json_lookup(&dump, name).expect("key checked above");
            (name, value.clone())
        })
        .collect();
    let from_library = drc_bench::quick_repro_results().expect("repro runs");
    assert_same_repro(&from_library, &from_binary, "the library and the binary");

    let stdout = String::from_utf8(out.stdout).expect("utf-8 tables");
    let names: Vec<&str> = SECTION_TITLES.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, drc_bench::EXPERIMENTS);
    let mut from = 0;
    for (name, title) in SECTION_TITLES {
        let at = stdout[from..]
            .find(title)
            .unwrap_or_else(|| panic!("{name}: '{title}' missing or out of order on stdout"));
        from += at + title.len();
    }
}

#[test]
fn malformed_command_lines_fail_on_stderr_and_produce_nothing() {
    let path = scratch("repro_cli_bad.json");
    let json = path.to_str().expect("utf-8 path");
    let cases: [(&[&str], &str); 5] = [
        (
            &["--json", json, "--experiment", "nope"],
            "unknown experiment 'nope'",
        ),
        (&["--json", json, "--effort", "ful"], "unknown effort 'ful'"),
        (&["--json", json, "--effort"], "--effort needs a value"),
        (
            &["--experiment", "repair_bw", "--json"],
            "--json needs a path",
        ),
        (&["--json", json, "--fast"], "unknown argument: --fast"),
    ];
    for (args, message) in cases {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: stderr was {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?}: printed {:?}", out.stdout);
        assert!(!path.exists(), "{args:?}: wrote {path:?}");
    }
}
