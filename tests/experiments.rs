//! Integration tests for the experiment drivers: every table/figure driver
//! runs, produces structurally-complete output, renders to text, and
//! serialises to the JSON `repro --json` prints — one entry per row, each
//! carrying its row's `code`. JSON is output only: nothing parses a report
//! back into a typed value.

use drc_core::codes::CodeKind;
use drc_core::experiments::{
    degraded_mr::run_degraded_mr, encoding::run_encoding, fig3::run_fig3, fig4::run_fig4,
    fig5::run_fig5, metadata_scale::run_metadata_scale, repair_bandwidth::run_repair_bandwidth,
    table1::run_table1, Effort,
};
use drc_core::mapreduce::SchedulerKind;
use drc_core::reliability::ReliabilityParams;
use serde_json::Value;

/// The `code` of every entry of the printed report's `list` field.
fn printed_codes(report: &Value, list: &str) -> Vec<Value> {
    let Value::Map(fields) = report else {
        panic!("a report prints as an object");
    };
    let Some((_, Value::Seq(rows))) = fields.iter().find(|(k, _)| k == list) else {
        panic!("the report has no `{list}` sequence");
    };
    rows.iter()
        .map(|row| match row {
            Value::Map(f) => f
                .iter()
                .find(|(k, _)| k == "code")
                .expect("row has a code")
                .1
                .clone(),
            other => panic!("a row prints as an object, not {other:?}"),
        })
        .collect()
}

/// A printed report's top-level keys, in print order: its configuration
/// entries, then its rows.
fn printed_keys(report: &Value) -> Vec<&str> {
    let Value::Map(fields) = report else {
        panic!("a report prints as an object");
    };
    fields.iter().map(|(k, _)| k.as_str()).collect()
}

/// `codes` as a report prints them.
fn codes_json(codes: impl IntoIterator<Item = CodeKind>) -> Vec<Value> {
    codes
        .into_iter()
        .map(|code| serde_json::to_value(&code).unwrap())
        .collect()
}

#[test]
fn table1_serialises_and_renders() {
    let table = run_table1(&ReliabilityParams::default()).unwrap();
    let json = serde_json::to_value(&table).unwrap();
    assert_eq!(printed_keys(&json), ["params", "rows"]);
    assert_eq!(
        printed_codes(&json, "rows"),
        codes_json(table.rows.iter().map(|r| r.code))
    );
    let text = table.to_string();
    for code in CodeKind::table1_set() {
        assert!(
            text.contains(&code.to_string()),
            "missing {code} in rendering"
        );
    }
}

/// The full text of the two deterministic tables, as `repro` prints them:
/// the `Display` path every table shares, pinned cell by cell (column
/// widths, padding, number formats). Recorded from the renderer this pin
/// was written against.
const TABLE1_TEXT: &[&str] = &[
    "Table 1: storage overhead, code length and MTTDL",
    "=================================================================================================",
    "Code             Storage overhead   Code length   Tolerance   MTTDL (years)   Paper MTTDL (years)",
    "-------------------------------------------------------------------------------------------------",
    "3-rep            3.00x              3             2           1.11e+09        1.20e+09           ",
    "pentagon         2.22x              5             2           1.11e+08        1.05e+08           ",
    "heptagon         2.10x              7             2           3.17e+07        2.68e+07           ",
    "heptagon-local   2.15x              15            3           7.43e+09        8.34e+09           ",
    "(10,9) RAID+m    2.22x              20            3           2.09e+09        2.03e+09           ",
    "(12,11) RAID+m   2.18x              24            3           9.55e+08        6.50e+08           ",
];
const REPAIR_BANDWIDTH_TEXT: &[&str] = &[
    "Repair bandwidth (blocks), per the codes' repair plans (Section 3.1)",
    "===================================================================================================================================================",
    "Code             1-node repair   2-node repair (worst)   Degraded read (1 replica down)   Degraded read (all replicas down)   Partial parities used",
    "---------------------------------------------------------------------------------------------------------------------------------------------------",
    "2-rep            1.0             -                       1                                unreadable                          0                    ",
    "3-rep            1.0             2                       1                                unreadable                          0                    ",
    "pentagon         4.0             10                      1                                3                                   3                    ",
    "heptagon         6.0             16                      1                                5                                   5                    ",
    "heptagon-local   6.9             28                      1                                5                                   22                   ",
    "(10,9) RAID+m    1.0             10                      1                                9                                   0                    ",
    "(12,11) RAID+m   1.0             12                      1                                11                                  0                    ",
];

/// `lines` as a table renders them: one `\n` after every line.
fn rendered(lines: &[&str]) -> String {
    lines.iter().map(|line| format!("{line}\n")).collect()
}

#[test]
fn table1_renders_the_recorded_text() {
    let table = run_table1(&ReliabilityParams::default()).unwrap();
    assert_eq!(table.to_string(), rendered(TABLE1_TEXT));
}

#[test]
fn repair_bandwidth_renders_the_recorded_text() {
    assert_eq!(
        run_repair_bandwidth().unwrap().to_string(),
        rendered(REPAIR_BANDWIDTH_TEXT)
    );
}

#[test]
fn repair_bandwidth_serialises_and_covers_all_codes() {
    let table = run_repair_bandwidth().unwrap();
    assert_eq!(table.rows.len(), 7); // 2-rep + the six Table 1 codes
    let json = serde_json::to_value(&table).unwrap();
    assert_eq!(
        printed_codes(&json, "rows"),
        codes_json(table.rows.iter().map(|r| r.code))
    );
}

#[test]
fn fig3_data_is_complete_and_serialisable() {
    let data = run_fig3(Effort::Quick).unwrap();
    let json = serde_json::to_value(&data).unwrap();
    assert_eq!(
        printed_codes(&json, "points"),
        codes_json(data.points.iter().map(|p| p.code))
    );
    // Every (mu, code, load) combination exists for the delay scheduler.
    for mu in [2usize, 4, 8] {
        for code in CodeKind::fig3_set() {
            for load in [25.0, 50.0, 75.0, 100.0] {
                assert!(
                    data.points.iter().any(|p| p.map_slots == mu
                        && p.scheduler == SchedulerKind::Delay
                        && p.code == code
                        && p.load_percent == load),
                    "missing point mu={mu} {code} load={load}"
                );
            }
        }
    }
    // Locality percentages are valid percentages.
    for p in &data.points {
        assert!(p.mean_locality_percent >= 0.0 && p.mean_locality_percent <= 100.0);
        assert!(p.std_dev_percent >= 0.0);
        assert!(p.trials > 0);
    }
}

#[test]
fn fig4_and_fig5_are_consistent_with_their_setups() {
    let fig4 = run_fig4(Effort::Quick).unwrap();
    let fig5 = run_fig5(Effort::Quick).unwrap();
    assert!(fig4.setup.contains("setup1"));
    assert!(fig5.setup.contains("setup2"));
    // Set-up 1 sweeps 4 codes over 3 loads; set-up 2 sweeps 3 codes over 4 loads.
    assert_eq!(fig4.points.len(), 12);
    assert_eq!(fig5.points.len(), 12);
    // The heptagon is only measured on set-up 1 (like the paper).
    assert!(fig5.points.iter().all(|p| p.code != CodeKind::Heptagon));
    let json = serde_json::to_value(&fig4).unwrap();
    assert_eq!(
        printed_codes(&json, "points"),
        codes_json(fig4.points.iter().map(|p| p.code))
    );
    // Input volume grows with load, so traffic at 100% exceeds the lowest load
    // for the same code, for both figures.
    for sweep in [&fig4, &fig5] {
        let codes: Vec<CodeKind> = sweep.points.iter().map(|p| p.code).collect();
        for code in codes {
            let min_load = sweep
                .points
                .iter()
                .filter(|p| p.code == code)
                .map(|p| p.load_percent)
                .fold(f64::INFINITY, f64::min);
            let point = |load| {
                sweep
                    .points
                    .iter()
                    .find(|p| p.code == code && p.load_percent == load)
                    .unwrap()
            };
            let (lo, hi) = (point(min_load), point(100.0));
            assert!(hi.network_traffic_gb >= lo.network_traffic_gb);
            assert!(hi.job_time_s >= lo.job_time_s * 0.9);
        }
    }
}

#[test]
fn encoding_report_scales_with_parity_work() {
    let report = run_encoding(32 * 1024, 4).unwrap();
    let row = |kind: CodeKind| report.rows.iter().find(|r| r.code == kind).unwrap();
    // Replication does no parity work; coded schemes do.
    assert_eq!(row(CodeKind::THREE_REP).stripe_parity_bytes, 0);
    assert!(
        row(CodeKind::HeptagonLocal).stripe_parity_bytes
            > row(CodeKind::Pentagon).stripe_parity_bytes
    );
    // Throughput numbers are positive and the report renders.
    assert!(report.rows.iter().all(|r| r.throughput_mb_per_s > 0.0));
    assert!(report.to_string().contains("Encoding throughput"));
    let json = serde_json::to_value(&report).unwrap();
    assert_eq!(printed_keys(&json), ["block_bytes", "stripes", "rows"]);
}

#[test]
fn degraded_mr_report_counts_failures_sensibly() {
    let report = run_degraded_mr(Effort::Quick).unwrap();
    // Degraded reads can only appear when nodes have failed.
    for p in &report.rows {
        if p.failed_nodes == 0 {
            assert_eq!(p.degraded_reads, 0.0);
            assert_eq!(p.failed_job_fraction, 0.0);
        }
        assert!(p.data_locality_percent <= 100.0);
    }
    // The report includes every Fig. 4 code at 0, 1 and 2 failures.
    for code in CodeKind::fig4_set() {
        for failed in [0usize, 1, 2] {
            assert!(report
                .rows
                .iter()
                .any(|p| p.code == code && p.failed_nodes == failed));
        }
    }
    let json = serde_json::to_value(&report).unwrap();
    assert_eq!(printed_keys(&json), ["load_percent", "points"]);
    assert_eq!(
        printed_codes(&json, "points"),
        codes_json(report.rows.iter().map(|p| p.code))
    );
    assert!(serde_json::to_string(&json)
        .unwrap()
        .contains("failed_nodes"));
}

#[test]
fn metadata_scale_is_the_recorded_structural_table() {
    // The index's own accounting of every quick row, recorded when the
    // table stopped carrying wall-clock rates: a layout change shows up
    // here as a changed byte count, a reintroduced clock as a differing
    // second run.
    let recorded: [(CodeKind, usize, usize, usize); 5] = [
        (CodeKind::TWO_REP, 100, 200_000, 3_200_445),
        (CodeKind::Pentagon, 100, 200_000, 800_608),
        (CodeKind::HeptagonLocal, 100, 200_024, 546_630),
        (CodeKind::TWO_REP, 1000, 10_000_000, 160_004_045),
        (CodeKind::Pentagon, 1000, 10_000_000, 40_004_208),
    ];
    let table = run_metadata_scale(Effort::Quick).unwrap();
    let got: Vec<_> = table
        .rows
        .iter()
        .map(|r| (r.code, r.nodes, r.blocks, r.index_bytes))
        .collect();
    assert_eq!(got, recorded);
    for row in &table.rows {
        assert_eq!(
            row.bytes_per_block,
            row.index_bytes as f64 / row.blocks as f64
        );
    }
    let again = run_metadata_scale(Effort::Quick).unwrap();
    assert_eq!(
        serde_json::to_string(&table).unwrap(),
        serde_json::to_string(&again).unwrap(),
        "two consecutive runs must serialise byte-identically"
    );
}

/// `ClusterSpec` counts blocks in whole MiB. The storage experiments used
/// to round a fractional request down (1.5 MiB ran at 1 MiB while the report
/// printed 1572864) and a sub-MiB or zero one up to 1 MiB; all four entry
/// points now refuse before simulating anything.
#[test]
fn storage_experiments_reject_block_sizes_that_are_not_whole_mib() {
    use drc_core::experiments::{
        failure_trace::run_failure_trace, overlap::run_overlap,
        repair_pipeline::run_repair_pipeline, shuffle_contention::run_shuffle_contention,
    };
    use drc_core::DrcError;
    for block_bytes in [0, 512 * 1024, 1536 * 1024] {
        let errors = [
            run_overlap(block_bytes, 2).err(),
            run_shuffle_contention(block_bytes, 20).err(),
            run_failure_trace(block_bytes, 20).err(),
            run_repair_pipeline(block_bytes, 2, &[1 << 20]).err(),
        ];
        for (experiment, err) in errors.iter().enumerate() {
            assert!(
                matches!(err, Some(DrcError::InvalidExperiment { reason }) if reason.contains("MiB")),
                "experiment {experiment} with {block_bytes}-byte blocks: {err:?}"
            );
        }
    }
    // A whole-MiB request prints the block size it simulated.
    let printed = serde_json::to_value(&run_overlap(2 << 20, 1).unwrap()).unwrap();
    assert_eq!(printed_keys(&printed), ["stripes", "block_bytes", "rows"]);
    let Value::Map(fields) = printed else {
        unreachable!("keys were read above");
    };
    assert_eq!(fields[1], ("block_bytes".to_string(), Value::UInt(2 << 20)));
}
