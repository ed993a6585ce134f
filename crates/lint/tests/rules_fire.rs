//! Negative fixture tests: every rule must fire on its committed fixture.
//!
//! The fixtures under `tests/fixtures/` are excluded from the workspace scan
//! (`engine::SCAN_EXCLUDES`), so they can stay permanently violating; these
//! tests feed them to the engine under crafted virtual paths and assert the
//! expected findings. If a rule rots to the point of never firing, the
//! corresponding test here goes red — the gate cannot silently become a
//! no-op.

use drc_lint::engine::{run_files, FileInput, Report};

fn run_one(path: &str, source: &str) -> Report {
    run_files(&[FileInput {
        path: path.to_string(),
        source: source.to_string(),
    }])
}

fn rule_lines(report: &Report, rule: &str) -> Vec<u32> {
    report.findings_for(rule).iter().map(|f| f.line).collect()
}

#[test]
fn determinism_fires_on_fixture_in_sim_scope() {
    let src = include_str!("fixtures/determinism.rs");
    for scoped in [
        "crates/sim/src/fixture.rs",
        "crates/cluster/src/fixture.rs",
        "crates/hdfs/src/fixture.rs",
        "crates/mapreduce/src/fixture.rs",
        "crates/reliability/src/fixture.rs",
        "crates/codes/src/fixture.rs",
        // `repro` must not time itself: an `Instant` in an experiment fires.
        "crates/core/src/experiments/fixture.rs",
    ] {
        let report = run_one(scoped, src);
        let lines = rule_lines(&report, "determinism");
        assert!(
            lines.len() >= 6,
            "{scoped}: expected HashMap/HashSet/Instant/SystemTime/thread_rng/random \
             findings, got {lines:?}"
        );
    }
}

#[test]
fn determinism_is_scoped_to_sim_facing_crates() {
    let src = include_str!("fixtures/determinism.rs");
    // The same file under a bench path is out of scope: benches measure wall
    // time on purpose.
    let report = run_one("crates/bench/src/fixture.rs", src);
    assert!(
        report.findings_for("determinism").is_empty(),
        "bench code may use wall clocks: {:?}",
        report.findings
    );
}

#[test]
fn parallel_float_reduction_fires_on_fixture_and_spares_decoys() {
    let src = include_str!("fixtures/parallel_float_reduction.rs");
    let report = run_one("crates/core/src/fixture.rs", src);
    let lines = rule_lines(&report, "parallel-float-reduction");
    assert_eq!(
        lines.len(),
        3,
        "expected scoped_sum/spawned_mean/decremental findings (integer, \
         serial and string-join decoys exempt), got {lines:?}"
    );
}

#[test]
fn parallel_float_reduction_is_src_scoped() {
    let src = include_str!("fixtures/parallel_float_reduction.rs");
    // Benches and tests may reduce however they like; only library sources
    // feed the byte-identical repro path.
    let report = run_one("crates/core/benches/fixture.rs", src);
    assert!(
        report.findings_for("parallel-float-reduction").is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn unsafe_hygiene_fires_and_decoys_do_not_count() {
    let src = include_str!("fixtures/unsafe_hygiene.rs");
    let report = run_one("crates/gf/src/fixture.rs", src);
    let lines = rule_lines(&report, "unsafe-hygiene");
    // `no_safety_doc` (fn + its interior block) and `bare_block` violate;
    // the SAFETY-commented block and the `# Safety`-documented fn do not.
    assert_eq!(
        lines.len(),
        3,
        "expected the three uncommented unsafe sites, got {lines:?}"
    );
    // Decoys: `unsafe` inside strings/raw strings/comments is not code, so
    // the inventory must contain exactly the real sites (6: two fns, four
    // blocks), none of them past the `decoys` fn.
    assert_eq!(
        report.unsafe_inventory.len(),
        6,
        "inventory picked up a decoy: {:?}",
        report.unsafe_inventory
    );
    let commented = report
        .unsafe_inventory
        .iter()
        .filter(|s| s.has_safety)
        .count();
    assert_eq!(commented, 3, "{:?}", report.unsafe_inventory);
}

#[test]
fn target_feature_gating_fires_outside_dispatch_module() {
    let src = include_str!("fixtures/target_feature.rs");
    let report = run_one("crates/codes/src/fixture.rs", src);
    let lines = rule_lines(&report, "target-feature-gating");
    assert!(
        !lines.is_empty(),
        "a #[target_feature] definition outside {:?} must be flagged",
        drc_lint::rules::DISPATCH_MODULES
    );
    // The definition is still inventoried.
    assert_eq!(report.target_feature_fns.len(), 1);
    assert_eq!(report.target_feature_fns[0].name, "rogue_kernel_impl");
}

#[test]
fn target_feature_definitions_are_allowed_in_the_two_dispatch_modules_only() {
    let src = include_str!("fixtures/target_feature.rs");
    for allowed in drc_lint::rules::DISPATCH_MODULES {
        let report = run_one(allowed, src);
        assert!(
            report.findings_for("target-feature-gating").is_empty(),
            "{allowed}: {:?}",
            report.findings
        );
    }
    // A third file — another vendored stub, a sibling of an allowed file,
    // a product crate — is still flagged.
    for third in [
        "vendor/rand/src/lib.rs",
        "vendor/rand_chacha/src/other.rs",
        "vendor/rand_chacha/tests/stream_oracle.rs",
        "crates/gf/src/slice.rs",
        "crates/mapreduce/src/scheduler/delay.rs",
    ] {
        let report = run_one(third, src);
        assert!(
            !report.findings_for("target-feature-gating").is_empty(),
            "a #[target_feature] definition in {third} must be flagged"
        );
    }
}

#[test]
fn target_feature_call_from_wrong_file_is_flagged() {
    // Definition in a dispatch module is fine; calling it from another
    // file — including the other dispatch module — is not.
    let def = "#[target_feature(enable = \"avx2\")]\n/// # Safety\n/// fixture\nunsafe fn k_impl(d: &mut [u8]) { unsafe { core::hint::unreachable_unchecked() } }\n";
    let caller = "fn f(d: &mut [u8]) { k_impl(d); }\n";
    let report = run_files(&[
        FileInput {
            path: "crates/gf/src/kernel.rs".to_string(),
            source: format!("{def}{caller}"),
        },
        FileInput {
            path: "crates/codes/src/caller.rs".to_string(),
            source: caller.to_string(),
        },
        FileInput {
            path: "vendor/rand_chacha/src/lib.rs".to_string(),
            source: caller.to_string(),
        },
    ]);
    let mut flagged: Vec<&str> = report
        .findings_for("target-feature-gating")
        .iter()
        .map(|f| f.path.as_str())
        .collect();
    flagged.sort_unstable();
    assert_eq!(
        flagged,
        [
            "crates/codes/src/caller.rs",
            "vendor/rand_chacha/src/lib.rs"
        ],
        "{:?}",
        report.findings
    );
}

#[test]
fn lossy_cast_fires_on_fixture_and_spares_sanctioned_shapes() {
    let src = include_str!("fixtures/lossy_cast.rs");
    let report = run_one("crates/mapreduce/src/fixture.rs", src);
    let lines = rule_lines(&report, "lossy-float-cast");
    assert_eq!(
        lines.len(),
        3,
        "expected truncating_accounting/method_chain/chained_cast, got {lines:?}"
    );
}

#[test]
fn panic_hygiene_fires_on_fixture_outside_tests() {
    let src = include_str!("fixtures/panic_hygiene.rs");
    let report = run_one("crates/hdfs/src/fixture.rs", src);
    let lines = rule_lines(&report, "panic-hygiene");
    assert_eq!(
        lines.len(),
        3,
        "expected unwrap/expect/panic! findings (test mod exempt), got {lines:?}"
    );
}

#[test]
fn suppression_hygiene_fires_on_fixture() {
    let src = include_str!("fixtures/suppression_hygiene.rs");
    let report = run_one("crates/sim/src/fixture.rs", src);
    // The good marker silences its HashMap use.
    assert_eq!(report.suppressed.len(), 1, "{:?}", report.suppressed);
    // The unjustified marker leaves its HashSet finding live AND flags the
    // marker; unknown-rule, stale and malformed markers are each flagged.
    let hygiene = rule_lines(&report, "suppression-hygiene");
    assert!(
        hygiene.len() >= 4,
        "expected unjustified/unknown-rule/stale/malformed findings, got {hygiene:?}"
    );
    assert_eq!(rule_lines(&report, "determinism").len(), 1);
}

#[test]
fn clean_file_produces_no_findings() {
    let src = "//! A well-behaved module.\nuse std::collections::BTreeMap;\n\n/// Doubles.\npub fn double(x: u64) -> u64 {\n    x * 2\n}\n";
    let report = run_one("crates/sim/src/clean.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.suppressed.is_empty());
    assert!(report.unsafe_inventory.is_empty());
}
