//! The workspace pass: file collection, cross-file rule wiring,
//! suppression application, the unsafe budget and the `LINT.json` report.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::rules::{
    self, check_file, check_target_feature_calls, suppressions, Finding, Suppression,
    TargetFeatureFn, UnsafeSite, MIN_JUSTIFICATION, RULE_IDS,
};
use crate::scan::{scan, Scan, TokKind};

/// One source file handed to the engine (path is workspace-relative with
/// forward slashes).
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Workspace-relative path.
    pub path: String,
    /// Full file contents.
    pub source: String,
}

/// A finding that was silenced by a justified suppression marker.
#[derive(Debug, Clone)]
pub struct SuppressedFinding {
    /// The silenced finding.
    pub finding: Finding,
    /// The marker's justification text.
    pub justification: String,
}

/// The size of one crate's `src/` tree — the design-quality headline
/// `LINT.json` tracks next to the unsafe inventory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrateSize {
    /// Lines in `crates/<name>/src/**/*.rs`, as `wc -l` counts them (code,
    /// comments, blanks and unit tests alike).
    pub src_lines: usize,
    /// `pub` declarations outside test code: every `pub` keyword not
    /// followed by a `(crate)`-style restriction — items, re-exports and
    /// fields. A lexical count, comparable between commits rather than an
    /// exact API surface.
    pub pub_items: usize,
}

/// Everything one whole-workspace pass produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Unsuppressed violations — the pass fails if any exist.
    pub findings: Vec<Finding>,
    /// Violations silenced by justified markers.
    pub suppressed: Vec<SuppressedFinding>,
    /// Every `unsafe` occurrence in the workspace (vendor included).
    pub unsafe_inventory: Vec<UnsafeSite>,
    /// Every `#[target_feature]` function definition.
    pub target_feature_fns: Vec<TargetFeatureFn>,
    /// Source lines and `pub` declarations per crate, keyed by the crate's
    /// directory under `crates/`.
    pub crate_sizes: BTreeMap<String, CrateSize>,
}

impl Report {
    /// Unsuppressed findings for one rule.
    pub fn findings_for(&self, rule: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }
}

/// Runs the full pass over in-memory files (the unit-testable core; the
/// binary wraps it with filesystem walking).
pub fn run_files(files: &[FileInput]) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };

    // Pass 1: scan + single-file rules.
    let mut scans = Vec::with_capacity(files.len());
    let mut per_file_findings: Vec<Vec<Finding>> = Vec::with_capacity(files.len());
    for f in files {
        let s = scan(&f.source);
        let checked = check_file(&f.path, &s);
        report.unsafe_inventory.extend(checked.unsafe_sites);
        report
            .target_feature_fns
            .extend(checked.target_feature_fns.clone());
        per_file_findings.push(checked.findings);
        if let Some(name) = crate_of_src_file(&f.path) {
            let size = report.crate_sizes.entry(name.to_string()).or_default();
            size.src_lines += f.source.lines().count();
            size.pub_items += pub_items(&s);
        }
        scans.push(s);
    }

    // Pass 2: cross-file target-feature call gating.
    for (i, f) in files.iter().enumerate() {
        per_file_findings[i].extend(check_target_feature_calls(
            &f.path,
            &scans[i],
            &report.target_feature_fns,
        ));
    }

    // Pass 3: apply suppressions per file.
    for (i, f) in files.iter().enumerate() {
        let sups = suppressions(&scans[i]);
        let mut used = vec![false; sups.len()];
        for finding in per_file_findings[i].drain(..) {
            match matching_suppression(&sups, &finding) {
                Some(si) => {
                    used[si] = true;
                    let justification = sups[si].justification.clone();
                    if justification.len() >= MIN_JUSTIFICATION {
                        report.suppressed.push(SuppressedFinding {
                            finding,
                            justification,
                        });
                    } else {
                        // An unjustified marker does not silence anything.
                        report.findings.push(finding);
                    }
                }
                None => report.findings.push(finding),
            }
        }
        // Marker hygiene: malformed ids, missing justifications on used
        // markers, and stale markers that silence nothing.
        for (si, sup) in sups.iter().enumerate() {
            report
                .findings
                .extend(marker_hygiene(&f.path, sup, used[si]));
        }
    }

    // Deterministic report order.
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.finding.path, a.finding.line).cmp(&(&b.finding.path, b.finding.line)));
    report
        .unsafe_inventory
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
}

/// `Some("hdfs")` for `crates/hdfs/src/fs.rs`; `None` for tests, benches and
/// everything outside `crates/`.
fn crate_of_src_file(path: &str) -> Option<&str> {
    let (name, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    rest.starts_with("src/").then_some(name)
}

/// `pub` keywords outside test code that are not `pub(…)`-restricted.
fn pub_items(scan: &Scan) -> usize {
    scan.tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            t.kind == TokKind::Ident
                && t.text == "pub"
                && !scan.is_test_line(t.line)
                && scan.tokens.get(i + 1).is_none_or(|next| next.text != "(")
        })
        .count()
}

fn matching_suppression(sups: &[Suppression], finding: &Finding) -> Option<usize> {
    // suppression-hygiene findings are never themselves suppressible.
    if finding.rule == "suppression-hygiene" {
        return None;
    }
    sups.iter().position(|s| {
        s.rules.iter().any(|r| r == finding.rule) && s.applies_to.contains(&finding.line)
    })
}

fn marker_hygiene(path: &str, sup: &Suppression, used: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    if sup.rules.is_empty() {
        out.push(Finding {
            path: path.to_string(),
            line: sup.line,
            rule: "suppression-hygiene",
            message: "malformed `drc-lint: allow(...)` marker (no rule ids)".to_string(),
        });
        return out;
    }
    for r in &sup.rules {
        if !RULE_IDS.contains(&r.as_str()) {
            out.push(Finding {
                path: path.to_string(),
                line: sup.line,
                rule: "suppression-hygiene",
                message: format!("suppression names unknown rule `{r}`"),
            });
        }
    }
    if sup.justification.len() < MIN_JUSTIFICATION {
        out.push(Finding {
            path: path.to_string(),
            line: sup.line,
            rule: "suppression-hygiene",
            message: format!(
                "suppression without a justification (need at least {MIN_JUSTIFICATION} \
                 characters after `allow(...)`)"
            ),
        });
    } else if !used {
        out.push(Finding {
            path: path.to_string(),
            line: sup.line,
            rule: "suppression-hygiene",
            message: "stale suppression: it silences no finding — remove it".to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Filesystem walking.
// ---------------------------------------------------------------------------

/// Directory subtrees the workspace pass scans, relative to the root.
pub const SCAN_ROOTS: &[&str] = &["crates", "vendor", "src", "tests", "examples"];

/// Path substrings excluded from the scan (fixtures are deliberately full
/// of violations; `target` holds build products).
pub const SCAN_EXCLUDES: &[&str] = &["crates/lint/tests/fixtures", "target"];

/// Collects every `.rs` file under the scan roots, sorted for determinism.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<FileInput>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if SCAN_EXCLUDES.iter().any(|e| rel.contains(e)) {
            continue;
        }
        files.push(FileInput {
            source: std::fs::read_to_string(&p)?,
            path: rel,
        });
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Unsafe budget.
// ---------------------------------------------------------------------------

/// The parsed unsafe budget file (`crates/lint/unsafe_budget.txt`): a
/// history of `<count> <justification>` lines; the last line is the budget
/// in force. Growing the unsafe inventory requires appending a justified
/// line, which shows up in review.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeBudget {
    /// Maximum allowed inventory size.
    pub max: usize,
    /// Justification recorded for the budget in force.
    pub justification: String,
}

/// Parses the budget file contents.
///
/// # Errors
///
/// Returns a description of the malformed line if any entry lacks a count
/// or a justification, or the file has no entries.
pub fn parse_budget(text: &str) -> Result<UnsafeBudget, String> {
    let mut last: Option<UnsafeBudget> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (count, justification) = line.split_once(' ').ok_or_else(|| {
            format!(
                "unsafe_budget.txt:{}: entry needs `<count> <justification>`",
                i + 1
            )
        })?;
        let max: usize = count
            .parse()
            .map_err(|_| format!("unsafe_budget.txt:{}: `{count}` is not a count", i + 1))?;
        let justification = justification.trim().to_string();
        if justification.len() < MIN_JUSTIFICATION {
            return Err(format!(
                "unsafe_budget.txt:{}: budget changes need a justification (≥ {MIN_JUSTIFICATION} \
                 characters)",
                i + 1
            ));
        }
        last = Some(UnsafeBudget { max, justification });
    }
    last.ok_or_else(|| "unsafe_budget.txt has no budget entries".to_string())
}

// ---------------------------------------------------------------------------
// LINT.json rendering.
// ---------------------------------------------------------------------------

fn s(v: &str) -> serde_json::Value {
    serde_json::Value::Str(v.to_string())
}

fn u(v: usize) -> serde_json::Value {
    serde_json::Value::UInt(v as u64)
}

fn finding_json(f: &Finding) -> serde_json::Value {
    serde_json::Value::Map(vec![
        ("file".to_string(), s(&f.path)),
        ("line".to_string(), u(f.line as usize)),
        ("rule".to_string(), s(f.rule)),
        ("message".to_string(), s(&f.message)),
    ])
}

/// Renders the machine-readable `LINT.json` document: provenance stamp,
/// per-rule counts, unsuppressed violations, justified suppressions and the
/// unsafe inventory with its budget.
pub fn to_json(report: &Report, budget: &UnsafeBudget) -> serde_json::Value {
    let per_rule: Vec<(String, serde_json::Value)> = RULE_IDS
        .iter()
        .map(|rule| {
            let violations = report.findings.iter().filter(|f| f.rule == *rule).count();
            let suppressed = report
                .suppressed
                .iter()
                .filter(|sf| sf.finding.rule == *rule)
                .count();
            (
                (*rule).to_string(),
                serde_json::Value::Map(vec![
                    ("violations".to_string(), u(violations)),
                    ("suppressed".to_string(), u(suppressed)),
                ]),
            )
        })
        .collect();

    serde_json::Value::Map(vec![
        ("provenance".to_string(), drc_bench::provenance()),
        ("files_scanned".to_string(), u(report.files_scanned)),
        ("rules".to_string(), serde_json::Value::Map(per_rule)),
        (
            "violations".to_string(),
            serde_json::Value::Seq(report.findings.iter().map(finding_json).collect()),
        ),
        (
            "suppressions".to_string(),
            serde_json::Value::Seq(
                report
                    .suppressed
                    .iter()
                    .map(|sf| {
                        serde_json::Value::Map(vec![
                            ("file".to_string(), s(&sf.finding.path)),
                            ("line".to_string(), u(sf.finding.line as usize)),
                            ("rule".to_string(), s(sf.finding.rule)),
                            ("justification".to_string(), s(&sf.justification)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "unsafe_inventory".to_string(),
            serde_json::Value::Seq(
                report
                    .unsafe_inventory
                    .iter()
                    .map(|site| {
                        serde_json::Value::Map(vec![
                            ("file".to_string(), s(&site.path)),
                            ("line".to_string(), u(site.line as usize)),
                            ("kind".to_string(), s(site.kind)),
                            (
                                "has_safety_comment".to_string(),
                                serde_json::Value::Bool(site.has_safety),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("unsafe_count".to_string(), u(report.unsafe_inventory.len())),
        (
            "crate_sizes".to_string(),
            serde_json::Value::Map(
                report
                    .crate_sizes
                    .iter()
                    .map(|(name, c)| {
                        (
                            name.clone(),
                            serde_json::Value::Map(vec![
                                ("src_lines".to_string(), u(c.src_lines)),
                                ("pub_items".to_string(), u(c.pub_items)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "src_lines".to_string(),
            u(report.crate_sizes.values().map(|c| c.src_lines).sum()),
        ),
        (
            "pub_items".to_string(),
            u(report.crate_sizes.values().map(|c| c.pub_items).sum()),
        ),
        ("unsafe_budget".to_string(), u(budget.max)),
        (
            "unsafe_budget_justification".to_string(),
            s(&budget.justification),
        ),
        (
            "target_feature_fns".to_string(),
            serde_json::Value::Seq(
                report
                    .target_feature_fns
                    .iter()
                    .map(|f| {
                        serde_json::Value::Map(vec![
                            ("file".to_string(), s(&f.path)),
                            ("line".to_string(), u(f.line as usize)),
                            ("name".to_string(), s(&f.name)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// Re-export the rule table so the binary prints it without reaching into
// `rules` directly.
pub use rules::RULE_IDS as ALL_RULES;

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, source: &str) -> FileInput {
        FileInput {
            path: path.to_string(),
            source: source.to_string(),
        }
    }

    #[test]
    fn end_to_end_over_virtual_files() {
        let files = vec![
            file(
                "crates/gf/src/kernel.rs",
                "#[target_feature(enable = \"avx2\")]\n/// # Safety\nunsafe fn fast(d: &mut [u8]) {}\n",
            ),
            file(
                "crates/codes/src/lib.rs",
                "fn f() { unsafe { fast(d) } }\n",
            ),
        ];
        let report = run_files(&files);
        // codes calls the target_feature fn directly AND has an unsafe
        // block without SAFETY.
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"target-feature-gating"), "{rules:?}");
        assert!(rules.contains(&"unsafe-hygiene"), "{rules:?}");
        assert_eq!(report.unsafe_inventory.len(), 2);
        assert_eq!(report.target_feature_fns.len(), 1);
    }

    #[test]
    fn justified_suppression_moves_finding_to_suppressed() {
        let files = vec![file(
            "crates/sim/src/lib.rs",
            "// drc-lint: allow(determinism): build-time map, order never observed.\nuse std::collections::HashMap;\n",
        )];
        let report = run_files(&files);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].finding.rule, "determinism");
    }

    #[test]
    fn unjustified_suppression_keeps_finding_and_flags_marker() {
        let files = vec![file(
            "crates/sim/src/lib.rs",
            "// drc-lint: allow(determinism)\nuse std::collections::HashMap;\n",
        )];
        let report = run_files(&files);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"determinism"), "{rules:?}");
        assert!(rules.contains(&"suppression-hygiene"), "{rules:?}");
    }

    #[test]
    fn stale_suppression_is_flagged() {
        let files = vec![file(
            "crates/sim/src/lib.rs",
            "// drc-lint: allow(determinism): this map was removed long ago.\nuse std::collections::BTreeMap;\n",
        )];
        let report = run_files(&files);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["suppression-hygiene"]);
    }

    #[test]
    fn unknown_rule_in_suppression_is_flagged() {
        let files = vec![file(
            "crates/sim/src/lib.rs",
            "// drc-lint: allow(no-such-rule): whatever this was meant to do.\nfn f() {}\n",
        )];
        let report = run_files(&files);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "suppression-hygiene" && f.message.contains("no-such-rule")));
    }

    #[test]
    fn crate_sizes_count_src_lines_and_unrestricted_pub_outside_tests() {
        let files = vec![
            file(
                "crates/sim/src/lib.rs",
                "pub mod a;\npub(crate) fn hidden() {}\n// pub in a comment\npub struct S {\n    pub f: u8,\n    g: u8,\n}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
            ),
            file("crates/sim/src/net.rs", "pub fn n() {}\n"),
            // Not under src/: tests and benches are not the crate's surface.
            file("crates/sim/tests/t.rs", "pub fn t() {}\n"),
            file("vendor/rand/src/lib.rs", "pub fn v() {}\n"),
        ];
        let report = run_files(&files);
        assert_eq!(
            report.crate_sizes.iter().collect::<Vec<_>>(),
            [(
                &"sim".to_string(),
                &CrateSize {
                    src_lines: 12,
                    pub_items: 4,
                }
            )]
        );
    }

    #[test]
    fn budget_parsing() {
        let b = parse_budget("# comment\n40 initial inventory after the SAFETY audit\n").unwrap();
        assert_eq!(b.max, 40);
        assert!(parse_budget("").is_err());
        assert!(parse_budget("40\n").is_err(), "missing justification");
        assert!(parse_budget("forty is fine\n").is_err());
        // History: last entry wins.
        let b =
            parse_budget("40 initial audit\n42 two new gfni kernels, SAFETY-reviewed\n").unwrap();
        assert_eq!(b.max, 42);
    }

    #[test]
    fn json_document_shape() {
        let files = vec![file("crates/sim/src/lib.rs", "fn ok() {}\n")];
        let report = run_files(&files);
        let doc = to_json(
            &report,
            &UnsafeBudget {
                max: 7,
                justification: "test budget".to_string(),
            },
        );
        let serde_json::Value::Map(entries) = &doc else {
            panic!("LINT.json must be a map");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        for expected in [
            "provenance",
            "files_scanned",
            "rules",
            "violations",
            "suppressions",
            "unsafe_inventory",
            "unsafe_count",
            "unsafe_budget",
            "crate_sizes",
            "src_lines",
            "pub_items",
            "target_feature_fns",
        ] {
            assert!(keys.contains(&expected), "missing {expected} in {keys:?}");
        }
        // Must round-trip through the vendored serde_json.
        let text = serde_json::to_string_pretty(&doc).expect("render");
        let back: serde_json::Value = serde_json::parse(&text).expect("parse");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&doc).unwrap()
        );
    }
}
