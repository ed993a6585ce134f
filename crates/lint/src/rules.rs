//! The rule engine: six workspace rules grounded in this repo's failure
//! history, plus inline suppression handling.
//!
//! Each rule is identified by a stable kebab-ish id used both in findings
//! and in suppression markers:
//!
//! | id | guards against |
//! |---|---|
//! | `determinism` | wall-clock time, hash-order iteration and OS randomness in the sim-facing crates |
//! | `parallel-float-reduction` | float accumulation inside a parallel region (scheduling-order-dependent sums break byte-identical repro output) |
//! | `unsafe-hygiene` | `unsafe` without an adjacent `// SAFETY:` comment |
//! | `target-feature-gating` | `#[target_feature]` functions defined outside the dispatch modules, or called outside the one that defines them |
//! | `lossy-float-cast` | `as u64`/`as usize`/`as u32` on float-typed expressions (the PR 3 truncation bug class) |
//! | `panic-hygiene` | `unwrap()`/`expect()`/`panic!` in non-test library code of the core crates (the PR 6 silent-miss lesson) |
//!
//! A violation is suppressed by a comment on the same line or the line
//! block immediately above:
//!
//! ```text
//! // drc-lint: allow(panic-hygiene): reached only if the arena invariant
//! // is already broken; an error here would mask index corruption.
//! ```
//!
//! The justification after the closing parenthesis is **mandatory** (at
//! least [`MIN_JUSTIFICATION`] characters); a bare `allow(...)` is itself a
//! violation (`suppression-hygiene`).

use crate::scan::{Scan, Tok, TokKind};

/// Rule ids, in report order.
pub const RULE_IDS: &[&str] = &[
    "determinism",
    "parallel-float-reduction",
    "unsafe-hygiene",
    "target-feature-gating",
    "lossy-float-cast",
    "panic-hygiene",
    "suppression-hygiene",
];

/// Minimum justification length (after trimming separators) for a
/// suppression marker to count as justified.
pub const MIN_JUSTIFICATION: usize = 8;

/// Crates whose `src/` trees must stay deterministic: virtual time and
/// `BTreeMap` are the law here. `core` is in scope so that `repro` cannot
/// start timing itself again: its one host-dependent table
/// (`experiments/encoding.rs`, the paper's encode throughput) carries the
/// only suppressions.
pub const DETERMINISM_CRATES: &[&str] = &[
    "sim",
    "cluster",
    "hdfs",
    "mapreduce",
    "reliability",
    "codes",
    "core",
];

/// Crates whose non-test library code must not panic: errors are typed.
pub const PANIC_CRATES: &[&str] = &[
    "sim",
    "cluster",
    "hdfs",
    "mapreduce",
    "reliability",
    "codes",
    "gf",
];

/// The only modules allowed to define `#[target_feature]` functions: the GF
/// kernel tiers and the ChaCha8 eight-block refill. Each may call only the
/// ones it defines itself, from its feature-detected dispatch.
pub const DISPATCH_MODULES: &[&str] = &["crates/gf/src/kernel.rs", "vendor/rand_chacha/src/lib.rs"];

fn is_dispatch_module(path: &str) -> bool {
    DISPATCH_MODULES.iter().any(|m| path.ends_with(m))
}

/// Functions sanctioned to cast float expressions to integers: the
/// checked/saturating byte-scaling path introduced after the PR 3 bug, and
/// the guarded seconds→nanoseconds converters (both reject non-finite input
/// and round explicitly before casting). Matching is by bare function name —
/// a same-named helper elsewhere inherits the sanction, so keep these names
/// specific.
pub const CAST_ALLOWLIST_FNS: &[&str] = &["scale_bytes", "from_secs_f64", "secs_to_ns"];

/// Identifiers whose presence in a determinism-scoped crate is a violation.
const NONDETERMINISM_IDENTS: &[(&str, &str)] = &[
    ("Instant", "wall-clock time; use drc_sim virtual time"),
    ("SystemTime", "wall-clock time; use drc_sim virtual time"),
    (
        "HashMap",
        "iteration order is nondeterministic; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order is nondeterministic; use BTreeSet",
    ),
    ("RandomState", "nondeterministic hasher seed"),
    (
        "thread_rng",
        "OS-seeded randomness; use a seeded ChaCha rng",
    ),
    ("OsRng", "OS randomness; use a seeded ChaCha rng"),
    (
        "from_entropy",
        "OS-seeded randomness; use a seeded ChaCha rng",
    ),
];

/// Call names that open a parallel region: everything lexically inside the
/// call's parentheses (closure bodies included) may execute on another
/// thread in scheduling order. `join` also matches thread handles and string
/// joins, but those never contain a float `+=` inside the call parens, so
/// the combination stays precise.
const PARALLEL_ENTRYPOINTS: &[&str] = &[
    "spawn",
    "scope",
    "join",
    "install",
    "broadcast",
    "par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_bridge",
];

/// Float-returning methods that mark a cast operand as float-typed.
const FLOAT_METHODS: &[&str] = &[
    "ceil",
    "floor",
    "round",
    "trunc",
    "fract",
    "sqrt",
    "cbrt",
    "powf",
    "powi",
    "exp",
    "exp2",
    "ln",
    "log2",
    "log10",
    "hypot",
    "to_radians",
    "to_degrees",
    "recip",
    "mul_add",
];

/// One rule violation (or suppression-hygiene problem).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// One of [`RULE_IDS`].
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// One `unsafe` occurrence recorded in the inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// `fn`, `block`, `impl`, `trait` or `other`.
    pub kind: &'static str,
    /// Whether an adjacent SAFETY comment was found.
    pub has_safety: bool,
}

/// A `#[target_feature]` function definition site.
#[derive(Debug, Clone)]
pub struct TargetFeatureFn {
    /// Workspace-relative path of the definition.
    pub path: String,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// The function's name.
    pub name: String,
}

/// Where a file sits in the workspace, derived from its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Short crate key (`sim` for `crates/sim/…`, `root` for top-level
    /// `src`/`tests`/`examples`, vendor crate name for `vendor/…`).
    pub crate_key: String,
    /// `src`, `tests`, `benches`, `examples` or `other`.
    pub section: &'static str,
    /// Whether the file lives under `vendor/`.
    pub vendor: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    let parts: Vec<&str> = path.split('/').collect();
    let (crate_key, vendor, rest) = match parts.as_slice() {
        ["crates", name, rest @ ..] => ((*name).to_string(), false, rest),
        ["vendor", name, rest @ ..] => ((*name).to_string(), true, rest),
        rest => ("root".to_string(), false, rest),
    };
    let section = match rest.first().copied() {
        Some("src") => "src",
        Some("tests") => "tests",
        Some("benches") => "benches",
        Some("examples") => "examples",
        _ => "other",
    };
    FileClass {
        crate_key,
        section,
        vendor,
    }
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

/// A parsed `// drc-lint: allow(rule, …): justification` marker.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the marker appears on.
    pub line: u32,
    /// Rules it suppresses.
    pub rules: Vec<String>,
    /// The justification text (may be empty — then it is a violation).
    pub justification: String,
    /// Lines the marker applies to (its own plus the next code line).
    pub applies_to: Vec<u32>,
}

const MARKER: &str = "drc-lint: allow(";

/// Extracts every suppression marker from a scanned file.
///
/// A marker must be the *start* of its comment (`// drc-lint: allow(…)`) —
/// prose that mentions the syntax mid-sentence, or doc examples quoting a
/// full marker line (whose comment body then starts with `// `), do not
/// parse as suppressions.
pub fn suppressions(scan: &Scan) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &scan.comments {
        let trimmed = c.text.trim_start();
        if !trimmed.starts_with(MARKER) {
            continue;
        }
        let at = c.text.find(MARKER).unwrap_or(0);
        let after = &c.text[at + MARKER.len()..];
        let Some(close) = after.find(')') else {
            // Malformed marker: record it with no rules so the engine can
            // flag it.
            out.push(Suppression {
                line: c.line,
                rules: Vec::new(),
                justification: String::new(),
                applies_to: vec![c.line],
            });
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let mut justification = after[close + 1..].trim().to_string();
        for sep in [':', '-', '—'] {
            justification = justification
                .trim_start_matches(sep)
                .trim_start()
                .to_string();
        }
        // A justification may continue on the immediately following comment
        // lines of the same block.
        let mut next_line = c.end_line + 1;
        while scan.is_comment_only_line(next_line) {
            let cont = scan.comment_text_on(next_line);
            if cont.contains(MARKER) {
                break;
            }
            justification.push(' ');
            justification.push_str(cont.trim());
            next_line += 1;
        }
        // The marker applies to its own line(s) and the next code line.
        let mut applies_to: Vec<u32> = (c.line..=c.end_line).collect();
        let mut l = c.end_line + 1;
        while l <= scan.line_count {
            let has_code = scan
                .code_lines
                .get((l - 1) as usize)
                .copied()
                .unwrap_or(false);
            if has_code {
                applies_to.push(l);
                break;
            }
            if !scan.is_comment_only_line(l) {
                break; // blank line ends the marker's reach
            }
            applies_to.push(l);
            l += 1;
        }
        out.push(Suppression {
            line: c.line,
            rules,
            justification: justification.trim().to_string(),
            applies_to,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Per-file checks.
// ---------------------------------------------------------------------------

/// Everything a single-file pass produces; target-feature call checking
/// needs a second, cross-file pass (see [`check_target_feature_calls`]).
#[derive(Debug, Default)]
pub struct FileCheck {
    /// Rule violations (suppressions not yet applied).
    pub findings: Vec<Finding>,
    /// Unsafe inventory entries for this file.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// `#[target_feature]` functions defined in this file.
    pub target_feature_fns: Vec<TargetFeatureFn>,
}

/// Runs every single-file rule over one scanned file.
pub fn check_file(path: &str, scan: &Scan) -> FileCheck {
    let class = classify(path);
    let mut out = FileCheck::default();

    check_unsafe_hygiene(path, scan, &mut out);
    collect_target_feature_fns(path, scan, &mut out);

    if !class.vendor {
        check_lossy_casts(path, scan, &mut out);
    }
    if !class.vendor && class.section == "src" {
        if DETERMINISM_CRATES.contains(&class.crate_key.as_str()) {
            check_determinism(path, scan, &mut out);
        }
        if PANIC_CRATES.contains(&class.crate_key.as_str()) {
            check_panic_hygiene(path, scan, &mut out);
        }
        // Unlike the ident rules this one is workspace-wide: the repro
        // contract (byte-identical output at every harness width) spans
        // every crate a cell runs, not just the one that spawns threads.
        check_parallel_float_reduction(path, scan, &mut out);
    }
    out
}

/// Flags `+=`/`-=` statements with float evidence inside a parallel region.
///
/// The cell harness guarantees byte-identical repro output at every fan-out
/// width *because* no floating-point reduction happens across concurrently
/// scheduled work: every sum runs serially inside one cell and cells merge
/// in fixed order after the join. A float accumulation written inside a
/// `spawn`/`scope`/`join`-style call would reintroduce scheduling-order
/// dependence (float addition is not associative), so it is flagged here.
///
/// Evidence is lexical: the compound-assignment statement must mention a
/// float literal, `f64`/`f32`, a float-returning method, or an identifier
/// the file elsewhere declares as float (`x: f64` or `let mut x = 0.0`).
/// Integer accumulators (offsets, counters) inside parallel regions are
/// fine and do not fire.
fn check_parallel_float_reduction(path: &str, scan: &Scan, out: &mut FileCheck) {
    let toks = &scan.tokens;
    // Identifiers the file declares as float-typed: `name: f64`/`f32`
    // (params, lets, fields) and `name = <float literal>` initialisers.
    // Same-named integers elsewhere would inherit the mark — acceptable for
    // a lexical pass; a justified suppression marker settles disputes.
    let mut floaty_idents: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let typed_float = is_punct(toks.get(i + 1), ":")
            && matches!(toks.get(i + 2), Some(n) if n.kind == TokKind::Ident
                && (n.text == "f64" || n.text == "f32"));
        let float_init = is_punct(toks.get(i + 1), "=")
            && matches!(toks.get(i + 2), Some(n) if n.kind == TokKind::Float);
        if typed_float || float_init {
            floaty_idents.insert(t.text.as_str());
        }
    }
    // Collect the token ranges lexically inside parallel-entrypoint call
    // parentheses (the closure arguments and their bodies).
    let mut regions: Vec<(usize, usize, &str)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !is_punct(toks.get(i + 1), "(") {
            continue;
        }
        let Some(&entry) = PARALLEL_ENTRYPOINTS.iter().find(|e| **e == t.text) else {
            continue;
        };
        let mut depth = 0isize;
        let mut j = i + 1;
        while j < toks.len() {
            if toks[j].kind == TokKind::Punct {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        regions.push((i + 2, j, entry));
    }
    // Nested regions (a `spawn` inside a `scope`) overlap; map each token to
    // its innermost enclosing region so one accumulation yields one finding.
    let mut in_region: Vec<Option<&str>> = vec![None; toks.len()];
    for (start, end, entry) in regions {
        for slot in in_region.iter_mut().take(end.min(toks.len())).skip(start) {
            *slot = Some(entry);
        }
    }
    let mut k = 0usize;
    while k + 1 < toks.len() {
        let Some(entry) = in_region[k] else {
            k += 1;
            continue;
        };
        let compound = toks[k].kind == TokKind::Punct
            && matches!(toks[k].text.as_str(), "+" | "-")
            && is_punct(toks.get(k + 1), "=");
        if !compound || scan.is_test_line(toks[k].line) {
            k += 1;
            continue;
        }
        // Statement bounds: from the previous `;`/`{`/`}` to the next `;`
        // (or end of file), so the float evidence must sit on the
        // accumulation itself, not elsewhere in the closure.
        let mut s = k;
        while s > 0 {
            let p = &toks[s - 1];
            if p.kind == TokKind::Punct && matches!(p.text.as_str(), ";" | "{" | "}") {
                break;
            }
            s -= 1;
        }
        let mut e = k + 2;
        while e < toks.len() {
            if toks[e].kind == TokKind::Punct && toks[e].text == ";" {
                break;
            }
            e += 1;
        }
        let floaty = toks[s..e].iter().any(|t| match t.kind {
            TokKind::Float => true,
            TokKind::Ident => {
                t.text == "f64"
                    || t.text == "f32"
                    || FLOAT_METHODS.contains(&t.text.as_str())
                    || floaty_idents.contains(t.text.as_str())
            }
            _ => false,
        });
        if floaty {
            out.findings.push(Finding {
                path: path.to_string(),
                line: toks[k].line,
                rule: "parallel-float-reduction",
                message: format!(
                    "float accumulation inside a `{entry}(…)` parallel region: reduction \
                     order follows the scheduler and float addition is not associative, so \
                     repro output stops being byte-identical across harness widths — \
                     accumulate serially per cell and merge in fixed order after the join"
                ),
            });
        }
        k = e;
    }
}

fn check_determinism(path: &str, scan: &Scan, out: &mut FileCheck) {
    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some((_, why)) = NONDETERMINISM_IDENTS
            .iter()
            .find(|(name, _)| *name == t.text)
        {
            out.findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: "determinism",
                message: format!("`{}`: {}", t.text, why),
            });
        }
        // `rand::random` — ambient OS-seeded convenience RNG.
        if t.text == "rand" && is_punct(toks.get(i + 1), ":") && is_punct(toks.get(i + 2), ":") {
            if let Some(next) = toks.get(i + 3) {
                if next.kind == TokKind::Ident && next.text == "random" {
                    out.findings.push(Finding {
                        path: path.to_string(),
                        line: t.line,
                        rule: "determinism",
                        message: "`rand::random`: ambient OS-seeded RNG; use a seeded ChaCha rng"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// Whether an adjacent SAFETY comment covers an `unsafe` token on `line`.
///
/// Accepted: a comment containing `SAFETY:` on the same line, or in the
/// contiguous comment/attribute block immediately above; for `unsafe fn`,
/// a doc comment containing `# Safety` above the signature also counts.
fn has_adjacent_safety(scan: &Scan, line: u32, is_fn: bool) -> bool {
    let accepts = |text: &str| text.contains("SAFETY:") || (is_fn && text.contains("# Safety"));
    if accepts(&scan.comment_text_on(line)) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        if scan.is_comment_only_line(l) {
            if accepts(&scan.comment_text_on(l)) {
                return true;
            }
            // Part of a contiguous doc/comment block: keep walking up.
        } else if scan.is_attr_only_line(l) {
            // Attributes may sit between the comment and the item
            // (e.g. `#[target_feature]`); an attr line can still carry a
            // trailing SAFETY comment.
            if accepts(&scan.comment_text_on(l)) {
                return true;
            }
        } else {
            return false;
        }
        l -= 1;
    }
    false
}

fn check_unsafe_hygiene(path: &str, scan: &Scan, out: &mut FileCheck) {
    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let kind = match toks.get(i + 1) {
            Some(n) if n.kind == TokKind::Ident && n.text == "fn" => "fn",
            Some(n) if n.kind == TokKind::Ident && n.text == "extern" => "fn",
            Some(n) if n.kind == TokKind::Ident && n.text == "impl" => "impl",
            Some(n) if n.kind == TokKind::Ident && n.text == "trait" => "trait",
            Some(n) if n.kind == TokKind::Punct && n.text == "{" => "block",
            _ => "other",
        };
        let has_safety = has_adjacent_safety(scan, t.line, kind == "fn");
        out.unsafe_sites.push(UnsafeSite {
            path: path.to_string(),
            line: t.line,
            kind,
            has_safety,
        });
        if !has_safety {
            out.findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: "unsafe-hygiene",
                message: format!(
                    "`unsafe {}` without an adjacent `// SAFETY:` comment{}",
                    kind,
                    if kind == "fn" {
                        " (or `/// # Safety` doc section)"
                    } else {
                        ""
                    }
                ),
            });
        }
    }
}

fn collect_target_feature_fns(path: &str, scan: &Scan, out: &mut FileCheck) {
    let toks = &scan.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && t.text == "target_feature" {
            // Walk forward to the next `fn <name>` (skipping the rest of
            // the attribute and any further attributes).
            let mut j = i + 1;
            while j < toks.len() {
                if toks[j].kind == TokKind::Ident && toks[j].text == "fn" {
                    if let Some(name_tok) = toks.get(j + 1) {
                        if name_tok.kind == TokKind::Ident {
                            out.target_feature_fns.push(TargetFeatureFn {
                                path: path.to_string(),
                                line: name_tok.line,
                                name: name_tok.text.clone(),
                            });
                            if !is_dispatch_module(path) {
                                out.findings.push(Finding {
                                    path: path.to_string(),
                                    line: name_tok.line,
                                    rule: "target-feature-gating",
                                    message: format!(
                                        "`#[target_feature]` fn `{}` defined outside the \
                                         dispatch modules ({})",
                                        name_tok.text,
                                        DISPATCH_MODULES.join(", ")
                                    ),
                                });
                            }
                        }
                    }
                    i = j;
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
}

/// Cross-file pass: a call to a `#[target_feature]` function is a violation
/// unless it sits in the [`DISPATCH_MODULES`] entry that defines it — safe
/// code must go through that module's feature-detected wrappers.
pub fn check_target_feature_calls(
    path: &str,
    scan: &Scan,
    fns: &[TargetFeatureFn],
) -> Vec<Finding> {
    let own = |f: &TargetFeatureFn| f.path == path && is_dispatch_module(path);
    let mut out = Vec::new();
    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if !fns.iter().any(|f| f.name == t.text && !own(f)) {
            continue;
        }
        // Require a call shape (`name(…)`) so a doc mention or a same-named
        // local is not flagged.
        if is_punct(toks.get(i + 1), "(") {
            out.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: "target-feature-gating",
                message: format!(
                    "call to `#[target_feature]` fn `{}` outside the dispatch module that \
                     defines it; route it through that module's dispatch wrappers",
                    t.text
                ),
            });
        }
    }
    out
}

fn is_punct(t: Option<&Tok>, text: &str) -> bool {
    matches!(t, Some(t) if t.kind == TokKind::Punct && t.text == text)
}

// ---------------------------------------------------------------------------
// Lossy float casts.
// ---------------------------------------------------------------------------

/// Maps each token index to the name of the innermost enclosing `fn`.
fn enclosing_fns(toks: &[Tok]) -> Vec<Option<String>> {
    let mut out = vec![None; toks.len()];
    let mut stack: Vec<(String, usize)> = Vec::new(); // (name, depth at body)
    let mut depth = 0usize;
    let mut pending: Option<String> = None;
    for (i, t) in toks.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "fn") => {
                if let Some(name) = toks.get(i + 1) {
                    if name.kind == TokKind::Ident {
                        pending = Some(name.text.clone());
                    }
                }
            }
            (TokKind::Punct, "{") => {
                depth += 1;
                if let Some(name) = pending.take() {
                    stack.push((name, depth));
                }
            }
            (TokKind::Punct, "}") => {
                if let Some((_, d)) = stack.last() {
                    if *d == depth {
                        stack.pop();
                    }
                }
                depth = depth.saturating_sub(1);
            }
            (TokKind::Punct, ";") => {
                // A bodyless signature (trait method) never opens a frame.
                pending = None;
            }
            _ => {}
        }
        out[i] = stack.last().map(|(n, _)| n.clone());
    }
    out
}

/// Collects the token indices of the cast operand ending just before the
/// `as` at `as_idx`, walking backward through field/method chains, paren
/// and bracket groups, `?`, `::` paths and chained `as` casts.
fn cast_operand(toks: &[Tok], as_idx: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut j = as_idx as isize - 1;
    let mut expect_primary = true;
    let mut after_group = false;
    while j >= 0 {
        let t = &toks[j as usize];
        if expect_primary {
            match t.kind {
                TokKind::Punct if t.text == ")" || t.text == "]" => {
                    let open = if t.text == ")" { "(" } else { "[" };
                    let close = &t.text;
                    let mut depth = 0isize;
                    while j >= 0 {
                        let u = &toks[j as usize];
                        if u.kind == TokKind::Punct {
                            if u.text == *close {
                                depth += 1;
                            } else if u.text == open {
                                depth -= 1;
                            }
                        }
                        out.push(j as usize);
                        j -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    expect_primary = false;
                    after_group = true;
                    continue;
                }
                TokKind::Ident | TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char => {
                    out.push(j as usize);
                    j -= 1;
                    expect_primary = false;
                    continue;
                }
                TokKind::Punct if t.text == "?" => {
                    out.push(j as usize);
                    j -= 1;
                    continue;
                }
                _ => break,
            }
        } else {
            // After a primary: continue only through `.`, `::`, `?` and a
            // chained `as`. A paren/bracket group may additionally be a call
            // or an index — consume the callee/base identifier too (but not
            // a control keyword, whose block this was instead).
            if after_group
                && t.kind == TokKind::Ident
                && !matches!(
                    t.text.as_str(),
                    "if" | "else"
                        | "match"
                        | "while"
                        | "for"
                        | "loop"
                        | "return"
                        | "in"
                        | "unsafe"
                        | "move"
                )
            {
                out.push(j as usize);
                j -= 1;
                after_group = false;
                continue;
            }
            after_group = false;
            if t.kind == TokKind::Punct && t.text == "." {
                out.push(j as usize);
                j -= 1;
                expect_primary = true;
                continue;
            }
            if t.kind == TokKind::Punct && t.text == ":" {
                if j >= 1
                    && toks[(j - 1) as usize].kind == TokKind::Punct
                    && toks[(j - 1) as usize].text == ":"
                {
                    out.push(j as usize);
                    out.push((j - 1) as usize);
                    j -= 2;
                    expect_primary = true;
                    continue;
                }
                break;
            }
            if t.kind == TokKind::Ident && t.text == "as" {
                out.push(j as usize);
                j -= 1;
                expect_primary = true;
                continue;
            }
            break;
        }
    }
    out
}

fn operand_is_floaty(toks: &[Tok], operand: &[usize]) -> bool {
    operand.iter().any(|&i| {
        let t = &toks[i];
        match t.kind {
            TokKind::Float => true,
            TokKind::Ident => {
                t.text == "f64" || t.text == "f32" || FLOAT_METHODS.contains(&t.text.as_str())
            }
            _ => false,
        }
    })
}

fn check_lossy_casts(path: &str, scan: &Scan, out: &mut FileCheck) {
    let toks = &scan.tokens;
    let fns = enclosing_fns(toks);
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !matches!(target.text.as_str(), "u64" | "usize" | "u32")
        {
            continue;
        }
        let operand = cast_operand(toks, i);
        if !operand_is_floaty(toks, &operand) {
            continue;
        }
        if let Some(Some(name)) = fns.get(i) {
            if CAST_ALLOWLIST_FNS.contains(&name.as_str()) {
                continue;
            }
        }
        out.findings.push(Finding {
            path: path.to_string(),
            line: t.line,
            rule: "lossy-float-cast",
            message: format!(
                "float expression cast `as {}` truncates silently (the PR 3 byte-accounting bug \
                 class); route it through `scale_bytes` or round/clamp explicitly",
                target.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Panic hygiene.
// ---------------------------------------------------------------------------

fn check_panic_hygiene(path: &str, scan: &Scan, out: &mut FileCheck) {
    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || scan.is_test_line(t.line) {
            continue;
        }
        let flagged = match t.text.as_str() {
            "panic" => is_punct(toks.get(i + 1), "!"),
            "unwrap" => {
                i > 0
                    && is_punct(toks.get(i - 1), ".")
                    && is_punct(toks.get(i + 1), "(")
                    && is_punct(toks.get(i + 2), ")")
            }
            "expect" => i > 0 && is_punct(toks.get(i - 1), ".") && is_punct(toks.get(i + 1), "("),
            _ => false,
        };
        if flagged {
            out.findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: "panic-hygiene",
                message: format!(
                    "`{}` in non-test library code; errors here are typed (the PR 6 silent-miss \
                     lesson) — return a crate error instead",
                    if t.text == "panic" {
                        "panic!".to_string()
                    } else {
                        format!(".{}()", t.text)
                    }
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/sim/src/lib.rs").crate_key, "sim");
        assert_eq!(classify("crates/sim/src/lib.rs").section, "src");
        assert_eq!(classify("crates/gf/tests/proptests.rs").section, "tests");
        assert!(classify("vendor/rand/src/lib.rs").vendor);
        assert_eq!(classify("src/lib.rs").crate_key, "root");
        assert_eq!(classify("tests/e2e.rs").section, "tests");
    }

    #[test]
    fn determinism_fires_on_hashmap_in_sim_crates_only() {
        let src = "use std::collections::HashMap;\n";
        let hit = check_file("crates/sim/src/lib.rs", &scan(src));
        assert_eq!(rules_of(&hit.findings), ["determinism"]);
        let miss = check_file("crates/gf/src/lib.rs", &scan(src));
        assert!(miss.findings.is_empty(), "gf is out of determinism scope");
        let bench = check_file("crates/bench/benches/x.rs", &scan(src));
        assert!(bench.findings.is_empty());
    }

    #[test]
    fn determinism_ignores_comments_and_strings() {
        let src = "// a HashMap would be wrong here\nlet s = \"Instant::now\";\n";
        let out = check_file("crates/hdfs/src/fs.rs", &scan(src));
        assert!(out.findings.is_empty());
    }

    #[test]
    fn parallel_float_reduction_fires_on_float_accumulation_in_scope() {
        let src = "fn f(xs: &[f64]) -> f64 {\n    let mut sum = 0.0;\n    std::thread::scope(|s| {\n        for &x in xs {\n            s.spawn(|| sum += x * 2.0);\n        }\n    });\n    sum\n}\n";
        let out = check_file("crates/core/src/lib.rs", &scan(src));
        assert!(
            rules_of(&out.findings).contains(&"parallel-float-reduction"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn parallel_float_reduction_spares_integer_accumulators_and_serial_sums() {
        // Integer offset bookkeeping inside a scope is deterministic.
        let ints = "fn f(n: usize) {\n    std::thread::scope(|s| {\n        let mut off = 0usize;\n        for _ in 0..n {\n            off += 64;\n            s.spawn(move || work(off));\n        }\n    });\n}\n";
        let out = check_file("crates/gf/src/slice.rs", &scan(ints));
        assert!(out.findings.is_empty(), "{:?}", out.findings);

        // A serial float sum outside any parallel region is the sanctioned
        // shape (per-cell accumulation, fixed-order merge).
        let serial = "fn f(xs: &[f64]) -> f64 {\n    let mut sum = 0.0;\n    for &x in xs {\n        sum += x;\n    }\n    sum\n}\n";
        let out = check_file("crates/core/src/experiments/fig3.rs", &scan(serial));
        assert!(out.findings.is_empty(), "{:?}", out.findings);

        // String/path `join` calls never carry a float `+=` in their parens.
        let joins = "fn f(parts: &[String]) -> String {\n    parts.join(\", \")\n}\n";
        let out = check_file("crates/core/src/render.rs", &scan(joins));
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn parallel_float_reduction_needs_float_evidence_on_the_statement() {
        // The closure mentions f64 elsewhere, but the `+=` statement itself
        // is integral: no finding.
        let src = "fn f(n: u64) {\n    std::thread::scope(|s| {\n        s.spawn(move || {\n            let r: f64 = rate();\n            let mut total = 0u64;\n            total += n;\n            store(r, total);\n        });\n    });\n}\n";
        let out = check_file("crates/hdfs/src/fs.rs", &scan(src));
        assert!(
            !rules_of(&out.findings).contains(&"parallel-float-reduction"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn unsafe_block_requires_safety_comment() {
        let bad = "fn f() {\n    unsafe { do_it() }\n}\n";
        let out = check_file("crates/gf/src/kernel.rs", &scan(bad));
        assert_eq!(rules_of(&out.findings), ["unsafe-hygiene"]);
        assert_eq!(out.unsafe_sites.len(), 1);
        assert!(!out.unsafe_sites[0].has_safety);

        let good = "fn f() {\n    // SAFETY: lengths checked above.\n    unsafe { do_it() }\n}\n";
        let out = check_file("crates/gf/src/kernel.rs", &scan(good));
        assert!(out.findings.is_empty());
        assert!(out.unsafe_sites[0].has_safety);
    }

    #[test]
    fn unsafe_fn_accepts_doc_safety_section_above_attributes() {
        let src = "/// # Safety\n/// Caller must check lengths.\n#[target_feature(enable = \"avx2\")]\nunsafe fn g(x: &mut [u8]) {}\n";
        let out = check_file("crates/gf/src/kernel.rs", &scan(src));
        assert!(rules_of(&out.findings).is_empty(), "{:?}", out.findings);
        assert_eq!(out.unsafe_sites[0].kind, "fn");
        assert!(out.unsafe_sites[0].has_safety);
    }

    #[test]
    fn unsafe_impl_requires_safety() {
        let src = "unsafe impl Send for X {}\n";
        let out = check_file("crates/sim/src/lib.rs", &scan(src));
        assert_eq!(rules_of(&out.findings), ["unsafe-hygiene"]);
        assert_eq!(out.unsafe_sites[0].kind, "impl");
    }

    #[test]
    fn target_feature_fn_outside_dispatch_module_is_flagged() {
        let src = "#[target_feature(enable = \"avx2\")]\nunsafe fn fast(x: &mut [u8]) {}\n";
        let out = check_file("crates/codes/src/lib.rs", &scan(src));
        assert!(rules_of(&out.findings).contains(&"target-feature-gating"));
        // In the dispatch module the definition is fine.
        let ok = check_file("crates/gf/src/kernel.rs", &scan(src));
        assert!(!rules_of(&ok.findings).contains(&"target-feature-gating"));
        assert_eq!(ok.target_feature_fns[0].name, "fast");
    }

    #[test]
    fn target_feature_calls_flagged_outside_dispatch_module() {
        let fns = vec![TargetFeatureFn {
            path: "crates/gf/src/kernel.rs".to_string(),
            line: 1,
            name: "mul_acc_avx2_impl".to_string(),
        }];
        let caller = "fn f() { unsafe { mul_acc_avx2_impl(d, s, c) } }\n";
        let bad = check_target_feature_calls("crates/codes/src/lib.rs", &scan(caller), &fns);
        assert_eq!(rules_of(&bad), ["target-feature-gating"]);
        let ok = check_target_feature_calls("crates/gf/src/kernel.rs", &scan(caller), &fns);
        assert!(ok.is_empty());
        // A bare mention (no call parens) is not flagged.
        let mention = "// mul_acc_avx2_impl\nlet name = \"mul_acc_avx2_impl\";\n";
        assert!(
            check_target_feature_calls("crates/codes/src/x.rs", &scan(mention), &fns).is_empty()
        );
    }

    #[test]
    fn lossy_cast_flags_float_operands_only() {
        let bad = "fn f(x: f64) -> u64 { (x * 1.5) as u64 }\n";
        let out = check_file("crates/mapreduce/src/engine.rs", &scan(bad));
        assert_eq!(rules_of(&out.findings), ["lossy-float-cast"]);

        let bad2 = "fn f(x: f64) -> u64 { x.ceil() as u64 }\n";
        let out = check_file("crates/sim/src/lib.rs", &scan(bad2));
        assert_eq!(rules_of(&out.findings), ["lossy-float-cast"]);

        let chained = "fn f(b: u64) -> u64 { b as f64 as u64 }\n";
        let out = check_file("crates/sim/src/lib.rs", &scan(chained));
        assert_eq!(rules_of(&out.findings), ["lossy-float-cast"]);

        let fine = "fn f(x: u8) -> usize { x as usize }\n";
        let out = check_file("crates/sim/src/lib.rs", &scan(fine));
        assert!(out.findings.is_empty());

        let int_math = "fn f(a: u64, b: u64) -> u32 { (a + b) as u32 }\n";
        let out = check_file("crates/sim/src/lib.rs", &scan(int_math));
        assert!(out.findings.is_empty());
    }

    #[test]
    fn lossy_cast_respects_the_allowlisted_helpers() {
        let src = "fn scale_bytes(b: u64, r: f64) -> u64 { (b as f64 * r).round() as u64 }\n";
        let out = check_file("crates/mapreduce/src/engine.rs", &scan(src));
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        let src = "fn from_secs_f64(s: f64) -> u64 { (s * 1e9).round() as u64 }\n";
        let out = check_file("crates/sim/src/time.rs", &scan(src));
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        let src = "fn secs_to_ns(s: f64) -> u64 { (s * 1e9).round() as u64 }\n";
        let out = check_file("crates/cluster/src/failure.rs", &scan(src));
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn lossy_cast_does_not_cross_binary_operators() {
        // Only `y.floor()` is the cast operand; `x` being float-free keeps
        // the `+` out of it.
        let src = "fn f(x: u64, y: f64) -> u64 { x + y.floor() as u64 }\n";
        let out = check_file("crates/sim/src/lib.rs", &scan(src));
        assert_eq!(rules_of(&out.findings), ["lossy-float-cast"]);
        let src2 = "fn f(x: u64, y: u64) -> u64 { x + y as u64 }\n";
        let out2 = check_file("crates/sim/src/lib.rs", &scan(src2));
        assert!(out2.findings.is_empty());
    }

    #[test]
    fn panic_hygiene_fires_in_core_src_outside_tests() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) -> u8 { x.expect(\"test-only\") }\n}\n";
        let out = check_file("crates/hdfs/src/fs.rs", &scan(src));
        assert_eq!(rules_of(&out.findings), ["panic-hygiene"]);
        assert_eq!(out.findings[0].line, 1);
    }

    #[test]
    fn panic_hygiene_skips_non_core_and_test_sections() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(check_file("crates/bench/src/lib.rs", &scan(src))
            .findings
            .is_empty());
        assert!(check_file("crates/gf/tests/t.rs", &scan(src))
            .findings
            .is_empty());
        assert!(check_file("vendor/rand/src/lib.rs", &scan(src))
            .findings
            .is_empty());
    }

    #[test]
    fn panic_hygiene_distinguishes_unwrap_variants() {
        let src =
            "fn f(m: M) { m.lock().unwrap_or_else(|e| e.into_inner()); m.unwrap_or_default(); }\n";
        let out = check_file("crates/sim/src/lib.rs", &scan(src));
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn suppression_parsing_and_justification() {
        let src = "// drc-lint: allow(panic-hygiene): invariant guarded by the arena layout.\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let s = scan(src);
        let sup = suppressions(&s);
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].rules, ["panic-hygiene"]);
        assert!(sup[0].justification.len() >= MIN_JUSTIFICATION);
        assert!(sup[0].applies_to.contains(&2));
    }

    #[test]
    fn suppression_without_justification_is_detectable() {
        let src = "// drc-lint: allow(determinism)\nuse std::collections::HashMap;\n";
        let sup = suppressions(&scan(src));
        assert_eq!(sup.len(), 1);
        assert!(sup[0].justification.len() < MIN_JUSTIFICATION);
    }

    #[test]
    fn marker_mentioned_mid_comment_or_quoted_in_doc_example_is_not_a_suppression() {
        // Prose mentioning the syntax mid-sentence.
        let prose = "//! Suppress with `// drc-lint: allow(<rule>): <why>` markers.\nfn f() {}\n";
        assert!(suppressions(&scan(prose)).is_empty());
        // A doc example quoting a full marker line: comment body starts `// `.
        let quoted =
            "//! // drc-lint: allow(panic-hygiene): example justification here.\nfn f() {}\n";
        assert!(suppressions(&scan(quoted)).is_empty());
    }

    #[test]
    fn multiline_justification_continues_on_following_comment_lines() {
        let src = "// drc-lint: allow(determinism): keyed by node id,\n// iteration order never reaches serialized output.\nuse std::collections::HashMap;\n";
        let sup = suppressions(&scan(src));
        assert_eq!(sup.len(), 1);
        assert!(sup[0].justification.contains("serialized output"));
        assert!(sup[0].applies_to.contains(&3));
    }
}
