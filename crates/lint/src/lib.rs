//! `drc_lint` — the workspace's static-analysis pass.
//!
//! The measurement story of this reproduction — virtual-time contention
//! headlines, byte-identical differential proptests, golden pins — rests
//! on two properties nothing used to enforce statically:
//! the simulator must be **deterministic**, and the unsafe hot paths (SIMD
//! GF kernels, the lifetime-erased persistent pool) must be **auditable**.
//! This crate enforces both, plus the two bug classes the repo has already
//! shipped (PR 3's silent `f64 → u64` byte-accounting truncation, PR 6's
//! silent index misses).
//!
//! * [`scan`] — a comment/string/raw-string-aware Rust token scanner (no
//!   `syn`; the vendored-stub environment has no crates.io),
//! * [`rules`] — the five rules plus inline-suppression parsing
//!   (`// drc-lint: allow(<rule>): <mandatory justification>`),
//! * [`engine`] — the workspace pass, the unsafe budget and the
//!   machine-readable `LINT.json` report (stamped via
//!   [`drc_bench::provenance`]).
//!
//! The `drc-lint` binary runs the pass over the workspace and exits
//! non-zero on any unsuppressed violation, making it a CI gate alongside
//! clippy. See `crates/lint/INTERNALS.md` for each rule's motivating bug.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod rules;
pub mod scan;
