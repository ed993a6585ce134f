#!/usr/bin/env bash
# Best-effort Miri pass over the crates that contain unsafe code:
# drc_gf (SIMD kernels, the cached active-kernel pointer), the vendored
# rayon stub (lifetime-transmuting scoped pool) and the vendored rand_chacha
# stub (the call into its AVX2 eight-block refill).
#
# Miri interprets the non-SIMD code paths and catches undefined behaviour
# (OOB, use-after-free, invalid transmutes) that tests alone cannot.
# `#[target_feature]` kernels are unsafe-to-call and dispatch-gated, so
# under Miri the portable tier — the safe scalar `reference` kernel — runs
# instead. That is expected: what is left for Miri in drc_gf is the
# `AtomicPtr` kernel cache and `with_forced`'s restore, and the pool's
# scope transmute is fully exercised. The same holds for rand_chacha: Miri
# reports no AVX2 to `is_x86_feature_detected!`, so the unsafe call is never
# taken and the scalar block path runs, stream oracle included (on a few
# seeds under Miri).
#
# drc_gf's one FFI call (`madvise` in `bufpool::bulk_with_capacity`) needs
# no exclusion here: it is compiled out under `cfg(miri)`, where the
# constructor is plain `Vec::with_capacity`, and its range arithmetic is a
# pure function whose tests run under Miri like any other.
#
# This script is BEST EFFORT: a nightly toolchain with the miri component
# is not part of the pinned environment. When it is missing we skip LOUDLY
# but successfully, so constrained environments stay green while hosted CI
# (which installs nightly+miri first, see .github/workflows/ci.yml) gets
# the real pass.

set -u

say() { printf '%s\n' "$*" >&2; }

if ! command -v rustup >/dev/null 2>&1; then
    say "miri.sh: SKIP — rustup not available; cannot locate a nightly toolchain."
    exit 0
fi

if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    say "miri.sh: SKIP — no nightly toolchain installed."
    say "miri.sh:        install with: rustup toolchain install nightly --component miri"
    exit 0
fi

if ! rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'miri.*(installed)'; then
    say "miri.sh: SKIP — nightly toolchain has no miri component."
    say "miri.sh:        install with: rustup component add miri --toolchain nightly"
    exit 0
fi

say "miri.sh: running cargo +nightly miri test -p drc_gf -p rayon -p rand_chacha"
# MIRIFLAGS: isolation stays ON (default) — the sim is deterministic and
# nothing under test touches the host. Leak check stays ON.
cargo +nightly miri setup >/dev/null 2>&1 || {
    say "miri.sh: SKIP — 'cargo miri setup' failed (offline sysroot build unavailable)."
    exit 0
}

if cargo +nightly miri test -p drc_gf -p rayon -p rand_chacha; then
    say "miri.sh: PASS — no undefined behaviour detected in drc_gf, rayon or rand_chacha."
    exit 0
else
    say "miri.sh: FAIL — Miri reported undefined behaviour (or a test failed under Miri)."
    exit 1
fi
