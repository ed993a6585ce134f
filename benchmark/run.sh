#!/usr/bin/env bash
# The benchmark's one command: builds drc-benchmark from source (offline, all
# path dependencies) and runs it with the given arguments.
#
#   benchmark/run.sh                      every workload, untraced then traced;
#                                         prints every metric, writes
#                                         benchmark/out/result.json, exits 1 if
#                                         a correctness check failed
#   benchmark/run.sh --runs 3             the same three times over, so the
#                                         run-to-run spread is on record
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one workload; the last line of
#                                         standard output is the result JSON
#   benchmark/run.sh compare A.json B.json
#                                         the change (B) against the parent (A)
#
# Build output goes to $CARGO_TARGET_DIR, by default the repo's own target/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/drc-benchmark" "$@"
