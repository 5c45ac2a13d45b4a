#!/usr/bin/env bash
# The repo benchmark. Builds offline and runs the workloads of
# BENCHMARK.json; see README.md beside this file.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--quick] [--self-test]
#   benchmark/run.sh compare A.json B.json
#
# Works from any directory, and in a checkout that is not a git
# repository. Build products go to $CARGO_TARGET_DIR if set, else to
# benchmark/target; results to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"

build() { # <target dir> [cargo args...]
    local dir="$1"
    shift
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$dir" "$@" 1>&2
}

# glibc otherwise raises its mmap threshold after the first large free,
# so later rounds would recycle heap memory the first round had to
# fault in, and resident-set readings would include whatever the heap
# kept. Pinning it makes every round allocate like a fresh process.
export MALLOC_MMAP_THRESHOLD_=1048576

build "$target"
# The counting build, which only traced runs use. Its own target
# directory: a feature flip in a shared one would rebuild the obs-off
# binary every other run. Both builds are no-ops once up to date.
build "$target/obs" --features obs

exec "$target/release/phc-benchmark" \
    --out-dir "$here/out" --bench-json "$root/BENCHMARK.json" \
    --obs-bin "$target/obs/release/phc-benchmark" "$@"
