#!/usr/bin/env bash
# Regenerates every table/figure of the paper on this machine and
# captures the output in experiments/out/paper.txt.
#
#   ./experiments/run_all.sh [ARTIFACT...] [--n N] [--scale S] [--json FILE]
#
# Arguments go to `--bin paper` (e.g. --threads 80 on a big box, or
# `table3 fig5` to run just those two).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p experiments/out

cargo run --release -q -p phc-bench --bin paper -- "$@" \
  | tee experiments/out/paper.txt
echo "output in experiments/out/paper.txt"
