#!/usr/bin/env bash
# The one command: builds the benchmark (release) and runs every workload,
# untraced then traced, each in a process of its own; prints every metric by
# name with its unit, checks outputs, and exits non-zero on a failed check or
# an end-to-end metric outside its bound.
#
#   benchmark/run.sh                 one full set on the default seed
#   benchmark/run.sh --seed 7        ... on another seed
#   benchmark/run.sh --repeat 10     ten sets on seeds N..N+9: median, min,
#                                    max and spread against each bound
#   benchmark/run.sh --repeat 5 --same-seed
#                                    five sets of one seed; count metrics
#                                    must repeat exactly
#   benchmark/run.sh --check         every workload at 1/20 size, < 30 s
set -euo pipefail
cd "$(dirname "$0")/.."
for var in STARLING_EVAL_MODE STARLING_FORCE_INTERP; do
  if [ -n "${!var:-}" ]; then
    echo "$var is set; unset it so the default columnar engine is measured" >&2
    exit 2
  fi
done
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --set "$@"
