#!/usr/bin/env bash
# Paired parent/change benchmark runs: the protocol of benchmark/README.md,
# "Stating and proving a claim". Archives <parent-rev> into
# .bench_build/parent, builds the benchmark of both sides once (each with a
# target directory of its own), then runs alternating pairs — a fresh seed
# per pair, the same seed within it, the order flipped each pair — and
# prints, per end-to-end metric, each side's median and quartiles, how many
# pairs the change won, and the verdict: a gain needs at least nine tenths
# of the pairs and a median gap wider than the parent's interquartile
# spread; anything worse than the metric's BENCHMARK.json bound is a
# regression. `all` runs the six workloads of BENCHMARK.json in turn on the
# one pair of builds.
#
# With --record, every verdict line is also appended as an entry — commit
# (`+worktree` when uncommitted changes were measured), parent, workload,
# metric, both medians and quartiles, wins/losses, pairs, seconds, `nproc`,
# CPU model — to the committed BENCH_pairs.json, the repository's
# machine-readable performance trajectory. --record also runs one traced
# pass per side and workload on a fixed seed, prints a `counts` line naming
# every metric of unit `count` that differs between the sides, and records
# both sides' counts as one more entry (`"metric":"counts"`): work counts
# repeat exactly on a seed, so they compare across machines where timings
# do not.
#
# Seeds start at the clock, so no run repeats a seed used while the change
# was written. Reads benchmark/ and BENCHMARK.json; writes only under
# .bench_build/ (every run's full output is kept in .bench_build/runs/)
# and, with --record, BENCH_pairs.json.
#
# Usage: scripts/bench_pairs.sh [--record] <parent-rev> <workload|all> [pairs=10] [seconds=15]
set -euo pipefail
cd "$(dirname "$0")/.."

RECORD=
if [[ ${1:-} == --record ]]; then
  RECORD=1
  shift
fi
if [[ $# -lt 2 || $# -gt 4 ]]; then
  sed -n 's/^# \(Usage:.*\)/\1/p' "$0" >&2
  exit 2
fi
PARENT=$1
PAIRS=${3:-10}
RUN_SECONDS=${4:-15}
if [[ $2 == all ]]; then
  WORKLOADS=$(sed -n 's/.*{"name":"\([a-z_]*\)","why".*/\1/p' BENCHMARK.json)
else
  WORKLOADS=$2
fi

ROOT=$PWD
BUILD=$ROOT/.bench_build
RUNS=$BUILD/runs
rm -rf "$BUILD/parent"
mkdir -p "$BUILD/parent" "$BUILD/cwd-parent" "$BUILD/cwd-change" "$RUNS"
git archive "$PARENT" | tar -x -C "$BUILD/parent"

echo "building parent ($(git rev-parse --short "$PARENT")) and change ..." >&2
CARGO_TARGET_DIR=$BUILD/target-parent cargo build --release --offline --quiet \
  --manifest-path "$BUILD/parent/benchmark/Cargo.toml"
# Cargo rewrites the lock file of the manifest it builds when that file is
# stale; the change side builds the worktree's, so keep a copy and put it
# back however the build ends.
cp "$ROOT/benchmark/Cargo.lock" "$BUILD/change-Cargo.lock"
trap 'cp "$BUILD/change-Cargo.lock" "$ROOT/benchmark/Cargo.lock"' EXIT
CARGO_TARGET_DIR=$BUILD/target-change cargo build --release --offline --quiet \
  --manifest-path "$ROOT/benchmark/Cargo.toml"
cp "$BUILD/change-Cargo.lock" "$ROOT/benchmark/Cargo.lock"
trap - EXIT

# One untraced run of one side; prints the result line. The binary writes
# to ./benchmark/out, so each side runs from a directory of its own.
run() {
  local side=$1 seed=$2 out=$RUNS/$WORKLOAD-$1-$2.txt
  if ! (cd "$BUILD/cwd-$side" && "$BUILD/target-$side/release/benchmark" \
    --workload "$WORKLOAD" --seed "$seed" --seconds "$RUN_SECONDS" --trace 0) >"$out" 2>&1; then
    echo "$side run on seed $seed failed; see $out" >&2
    exit 1
  fi
  tail -n 1 "$out"
}

# One traced run of one side on the fixed seed; prints its count metrics,
# `name value` a line.
TRACE_SEED=1
counts() {
  local side=$1 out=$RUNS/$WORKLOAD-$1-traced.txt
  if ! (cd "$BUILD/cwd-$side" && "$BUILD/target-$side/release/benchmark" \
    --workload "$WORKLOAD" --seed "$TRACE_SEED" --seconds 2 --trace 1) >"$out" 2>&1; then
    echo "$side traced run on seed $TRACE_SEED failed; see $out" >&2
    exit 1
  fi
  tail -n 1 "$out" | grep -o '"[a-z_.]*":{"value":[^,}]*,"unit":"count"}' |
    sed 's/"\([^"]*\)":{"value":\([^,]*\),.*/\1 \2/'
}

# What every recorded entry of this invocation shares.
COMMIT=$(git rev-parse --short HEAD)$([[ -z $(git status --porcelain) ]] || echo +worktree)
CPU=$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)
META="\"commit\":\"$COMMIT\",\"parent\":\"$(git rev-parse --short "$PARENT")\",\"unix_time\":$(date +%s)"
SHAPE="\"pairs\":$PAIRS,\"seconds\":$RUN_SECONDS,\"nproc\":$(nproc),\"cpu\":\"${CPU:-unknown}\""
ENTRIES=$BUILD/entries.jsonl
: >"$ENTRIES"

for WORKLOAD in $WORKLOADS; do
  FIRST_SEED=$(date +%s)
  : >"$BUILD/pairs-parent.jsonl"
  : >"$BUILD/pairs-change.jsonl"
  for i in $(seq 1 "$PAIRS"); do
    seed=$((FIRST_SEED + i))
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
      run "$side" "$seed" >>"$BUILD/pairs-$side.jsonl"
    done
    echo "$WORKLOAD pair $i/$PAIRS (seed $seed, $order) done" >&2
  done

  echo "$WORKLOAD: $PAIRS pairs, $RUN_SECONDS s each, seeds $((FIRST_SEED + 1))..$((FIRST_SEED + PAIRS)), parent $(git rev-parse --short "$PARENT")"
  # The end-to-end metrics, their direction and bound, as BENCHMARK.json lists them.
  sed -n '/"end_to_end"/,/\]/s/.*"name":"\([^"]*\)".*"better":"\([^"]*\)","bound":\([0-9.]*\).*/\1 \2 \3/p' \
    BENCHMARK.json |
    while read -r metric better bound; do
      paste -d' ' \
        <(sed -n 's/.*"'"$metric"'":{"value":\([^,}]*\).*/\1/p' "$BUILD/pairs-parent.jsonl") \
        <(sed -n 's/.*"'"$metric"'":{"value":\([^,}]*\).*/\1/p' "$BUILD/pairs-change.jsonl") |
        awk -v metric="$metric" -v better="$better" -v bound="$bound" -v entries="$ENTRIES" \
          -v head="{$META,\"workload\":\"$WORKLOAD\"" -v shape="$SHAPE" '
          # Quartiles as statistics.quantiles(values, n=4) computes them.
          function quartile(x, n, i,    j, delta) {
            if (n < 2) return x[1]
            j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
            delta = i * (n + 1) - j * 4
            return (x[j] * (4 - delta) + x[j + 1] * delta) / 4
          }
          function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
              t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
            }
          }
          { n++; p[n] = $1 + 0; c[n] = $2 + 0
            if (better == "lower" ? $2 < $1 : $2 > $1) wins++
            else if ($1 != $2) losses++ }
          END {
            sorted(p, ps, n); sorted(c, cs, n)
            pm = quartile(ps, n, 2); cm = quartile(cs, n, 2)
            iqr = quartile(ps, n, 3) - quartile(ps, n, 1)
            gap = better == "lower" ? pm - cm : cm - pm
            if (wins >= 0.9 * n && gap > iqr) verdict = n >= 10 ? "GAIN" : "ahead (a claim needs 10 pairs)"
            else if (pm != 0 && -gap / pm > bound) verdict = "REGRESSION (bound " bound * 100 " %)"
            else verdict = "no gain shown; inside its bound"
            printf "%-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f %%  change wins %d/%d (loses %d)  parent IQR %.4g  -> %s\n",
              metric, pm, quartile(ps, n, 1), quartile(ps, n, 3), cm, quartile(cs, n, 1), quartile(cs, n, 3),
              pm ? (cm - pm) / pm * 100 : 0, wins, n, losses, iqr, verdict
            printf "%s,\"metric\":\"%s\",\"parent_median\":%.6g,\"parent_q1\":%.6g,\"parent_q3\":%.6g,\"change_median\":%.6g,\"change_q1\":%.6g,\"change_q3\":%.6g,\"wins\":%d,\"losses\":%d,%s,\"verdict\":\"%s\"}\n",
              head, metric, pm, quartile(ps, n, 1), quartile(ps, n, 3), cm, quartile(cs, n, 1), quartile(cs, n, 3),
              wins, losses, shape, verdict >>entries
          }'
    done
  for side in parent change; do
    sed -n 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\).*/\1 \2/p' "$BUILD/pairs-$side.jsonl" |
      awk -v side="$side" '{ ops += $1; failed += $2 } END { print side ": " failed " failed of " ops " ops" }'
  done

  if [[ -n $RECORD ]]; then
    counts parent >"$BUILD/counts-parent.txt"
    counts change >"$BUILD/counts-change.txt"
    awk -v seed="$TRACE_SEED" -v entries="$ENTRIES" -v shape="$SHAPE" \
      -v head="{$META,\"workload\":\"$WORKLOAD\",\"metric\":\"counts\",\"seed\":$TRACE_SEED" '
      FNR == NR { p[$1] = $2; names[++n] = $1; next }
      { c[$1] = $2; if (!($1 in p)) names[++n] = $1 }
      function field(k, v) { return "\"" k "\":" v }
      END {
        for (i = 1; i <= n; i++) {
          k = names[i]
          if (k in p) pj = pj (pj ? "," : "") field(k, p[k])
          if (k in c) cj = cj (cj ? "," : "") field(k, c[k])
          if (!(k in p) || !(k in c) || p[k] + 0 != c[k] + 0) {
            moved = moved (moved ? ", " : "") k " " (k in p ? p[k] : "-") " -> " (k in c ? c[k] : "-")
            mj = mj (mj ? "," : "") "\"" k "\""
          }
        }
        printf "counts       %d count metrics, seed %d: %s\n", n, seed, moved ? "MOVED " moved : "none moved"
        printf "%s,\"parent_counts\":{%s},\"change_counts\":{%s},\"moved\":[%s],%s}\n",
          head, pj, cj, mj, shape >>entries
      }' "$BUILD/counts-parent.txt" "$BUILD/counts-change.txt"
  fi
done

# BENCH_pairs.json is one JSON array, an entry per line: reopen it and
# append this invocation's.
if [[ -n $RECORD ]]; then
  OUT=$ROOT/BENCH_pairs.json
  if [[ -s $OUT ]]; then
    sed -i -e '$ d' "$OUT"
    sed -i -e '$ s/$/,/' "$OUT"
  else
    echo "[" >"$OUT"
  fi
  sed -e 's/^/  /' -e '$ !s/$/,/' "$ENTRIES" >>"$OUT"
  echo "]" >>"$OUT"
  echo "recorded $(wc -l <"$ENTRIES") entries in BENCH_pairs.json" >&2
fi
