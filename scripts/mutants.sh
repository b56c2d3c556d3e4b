#!/usr/bin/env bash
# Committed mutants: checks that each patch under tests/mutants/ is killed
# by the test target tests/mutants/KILLS names for it.
#
# Archives HEAD into .mutants_build/tree (one tree, one CARGO_TARGET_DIR
# shared by every patch, so each rebuild is incremental), runs each named
# target once unmutated (it must pass), then applies one patch at a time,
# runs its target in release and reverts the patch. Prints one
# `mutant | killed by | seconds` row per patch.
#
# Fails when a mutant survives and KILLS does not mark it
# `equivalent: <reason>`, when a patch no longer applies (the change that
# moved the code refreshes the patch), or when a patch has no KILLS line.
#
# Usage: scripts/mutants.sh [name…]   (all patches without names)
set -euo pipefail
cd "$(dirname "$0")/.."

ROOT=$PWD
MUTANTS=$ROOT/tests/mutants
BUILD=$ROOT/.mutants_build
TREE=$BUILD/tree
export CARGO_TARGET_DIR=$BUILD/target

if [[ $# -gt 0 ]]; then
  NAMES=("$@")
else
  NAMES=()
  for p in "$MUTANTS"/*.patch; do
    NAMES+=("$(basename "$p" .patch)")
  done
fi

# The KILLS entry of a mutant: a test target, or `equivalent: <reason>`.
kills() {
  sed -n "s/^$1[[:space:]]\{1,\}\(.*\)$/\1/p" "$MUTANTS/KILLS"
}

for name in "${NAMES[@]}"; do
  if [[ ! -f $MUTANTS/$name.patch ]]; then
    echo "no patch tests/mutants/$name.patch" >&2
    exit 1
  fi
  if [[ -z $(kills "$name") ]]; then
    echo "tests/mutants/KILLS has no line for $name" >&2
    exit 1
  fi
done

rm -rf "$TREE"
mkdir -p "$TREE"
git archive HEAD | tar -x -C "$TREE"

run_target() {
  (cd "$TREE" && cargo test --release --offline -q --test "$1") >"$BUILD/$2.log" 2>&1
}

# A target that fails unmutated would kill every mutant.
for target in $(for name in "${NAMES[@]}"; do kills "$name"; done | grep -v '^equivalent:' | sort -u); do
  echo "building and running $target unmutated ..." >&2
  if ! run_target "$target" "unmutated-$target"; then
    echo "$target fails without a mutant; see $BUILD/unmutated-$target.log" >&2
    exit 1
  fi
done

failed=0
printf '%-30s | %-22s | %s\n' mutant "killed by" seconds
for name in "${NAMES[@]}"; do
  patch=$MUTANTS/$name.patch
  expected=$(kills "$name")
  # `patch`, not `git apply`: the tree lies inside this repository's work
  # tree, where `git apply` would resolve the paths against its top.
  if ! patch -d "$TREE" -p1 -s -f --no-backup-if-mismatch --dry-run <"$patch" >/dev/null; then
    echo "$name: patch no longer applies to HEAD; refresh tests/mutants/$name.patch" >&2
    failed=1
    continue
  fi
  patch -d "$TREE" -p1 -s -f --no-backup-if-mismatch <"$patch"
  started=$SECONDS
  if [[ $expected == equivalent:* ]]; then
    verdict="(${expected})"
  elif run_target "$expected" "$name"; then
    verdict="SURVIVED $expected"
    failed=1
  else
    verdict=$expected
  fi
  patch -d "$TREE" -p1 -s -f --no-backup-if-mismatch -R <"$patch"
  printf '%-30s | %-22s | %s\n' "$name" "$verdict" "$((SECONDS - started))"
done
exit $failed
