#!/usr/bin/env bash
# benchgate.sh — the repository's performance gate: the benchmark's own
# report and its own -compare, this tree against a parent commit.
#
#   scripts/benchgate.sh                    # against HEAD^ (what CI runs)
#   scripts/benchgate.sh origin/main        # against any revision
#   scripts/benchgate.sh HEAD^ -seconds 4   # arguments after the revision go
#                                           # to every `benchmark/run.sh -out`
#
# The parent is checked out with `git worktree add` under .bench_build/
# and each tree is measured by its own benchmark/run.sh, built from its
# own source, so the baseline is a commit and never a file this tree
# could edit. Four full reports are taken one at a time in the order
# parent, change, change, parent — neither side always runs first — and
# this tree's `-compare` judges the two (parent, change) pairs against
# the bounds in BENCHMARK.json. A workload × metric row fails the gate
# when it is `regressed` in both pairs: the shared host runs one set in
# ten at half speed (benchmark/README.md, "Host speed"), which lands on
# one pair, while a regression in the code shows in each.
#
# The reports, the sample logs and both verdict tables stay under
# .bench_build/gate/; CI uploads the change's two reports, and
# `repobench -display history` charts any number of them.
#
# Exit status: 0 when no row regressed in both pairs, 1 otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

parent=${1:-HEAD^}
shift || true
gate=$PWD/.bench_build/gate
tree=$PWD/.bench_build/parent

# A run killed midway leaves its worktree behind.
git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
git worktree prune
rm -rf "$gate"
mkdir -p "$gate"
git worktree add --quiet --detach "$tree" "$parent"
trap 'git worktree remove --force "$tree"' EXIT
echo "benchgate: parent $(git -C "$tree" rev-parse --short HEAD) ($parent), change $(git rev-parse --short HEAD) and the working tree"

# report <dir> <name> [run.sh arguments]: one full report of the tree at dir.
report() {
  local dir=$1 name=$2
  shift 2
  echo "benchgate: measuring $name"
  if ! (cd "$dir" && bash benchmark/run.sh "$@" -out "$gate/$name.json") >"$gate/$name.log" 2>&1; then
    tail -n 20 "$gate/$name.log" >&2
    echo "benchgate: FAIL — $name was not measured (full log: $gate/$name.log)" >&2
    exit 1
  fi
}
report "$tree" parent1 "$@"
report . change1 "$@"
report . change2 "$@"
report "$tree" parent2 "$@"

for pair in 1 2; do
  # -compare exits 1 on a regressed row, with its count on stderr; what
  # counts here is the table.
  bash benchmark/run.sh -compare "$gate/parent$pair.json" "$gate/change$pair.json" \
    >"$gate/compare$pair.txt" 2>"$gate/compare$pair.err" || true
  if ! grep -q '^workload ' "$gate/compare$pair.txt"; then
    cat "$gate/compare$pair.err" >&2
    echo "benchgate: FAIL — -compare printed no table for pair $pair" >&2
    exit 1
  fi
  echo
  echo "benchgate: pair $pair, a = parent$pair.json, b = change$pair.json"
  cat "$gate/compare$pair.txt"
  awk '$NF == "regressed" {print $1, $2}' "$gate/compare$pair.txt" | sort >"$gate/regressed$pair.txt"
done

both=$(comm -12 "$gate/regressed1.txt" "$gate/regressed2.txt")
echo
if [[ -n $both ]]; then
  echo "benchgate: FAIL — regressed against $parent in both pairs (workload metric):"
  sed 's/^/  /' <<<"$both"
  exit 1
fi
echo "benchgate: ok — no workload × metric row regressed against $parent in both pairs"
