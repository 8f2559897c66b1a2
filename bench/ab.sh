#!/usr/bin/env bash
# Same-runner A/B benchmark gate.
#
#   bench/ab.sh PARENT_TREE CHANGE_TREE [WORKLOAD...]
#
# Builds bench/e2e in both source trees, then runs every BENCHMARK.json
# workload (or only the named ones) once per side: untraced, at seed 42,
# for the benchmark's run_seconds. The two runs of a workload are
# interleaved and the side that goes first alternates from one workload
# to the next. Each side runs from its own root, because main.exe reads
# BENCHMARK.json from its working directory.
#
# The change tree's `main.exe --compare PARENT CHANGE` judges each pair at
# BENCHMARK.json's bounds. A workload it flags gets one more interleaved
# pair, in the opposite order, and fails the gate only if that pair is
# flagged too. The bound itself is never loosened.
#
# Exit status 1 on a confirmed regression, on any run that exits nonzero
# (a failed correctness check included), and on any workload without a
# record from both sides. Every run's output and JSON record is kept in
# the directory printed at the start ($AB_OUT if set).
#
# Needs dune and jq on PATH.

set -euo pipefail

usage() {
  echo "usage: bench/ab.sh PARENT_TREE CHANGE_TREE [WORKLOAD...]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2

exe=_build/default/bench/e2e/main.exe
seconds=$(jq -r .run_seconds "$change/BENCHMARK.json")
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(jq -r '.workloads[].name' "$change/BENCHMARK.json")
fi
out=${AB_OUT:-$(mktemp -d -t dangers-ab.XXXXXX)}
mkdir -p "$out"
echo "ab: parent $parent"
echo "ab: change $change"
echo "ab: ${#workloads[@]} workload(s) at ${seconds}s per run; results in $out"

for tree in "$parent" "$change"; do
  (cd "$tree" && dune build --root . --display quiet ./bench/e2e/main.exe)
done

# run SIDE WORKLOAD TAG: one untraced run of WORKLOAD from SIDE's tree,
# its record appended to $out/WORKLOAD.SIDE.TAG.jsonl.
run() {
  local side=$1 workload=$2 tag=$3 tree
  case $side in parent) tree=$parent ;; change) tree=$change ;; esac
  local log="$out/$workload.$side.$tag.log"
  echo "ab: $workload: $side run ($tag)"
  if ! (cd "$tree" && "./$exe" --workload "$workload" --seed 42 \
          --seconds "$seconds" --trace 0 \
          --out "$out/$workload.$side.$tag.jsonl") > "$log" 2>&1; then
    tail -n 20 "$log" >&2
    echo "ab: $workload: the $side run failed (log: $log)" >&2
    exit 1
  fi
}

# pair WORKLOAD TAG FIRST SECOND: run both sides in the given order, then
# compare. Returns 0 when nothing regressed, 1 when a metric did.
pair() {
  local workload=$1 tag=$2
  rm -f "$out/$workload".*."$tag".jsonl
  run "$3" "$workload" "$tag"
  run "$4" "$workload" "$tag"
  local base="$out/$workload.parent.$tag.jsonl" cand="$out/$workload.change.$tag.jsonl"
  for file in "$base" "$cand"; do
    if ! grep -q "\"workload\":\"$workload\"" "$file" 2>/dev/null; then
      echo "ab: $workload: no record in $file" >&2
      exit 1
    fi
  done
  local status=0
  (cd "$change" && "./$exe" --compare "$base" "$cand") || status=$?
  case $status in
    0 | 1) return "$status" ;;
    *) echo "ab: $workload: --compare exited with $status" >&2; exit 1 ;;
  esac
}

failed=()
index=0
for workload in "${workloads[@]}"; do
  if [ $((index % 2)) -eq 0 ]; then order=(parent change); else order=(change parent); fi
  index=$((index + 1))
  if pair "$workload" run "${order[0]}" "${order[1]}"; then continue; fi
  echo "ab: $workload: flagged; confirming with one more pair"
  if pair "$workload" confirm "${order[1]}" "${order[0]}"; then
    echo "ab: $workload: not confirmed"
  else
    failed+=("$workload")
  fi
done

if [ ${#failed[@]} -gt 0 ]; then
  echo "ab: FAILED: confirmed regression in ${failed[*]}" >&2
  exit 1
fi
echo "ab: ok (${#workloads[@]} workload(s))"
