#!/usr/bin/env bash
# Compare two git revisions with identical benchmark code.
#
#   bash benchmark/compare.sh BASE NEW
#
# Extracts each revision with `git archive` into build-bench/compare/<sha>/,
# replaces its benchmark/ with this checkout's, and builds each tree. Then,
# for every workload in BENCHMARK.json, it runs 10 base/new pairs with seeds
# 1..10 and the BENCHMARK.json run length, untraced, alternating which side
# runs first, and prints for every metric each side's median and quartiles,
# the fraction of pairs the new side wins (ties count for neither) and a
# verdict: a gain needs >= 90% wins, a median difference beyond the base's
# own quartile spread and no more failed operations than the base; a
# regression is a median worse than the base by more than the BENCHMARK.json
# bound. Raw per-run results are kept as JSON lines next to the trees.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
dest="$root/build-bench/compare"
pairs=10

if (($# != 2)); then
  sed -n '2,15p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
base=$1
new=$2
read -r seconds workloads < <(python3 -c 'import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))' \
  "$root/BENCHMARK.json")

# A source tree of `rev` with this checkout's benchmark code.
prepare() {
  local sha dir
  sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
  dir="$dest/$sha"
  if [[ ! -d $dir/src ]]; then
    mkdir -p "$dir"
    git -C "$root" archive "$sha" | tar -x -C "$dir"
  fi
  rm -rf "$dir/benchmark"
  cp -R "$here" "$dir/benchmark"
  echo "$dir"
}

base_dir="$(prepare "$base")"
new_dir="$(prepare "$new")"
# Build both trees and pass every gate before measuring anything.
for dir in "$base_dir" "$new_dir"; do
  echo "building and smoke-checking $dir" >&2
  bash "$dir/benchmark/run.sh" --smoke > /dev/null
done
results="$dest/results-$(date +%Y%m%d-%H%M%S).jsonl"

# One run; appends {"workload", "pair", "side", "stdout"} to $results.
run_side() {
  local side=$1 dir=$2 w=$3 seed=$4 stdout
  stdout="$(bash "$dir/benchmark/run.sh" --workload "$w" --seed "$seed" \
    --seconds "$seconds" --trace 0)" ||
    echo "compare.sh: $side run failed ($w, seed $seed)" >&2
  python3 -c 'import json, sys
print(json.dumps({"workload": sys.argv[1], "pair": int(sys.argv[2]),
                  "side": sys.argv[3], "stdout": sys.stdin.read()}))' \
    "$w" "$seed" "$side" <<< "$stdout" >> "$results"
}

for w in $workloads; do
  for ((i = 1; i <= pairs; i++)); do
    echo "$w pair $i/$pairs" >&2
    if ((i % 2)); then
      run_side base "$base_dir" "$w" "$i"
      run_side new "$new_dir" "$w" "$i"
    else
      run_side new "$new_dir" "$w" "$i"
      run_side base "$base_dir" "$w" "$i"
    fi
  done
done

echo "raw results: $results" >&2
python3 "$here/compare.py" "$root/BENCHMARK.json" "$results"
