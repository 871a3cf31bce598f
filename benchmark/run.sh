#!/usr/bin/env bash
# Host-time benchmark for brickx (see benchmark/README.md).
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace [0|1]] [--out FILE] [--smoke]
#
# Every option also takes the --name=value form. Builds the benchmark and
# the library sources it measures into build-bench/ at the repository root,
# then runs each workload (all four unless --workload is given) in its own
# process. Each process prints one `name value unit` line per metric and,
# as its last line, a JSON object {correct, attempted, failed, metrics}.
# The per-workload documents are joined into one JSON file (--out, default
# build-bench/results/bench.json). --smoke runs shrunken rosters in both
# modes, untraced and traced, in a few seconds. The exit status is nonzero
# when the build fails or any correctness gate fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

usage() { sed -n '2,15p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; }

workloads=()
seed=1
seconds=""
trace=0
out=""
smoke=0
while (($#)); do
  arg=$1
  shift
  case $arg in
    --workload=*) workloads+=("${arg#*=}") ;;
    --workload) workloads+=("${1:?--workload needs a value}"); shift ;;
    --seed=*) seed=${arg#*=} ;;
    --seed) seed=${1:?--seed needs a value}; shift ;;
    --seconds=*) seconds=${arg#*=} ;;
    --seconds) seconds=${1:?--seconds needs a value}; shift ;;
    --trace=*) trace=${arg#*=} ;;
    --trace)
      if [[ ${1:-} == 0 || ${1:-} == 1 ]]; then
        trace=$1
        shift
      else
        trace=1
      fi
      ;;
    --out=*) out=${arg#*=} ;;
    --out) out=${1:?--out needs a value}; shift ;;
    --smoke) smoke=1 ;;
    -h | --help) usage; exit 0 ;;
    *) echo "run.sh: unknown option '$arg'" >&2; usage >&2; exit 2 ;;
  esac
done
if [[ $trace != 0 && $trace != 1 ]]; then
  echo "run.sh: --trace takes 0 or 1" >&2
  exit 2
fi
if [[ -z $seconds ]]; then
  if ((smoke)); then seconds=0.5; else seconds=20; fi
fi
((${#workloads[@]})) || workloads=(k1_volume k1_kernels k2_fabric tune_search)

# Build (quietly, to stderr: stdout carries only results). The lock keeps
# concurrent invocations from building into the same tree at once.
mkdir -p "$build/results"
generator=()
command -v ninja > /dev/null && generator=(-G Ninja)
(
  command -v flock > /dev/null && flock 9
  if [[ ! -f $build/CMakeCache.txt ]]; then
    cmake -S "$here" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$build/configure.log" 2>&1 ||
      { cat "$build/configure.log" >&2; rm -f "$build/CMakeCache.txt"; exit 1; }
  fi
  cmake --build "$build" --target brickx_bench -j "$(nproc)" \
    > "$build/build.log" 2>&1 || { tail -n 40 "$build/build.log" >&2; exit 1; }
) 9> "$build/.lock"

commit=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2> /dev/null)" &&
  [[ $top -ef $root ]]; then
  commit="$(git -C "$root" rev-parse HEAD)"
fi

modes=("$trace")
((smoke)) && modes=(0 1)
docs=()
status=0
for w in "${workloads[@]}"; do
  for t in "${modes[@]}"; do
    doc="$build/results/$w.trace$t.json"
    rm -f "$doc"
    args=(--workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
      --json-out "$doc" --git-commit "$commit")
    ((t)) && args+=(--trace-out "$build/results/$w.spans.json")
    ((smoke)) && args+=(--smoke)
    "$build/brickx_bench" "${args[@]}" || status=$?
    [[ -f $doc ]] && docs+=("$doc")
  done
done

out=${out:-$build/results/bench.json}
{
  printf '{"schema": "brickx-benchmark-run-v1", "git_commit": "%s",\n' "$commit"
  printf '"workloads": [\n'
  sep=""
  for d in "${docs[@]}"; do
    printf '%s' "$sep"
    cat "$d"
    sep=","
  done
  printf ']}\n'
} > "$out"
echo "wrote $out" >&2
exit "$status"
