#!/usr/bin/env bash
# Runs the paper's experiment benches (E1-E11), the capacity and replica
# smokes, the four examples and the explorer smoke from two build
# directories, and diffs each program's output and exit status.  A
# change that claims to keep every output byte-identical to its parent
# shows it with one command:
#
#   tools/same_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# Prints one line per program ("same" or "DIFFERS", with the diff) and
# exits 0 when every output matches, 1 when any differs, 2 on bad usage
# or a missing binary.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
builds=("$1" "$2")

runs=()
for b in charlotte_rpc chrysalis_rpc soda_vs_charlotte enclosure_protocol \
         link_move unwanted_messages capability_matrix fault_sweep \
         soda_hints ablations code_metrics; do
  runs+=("bench/bench_$b")
done
runs+=("bench/bench_capacity --smoke" "bench/bench_replica --smoke")
for e in quickstart file_server pipeline link_dance; do
  runs+=("examples/$e")
done
runs+=("bench/check_explorer --smoke --threads=4")

for dir in "${builds[@]}"; do
  for run in "${runs[@]}"; do
    read -r -a cmd <<< "$run"
    if [ ! -x "$dir/${cmd[0]}" ]; then
      echo "missing: $dir/${cmd[0]}" >&2
      exit 2
    fi
  done
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for run in "${runs[@]}"; do
  read -r -a cmd <<< "$run"
  for side in 0 1; do
    "${builds[$side]}/${cmd[0]}" "${cmd[@]:1}" > "$out/$side" 2>&1
    echo "exit $?" >> "$out/$side"
  done
  if cmp -s "$out/0" "$out/1"; then
    echo "same     $run"
  else
    echo "DIFFERS  $run"
    diff "$out/0" "$out/1"
    status=1
  fi
done
exit $status
