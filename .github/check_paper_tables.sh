#!/bin/sh
# Reproduce the committed paper outputs. Runs every deterministic paper
# bench (tables 1 and 3-7, figures 16-18, the five ablations) and
# bench_topology at its defaults from the repo root, and diffs each
# stdout against results/. bench_table2's last two columns, "host S*"
# and "host GPLU", are wall-clock times on the host, so both sides are
# cut before them. The benches that write JSON by default rewrite
# results/bench_topology.json and results/bench_ablation_memory.json in
# place; both must parse as JSON and git must then see them unchanged.
#
# Usage, from the repo root after a Release build:
#   sh .github/check_paper_tables.sh [BUILD_DIR]     (default: build)
# Exit 0 iff every output matches.
set -u
build=${1:-build}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0

for b in table1 table3 table4 table5 table6 table7 fig16 fig17 fig18 \
         ablation_amalg ablation_blocksize ablation_memory \
         ablation_ordering ablation_overlap topology; do
  if ! "$build/bench/bench_$b" > "$out/bench_$b.txt"; then
    echo "bench_$b failed"
    status=1
  fi
  diff -u "results/bench_$b.txt" "$out/bench_$b.txt" || status=1
done

if ! "$build/bench/bench_table2" > "$out/bench_table2.txt"; then
  echo "bench_table2 failed"
  status=1
fi
col=$(awk 'index($0, "host S*") { print index($0, "host S*"); exit }' \
  results/bench_table2.txt)
cut -c "1-$((col - 1))" results/bench_table2.txt > "$out/want_table2.txt"
cut -c "1-$((col - 1))" "$out/bench_table2.txt" > "$out/got_table2.txt"
diff -u "$out/want_table2.txt" "$out/got_table2.txt" || status=1

for j in results/bench_topology.json results/bench_ablation_memory.json; do
  python3 -m json.tool "$j" > /dev/null || status=1
done
git diff --exit-code -- results/bench_topology.json \
  results/bench_ablation_memory.json || status=1

if [ "$status" -eq 0 ]; then
  echo "paper outputs reproduce"
else
  echo "paper outputs differ from results/"
fi
exit "$status"
