#!/usr/bin/env bash
# A/A check: two sets of runs of the SAME commit, made the way the driver
# makes them (one process per workload and run, a different --seed each),
# must agree within the bounds BENCHMARK.json fixes, with no pair unresolved.
# The two sets are interleaved so that both see the same drift of the host.
#
#   benchmark/aa.sh [runs-per-set (10)] [seconds-per-run (BENCHMARK.json's run_seconds)]
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${1:-10}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
out=benchmark/out
mkdir -p "$out"
rm -f "$out/aa-A.jsonl" "$out/aa-B.jsonl"
for workload in solo_pairs duo_pairs burst_drain stream openloop_sparse openloop_dense; do
    for i in $(seq 1 "$runs"); do
        for set in A B; do
            if [ "$set" = A ]; then seed=$((1000 + i)); else seed=$((2000 + i)); fi
            "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace 0 --out "$out/aa-$set.jsonl" | tail -n 1 | cut -c1-72
        done
    done
done
"${bench[@]}" compare "$out/aa-A.jsonl" "$out/aa-B.jsonl"
