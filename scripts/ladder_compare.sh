#!/bin/sh
# The benchmark (`ladder/`) at <base-ref> against the working tree, on this
# host: build both, run every workload `pairs` times per side with the two
# sides' order alternating from pair to pair, then print `scl-ladder
# compare` (a = base, b = working tree). Exits with compare's status —
# non-zero only on a `worse` row — or 1 if a run itself failed. Both sides
# run on one machine because numbers taken on two compare the machines.
# The base is unpacked with `git archive`, so nothing is registered in .git.
#
# usage: scripts/ladder_compare.sh <base-ref> [pairs] [seconds] [workload...]
#        defaults: 5 pairs, 15 s per run (BENCHMARK.json's run_seconds),
#        all four workloads; name workloads to run only those (sizing a
#        change that touches one workload); pairs and seconds must then
#        be given too; results in target/ladder-compare/{a,b}.jsonl
set -eu
cd "$(dirname "$0")/.."
base=$1 pairs=${2:-5} secs=${3:-15}
workloads="ladder_heavy ladder_tiny apps_batch serve_open"
if [ $# -gt 3 ]; then shift 3; workloads=$*; fi
dir=$PWD/target/ladder-compare
rm -rf "$dir" && mkdir -p "$dir/base"
git archive "$base" | tar -x -C "$dir/base"
for side in a b; do
    src=.; [ "$side" = a ] && src=$dir/base
    CARGO_TARGET_DIR=$dir/target-$side cargo build --release --quiet --manifest-path "$src/ladder/Cargo.toml"
done
failed=0
run() {
    echo "pair $3: $1 $2" >&2
    "$dir/target-$1/release/scl-ladder" --workload "$2" --seed "$3" --seconds "$secs" \
        --out "$dir/$1.jsonl" >/dev/null || { echo "run failed: $1 $2 seed $3" >&2; failed=1; }
}
i=1
while [ "$i" -le "$pairs" ]; do
    for w in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then run a "$w" "$i"; run b "$w" "$i"; else run b "$w" "$i"; run a "$w" "$i"; fi
    done
    i=$((i + 1))
done
"$dir/target-b/release/scl-ladder" compare "$dir/a.jsonl" "$dir/b.jsonl" || exit $?
exit "$failed"
