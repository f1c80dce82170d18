#!/usr/bin/env bash
# tools/pairs.sh BASE [N] — the paired measurement a performance claim
# rests on (doc/PERF.md, "Benchmark harness"): check revision BASE out
# into a git worktree, run N (default 10) pairs of
# `benchmark/run.sh --workload all --seed i` on BASE and on this working
# tree, alternating which side runs first, and judge the two result files
# with `benchmark/run.sh compare`, then print the code layout of the
# prewarm kernels in the two benchmark binaries (tools/layout.sh).
# Everything it writes stays under .bench_build/pairs (git-ignored);
# about three minutes a pair.
set -euo pipefail
base=${1:?usage: tools/pairs.sh BASE [N]}
n=${2:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"
out="$root/.bench_build/pairs"
tree="$out/base"
rm -rf "$out"
mkdir -p "$out"
git worktree prune
git worktree add --detach "$tree" "$base"
trap 'git worktree remove --force "$tree"' EXIT

for i in $(seq 1 "$n"); do
	order="base head"
	if ((i % 2 == 0)); then
		order="head base"
	fi
	for side in $order; do
		dir=$root
		if [ "$side" = base ]; then
			dir=$tree
		fi
		echo "== pair $i/$n: $side" >&2
		(cd "$dir" && bash benchmark/run.sh --workload all --seed "$i" --out "$out/$side.ndjson" >/dev/null)
	done
done
status=0
bash benchmark/run.sh compare "$out/base.ndjson" "$out/head.ndjson" || status=$?
echo
bash tools/layout.sh base="$tree/.bench_build/benchmark" head="$root/.bench_build/benchmark"
exit $status
