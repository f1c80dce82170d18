#!/usr/bin/env bash
# tools/layout.sh LABEL=BINARY... — the code layout of the prewarm kernels:
# for each of internal/cache's warm kernels that is a symbol of the given
# Go binaries (an inlined one is not), its address mod 64 in each, one
# column a binary. A setup_s move on the prewarmed workloads between two
# binaries counts as the code's only when their columns match
# (doc/PERF.md, "How to measure"); tools/pairs.sh ends with this table for
# its base and head benchmark binaries.
set -euo pipefail
if [ $# -eq 0 ]; then
	echo "usage: tools/layout.sh LABEL=BINARY..." >&2
	exit 2
fi
printf '%-36s' 'kernel (address mod 64)'
for arg in "$@"; do
	printf ' %8s' "${arg%%=*}"
done
printf '\n'
for k in '(*Cache).warmAccess' '(*Cache).claim' '(*Hierarchy).Warm' '(*Hierarchy).WarmPrivate' '(*Hierarchy).WarmLLC'; do
	row=$(printf '%-36s' "$k")
	seen=0
	for arg in "$@"; do
		addr=$(go tool nm "${arg#*=}" | awk -v s="dramstacks/internal/cache.$k" '$3 == s { print $1 }')
		if [ -n "$addr" ]; then
			row+=$(printf ' %8d' $((16#$addr % 64)))
			seen=1
		else
			row+=$(printf ' %8s' -)
		fi
	done
	if [ "$seen" -eq 1 ]; then
		printf '%s\n' "$row"
	fi
done
