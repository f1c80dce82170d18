#!/usr/bin/env bash
# tools/nofma.sh — fail when the compiler fuses a floating-point
# multiply-add anywhere a result's bytes come from.
#
# The Go spec lets a compiler compute x*y + z with one rounding instead
# of two, even across statements; amd64 never does, arm64, ppc64le, s390x
# and riscv64 do, so a fused op makes the stacks (and the spec-hash-keyed
# results) depend on the architecture. An explicit float64(...) conversion
# is the spec's fusion barrier. This script cross-compiles every module
# package internal/service depends on for those four architectures with
# -gcflags=-S (no emulator needed) and prints each source line that
# compiled to an FMADD / FMSUB / FNMADD / FNMSUB, with its count. Exit
# status 1 when there is any. Run from anywhere in the repository:
#
#	bash tools/nofma.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
root=$PWD
mapfile -t pkgs < <(go list -deps ./internal/service | grep '^dramstacks/')

total=0
for arch in arm64 ppc64le s390x riscv64; do
	asm=$(GOOS=linux GOARCH=$arch go build -gcflags=-S "${pkgs[@]}" 2>&1) || {
		echo "$asm" >&2
		echo "nofma: GOARCH=$arch build failed" >&2
		exit 2
	}
	# An instruction line reads "0x0024 00036 (/path/file.go:94)	FMADDD	F1, ...".
	fused=$(grep -oE '\([^()]+\.go:[0-9]+\)[[:space:]]+FN?M(ADD|SUB)[A-Z]*' <<<"$asm" |
		sed -E "s|^\\(${root}/||; s|\\)[[:space:]]+| |" | sort | uniq -c || true)
	n=0
	if [ -n "$fused" ]; then
		n=$(awk '{s += $1} END {print s}' <<<"$fused")
		echo "$fused" | sed "s/^/$arch: /"
	fi
	echo "nofma: GOARCH=$arch: $n fused multiply-add(s)"
	total=$((total + n))
done
if ((total > 0)); then
	echo "nofma: convert the product with float64(...) to keep it rounded on its own" >&2
	exit 1
fi
