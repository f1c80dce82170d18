#!/usr/bin/env bash
# tools/mutate.sh [PATCH...] — the mutation catalogue (testdata/mutations):
# each patch breaks the code on purpose, and the tests must notice. The
# script copies this working tree into a temporary directory, and for each
# patch (default: all of them) applies it with `git apply`, runs
# `go test -count=1 PACKAGES` there and reverts it. The header of a patch,
# before its diff, names the packages to test and which top-level tests
# must fail:
#
#   # mutation: a warm hit clears prefetched
#   # packages: ./internal/cache/
#   # fails: TestCacheMatchesReference
#
# It fails when a mutation survives (the tests pass), no longer applies,
# or fails a set of tests other than the one recorded; `make mutate`.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
cd "$root"
if [ $# -eq 0 ]; then
	set -- testdata/mutations/*.patch
fi
patches=()
for p in "$@"; do
	patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")")
done

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
# Tracked files deleted from the working tree are still listed; skip them.
git ls-files -z --cached --others --exclude-standard --deduplicate |
	while IFS= read -r -d '' f; do
		if [ -e "$f" ] || [ -L "$f" ]; then
			printf '%s\0' "$f"
		fi
	done |
	tar --null -T - -cf - | tar -xf - -C "$tree"
cd "$tree"

# header FIELD PATCH prints the value of the patch's "# FIELD:" line.
header() {
	sed -n "s/^# $1: *//p" "$2" | head -n 1
}

bad=0
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	pkgs=$(header packages "$p")
	want=$(header fails "$p" | tr ' ' '\n' | sed '/^$/d' | sort -u | tr '\n' ' ')
	if [ -z "$pkgs" ] || [ -z "$want" ]; then
		echo "BROKEN    $name: the header needs packages and fails"
		bad=1
		continue
	fi
	if ! git apply "$p" 2>/dev/null; then
		echo "STALE     $name: the patch no longer applies"
		bad=1
		continue
	fi
	# shellcheck disable=SC2086 # packages is a list
	out=$(go test -count=1 $pkgs 2>&1) && status=0 || status=$?
	git apply -R "$p"
	got=$(printf '%s\n' "$out" | sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' | sort -u | tr '\n' ' ')
	if [ "$status" -eq 0 ]; then
		echo "SURVIVED  $name: the tests pass"
		bad=1
	elif [ "$got" != "$want" ]; then
		echo "DIFFERENT $name: fails [${got% }], recorded [${want% }]"
		printf '%s\n' "$out" | grep -E 'panic:|build failed' | head -n 5 | sed 's/^/          /' || true
		bad=1
	else
		echo "killed    $name: ${got% }"
	fi
done
exit $bad
