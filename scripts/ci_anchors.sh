#!/usr/bin/env bash
# CI anchor check: `go test -run 'A|B|C'` passes silently when a renamed
# test matches nothing. For every quoted -run alternation in the workflow,
# require each name to exist as `func <Name>(` in a _test.go file of one of
# the packages that same `go test` invocation targets.
#
# Usage: scripts/ci_anchors.sh [workflow.yml]
set -euo pipefail
cd "$(dirname "$0")/.."
workflow="${1:-.github/workflows/ci.yml}"

missing=0
checked=0
# One `go test` invocation per record: split `run:` lines on &&.
while IFS= read -r cmd; do
	pattern=$(sed -n "s/.*-run[ =]'\([^']*\)'.*/\1/p" <<<"$cmd")
	[ -n "$pattern" ] || continue
	files=()
	for pkg in $(grep -oE '(^| )\./[^ ]*' <<<"$cmd"); do
		dir="${pkg%/...}"
		if [ "$dir" != "$pkg" ]; then
			while IFS= read -r f; do files+=("$f"); done < <(find "$dir" -name '*_test.go')
		else
			for f in "$dir"/*_test.go; do [ -e "$f" ] && files+=("$f"); done
		fi
	done
	IFS='|' read -ra names <<<"$pattern"
	for name in "${names[@]}"; do
		checked=$((checked + 1))
		if [ ${#files[@]} -eq 0 ] || ! grep -qE "^func ${name}\(" "${files[@]}"; then
			echo "ci_anchors: -run name '${name}' matches no test function in: ${cmd# }"
			missing=$((missing + 1))
		fi
	done
done < <(grep -E '^\s*(run:|go test)' "$workflow" | sed 's/^\s*run: *//' | sed 's/ && /\n/g' | grep 'go test')

if [ "$checked" -eq 0 ]; then
	echo "ci_anchors: found no -run alternations in $workflow"
	exit 1
fi
if [ "$missing" -ne 0 ]; then
	echo "ci_anchors: $missing of $checked anchored test names are missing"
	exit 1
fi
echo "ci_anchors: all $checked anchored test names exist"
