#!/usr/bin/env bash
# CI anchor check: CI runs every test once, in `go test -race ./...`, so a
# renamed or deleted test just silently stops running. scripts/anchors.txt
# names the tests the repository's guarantees rest on; require each to exist
# as `func <TestName>(` in a _test.go file of its package directory.
#
# Usage: scripts/ci_anchors.sh [anchors.txt]
set -euo pipefail
cd "$(dirname "$0")/.."
anchors="${1:-scripts/anchors.txt}"

missing=0
checked=0
while read -r dir name; do
	case "$dir" in '' | '#'*) continue ;; esac
	checked=$((checked + 1))
	if ! grep -qsE "^func ${name}\(" "$dir"/*_test.go; then
		echo "ci_anchors: ${dir} has no test function ${name}"
		missing=$((missing + 1))
	fi
done <"$anchors"

if [ "$checked" -eq 0 ]; then
	echo "ci_anchors: $anchors names no tests"
	exit 1
fi
if [ "$missing" -ne 0 ]; then
	echo "ci_anchors: $missing of $checked anchored tests are missing"
	exit 1
fi
echo "ci_anchors: all $checked anchored tests exist"
