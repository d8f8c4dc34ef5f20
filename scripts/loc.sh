#!/usr/bin/env bash
# Non-test Go lines (wc -l) outside benchmark/ and testdata/, per package
# directory and in total: the size every CHANGES.md entry quotes.
#
# Usage: scripts/loc.sh [dir]   (default: the repository root)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/^\.\//, "", dir); sub(/\/[^\/]*$/, "", dir)
		lines[dir] += $1; total += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
