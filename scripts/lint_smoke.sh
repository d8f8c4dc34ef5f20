#!/usr/bin/env bash
# Lint smoke test: prove the fedvet vet-tool wiring end to end. Unit tests
# cover each analyzer in isolation; this script builds the real fedvet
# binary, points `go vet -vettool` at an intentionally-violating package
# kept under internal/analysis/testdata (excluded from ./... wildcards,
# reachable by explicit path), and asserts that the run fails with the
# diagnostics the fixture plants. A fedvet that silently passes everything —
# a broken -V handshake, an empty registry, a vet driver that swallows the
# exit code — fails here, not in a green CI lint step.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/fedvet" ./cmd/fedvet

target=./internal/analysis/testdata/lintsmoke
if go vet -vettool="$work/fedvet" "$target" >"$work/out.log" 2>&1; then
    echo "FAIL: fedvet reported no findings on the intentionally-violating package" >&2
    cat "$work/out.log" >&2
    exit 1
fi

fail=0
for needle in \
    "iterates in random order" \
    "== on floating-point operands"; do
    if ! grep -qF "$needle" "$work/out.log"; then
        echo "FAIL: expected diagnostic not found: $needle" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    cat "$work/out.log" >&2
    exit 1
fi

# The clean direction: the suite itself must vet clean with its own tool.
go vet -vettool="$work/fedvet" ./internal/analysis/... ./cmd/fedvet

echo "PASS: fedvet flags the violating fixture ($(grep -c ': ' "$work/out.log") diagnostics) and passes its own packages"
