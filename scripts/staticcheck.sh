#!/usr/bin/env bash
# Run a pinned staticcheck over the module (configuration in
# staticcheck.conf at the repo root). The version is pinned so CI findings
# never appear or vanish because the tool moved underneath us; bump the pin
# deliberately, together with any new findings it brings.
#
# The binary is found, in this order: a staticcheck on PATH that reports the
# pinned version (`staticcheck -version`), then one this script installed
# before into its cache directory. Only when neither exists does it run `go
# install`, once, into that directory. With `go env GOPROXY` set to `off` it
# skips without trying, and where the install fails (no module proxy) it
# skips with a notice rather than failing, so local checks behave sensibly
# everywhere while CI — which has network — always gets the real run.
set -euo pipefail

cd "$(dirname "$0")/.."
version="${STATICCHECK_VERSION:-2025.1.1}"
cache="${XDG_CACHE_HOME:-$HOME/.cache}/reffil/staticcheck-${version}"

# pinned prints its argument if it is a staticcheck of the pinned version.
pinned() {
    [ -x "$1" ] && [ "$("$1" -version 2>/dev/null | awk '{print $2}')" = "$version" ] && echo "$1"
}

bin="$(pinned "$(command -v staticcheck || true)" || pinned "$cache/staticcheck" || true)"
if [ -z "$bin" ]; then
    if [ "$(go env GOPROXY)" = off ]; then
        echo "SKIP: staticcheck ${version} is not installed and GOPROXY=off; see staticcheck.conf for the pinned configuration" >&2
        exit 0
    fi
    mkdir -p "$cache"
    if ! GOBIN="$cache" go install "honnef.co/go/tools/cmd/staticcheck@${version}" >"$cache/install.log" 2>&1; then
        echo "SKIP: cannot install staticcheck ${version} (offline module proxy?); see $cache/install.log" >&2
        exit 0
    fi
    bin="$cache/staticcheck"
fi

"$bin" ./...
echo "PASS: staticcheck ${version} reports zero findings"
