#!/usr/bin/env bash
# Metrics-endpoint smoke test: run a real fedserver with -metrics and two
# fedworkers over loopback, scrape the Prometheus page while the run is in
# progress, and check that the round counter, both byte counters and the
# delta-frame counter are nonzero — i.e. the telemetry subsystem is wired
# into the live transport, not just compiled: broadcasts are counted where
# their frames are written, uploads where the slot reader settles each ack,
# and broadcasts after the first round ship diffs rather than snapshots. The
# page must not carry fed_frame_fallbacks_total: every full frame is a
# fallback, so fed_frames_total{kind="full"} is that count. The server and
# worker 0 also write -trace files: once both exit, each must decode as
# strict JSON and hold a mirrored log line (an instant on the "log" track):
# wire_round from the server, round_done from the worker.
#
# Usage: scripts/metrics_smoke.sh
# Exits nonzero (with the captured log) on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
cleanup() {
	# shellcheck disable=SC2046
	kill $(jobs -p) >/dev/null 2>&1 || true
	wait >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/fedserver" ./cmd/fedserver
go build -o "$work/fedworker" ./cmd/fedworker

addr=127.0.0.1:7463
common=(-method RefFiL -dataset pacs -scale mini -seed 3)

"$work/fedserver" -addr "$addr" -workers 2 "${common[@]}" \
	-metrics 127.0.0.1:0 -trace "$work/server.trace.json" >"$work/run.log" 2>&1 &
pid=$!
"$work/fedworker" -addr "$addr" -id 0 "${common[@]}" -dial-retries 20 -dial-backoff 200ms \
	-trace "$work/worker-0.trace.json" >"$work/worker-0.log" 2>&1 &
wpid=$!
"$work/fedworker" -addr "$addr" -id 1 "${common[@]}" -dial-retries 20 -dial-backoff 200ms \
	>"$work/worker-1.log" 2>&1 &

# fedserver prints "metrics listening on http://ADDR/metrics" once the
# registry server has bound its ephemeral port.
url=""
for _ in $(seq 1 100); do
	url=$(sed -n 's/^metrics listening on \(http:[^ ]*\)$/\1/p' "$work/run.log" | head -n1)
	[ -n "$url" ] && break
	kill -0 "$pid" 2>/dev/null || { echo "FAIL: fedserver exited before serving metrics"; cat "$work/run.log"; exit 1; }
	sleep 0.2
done
[ -n "$url" ] || { echo "FAIL: no metrics address in log"; cat "$work/run.log"; exit 1; }

scrape() {
	if command -v curl >/dev/null 2>&1; then
		curl -sf "$url"
	else
		wget -qO- "$url"
	fi
}

# Poll until the instrumented run has sent a delta frame: the first round's
# broadcasts are full snapshots to fresh workers, so that is the second of
# its twenty rounds, which lands seconds before the server exits.
ok=0
for _ in $(seq 1 300); do
	if scrape >"$work/metrics.txt" 2>/dev/null &&
		grep -Eq '^fed_rounds_total [1-9]' "$work/metrics.txt" &&
		grep -Eq '^fed_broadcast_bytes_total [1-9]' "$work/metrics.txt" &&
		grep -Eq '^fed_upload_bytes_total [1-9]' "$work/metrics.txt" &&
		grep -Eq '^fed_frames_total\{kind="delta"\} [1-9]' "$work/metrics.txt"; then
		ok=1
		break
	fi
	kill -0 "$pid" 2>/dev/null || break
	sleep 0.2
done
if [ "$ok" != 1 ]; then
	echo "FAIL: /metrics never showed nonzero fed_rounds_total, fed_broadcast_bytes_total, fed_upload_bytes_total and fed_frames_total{kind=\"delta\"}"
	echo "--- last scrape ---"
	cat "$work/metrics.txt" 2>/dev/null || true
	echo "--- run log ---"
	cat "$work/run.log"
	exit 1
fi

if grep -q 'fed_frame_fallbacks_total' "$work/metrics.txt"; then
	echo "FAIL: /metrics still carries fed_frame_fallbacks_total"
	cat "$work/metrics.txt"
	exit 1
fi

wait "$pid" || { echo "FAIL: fedserver exited nonzero"; cat "$work/run.log"; exit 1; }
wait "$wpid" || { echo "FAIL: fedworker 0 exited nonzero"; cat "$work/worker-0.log"; exit 1; }
for pair in server.trace.json:wire_round worker-0.trace.json:round_done; do
	file=$work/${pair%%:*} evt=${pair#*:}
	python3 -m json.tool "$file" >/dev/null || { echo "FAIL: $file is not valid JSON"; exit 1; }
	grep -q "\"ph\":\"i\",.*\"name\":\"$evt\"" "$file" || { echo "FAIL: $file holds no mirrored $evt log line"; exit 1; }
done

echo "metrics smoke OK:"
grep -E '^fed_(rounds_total|broadcast_bytes_total|upload_bytes_total|frames_total\{kind="delta"\}) ' "$work/metrics.txt"
echo "traces OK: strict JSON with mirrored wire_round (server) and round_done (worker 0) log lines"
