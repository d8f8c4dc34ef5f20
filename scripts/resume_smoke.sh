#!/usr/bin/env bash
# Resume smoke test: SIGKILL a checkpointing fedserver mid-run, restart it
# with the identical command line, and require the resumed run to complete
# with an accuracy-matrix block equal — byte for byte — to the one the
# in-process reffil CLI prints for the same four run flags. The workers are
# started once with -rejoin and survive the coordinator's death by
# re-dialing, exactly as a real deployment would. The restart hands the
# workers fresh slots, so the resumed server's first broadcasts are full
# snapshots; its wire totals must still show delta frames after them. Finally
# a restart under another -dataset must be refused: the snapshot belongs to
# another run.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) >/dev/null 2>&1 || true
    wait >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/reffil" ./cmd/reffil
go build -o "$work/fedserver" ./cmd/fedserver
go build -o "$work/fedworker" ./cmd/fedworker

common=(-method RefFiL -dataset pacs -scale mini -seed 3)

start_workers() { # $1 = coordinator address
    for id in 0 1; do
        "$work/fedworker" -addr "$1" -id "$id" "${common[@]}" \
            -rejoin 20 -dial-retries 20 -dial-backoff 200ms \
            >"$work/worker-$1-$id.log" 2>&1 &
    done
}

matrix_of() { # $1 = run log; prints the matrix + summary block
    sed -n '/^accuracy matrix/,/^Avg /p' "$1"
}

# --- Reference: the same run, in process. ---------------------------------
"$work/reffil" "${common[@]}" -quiet >"$work/reference.log" 2>&1 \
    || { echo "reference run failed:"; cat "$work/reference.log"; exit 1; }

# --- Crash run: kill the server at its first checkpoint, restart it. ------
addr=127.0.0.1:7462
ckpt_dir="$work/ckpt"
mkdir -p "$ckpt_dir"
server=("$work/fedserver" -addr "$addr" -workers 2 "${common[@]}" -checkpoint-dir "$ckpt_dir")

"${server[@]}" >"$work/crash.log" 2>&1 &
srv_pid=$!
start_workers "$addr"

for _ in $(seq 1 300); do
    [ -f "$ckpt_dir/run.ckpt" ] && break
    kill -0 "$srv_pid" 2>/dev/null || { echo "server died before its first checkpoint:"; cat "$work/crash.log"; exit 1; }
    sleep 0.2
done
[ -f "$ckpt_dir/run.ckpt" ] || { echo "no checkpoint appeared within 60s"; cat "$work/crash.log"; exit 1; }

kill -9 "$srv_pid" 2>/dev/null || { echo "run finished before the kill — nothing was resumed"; exit 1; }
wait "$srv_pid" 2>/dev/null || true
echo "killed fedserver at its first checkpoint; restarting"

"${server[@]}" >"$work/resumed.log" 2>&1 &
wait $! || { echo "resumed run failed:"; cat "$work/resumed.log"; exit 1; }

grep -q "resuming from" "$work/resumed.log" \
    || { echo "restarted server did not resume from the checkpoint:"; cat "$work/resumed.log"; exit 1; }
grep -Eq '^wire totals: .* frames [0-9]+ full/[1-9][0-9]* delta/' "$work/resumed.log" \
    || { echo "resumed server sent no delta frames:"; grep '^wire totals' "$work/resumed.log"; exit 1; }

matrix_of "$work/reference.log" >"$work/reference.matrix"
matrix_of "$work/resumed.log" >"$work/resumed.matrix"
[ -s "$work/reference.matrix" ] || { echo "reference printed no matrix"; cat "$work/reference.log"; exit 1; }
if ! diff -u "$work/reference.matrix" "$work/resumed.matrix"; then
    echo "resumed matrix diverged from the in-process reference"
    exit 1
fi

# --- Negative restart: the snapshot is a pacs run, so officecaltech10 must
# be refused before anything runs, with all four run flags named. ---------
mismatch=("$work/fedserver" -addr "$addr" -workers 2 -method RefFiL -dataset officecaltech10 -scale mini -seed 3 -checkpoint-dir "$ckpt_dir")
if "${mismatch[@]}" >"$work/mismatch.log" 2>&1; then
    echo "restart under another -dataset was not refused:"; cat "$work/mismatch.log"; exit 1
fi
grep -q -- "-method RefFiL -dataset pacs -scale mini -seed 3, not -method RefFiL -dataset officecaltech10 -scale mini -seed 3" "$work/mismatch.log" \
    || { echo "mismatched restart failed for another reason:"; cat "$work/mismatch.log"; exit 1; }

echo "resume smoke passed: SIGKILLed run resumed bit-identically to reffil, shipping delta frames; a restart under another -dataset was refused"
grep '^wire totals' "$work/resumed.log"
cat "$work/resumed.matrix"
