#!/usr/bin/env sh
# End-to-end smoke for the scenario service (docs/SERVE.md), exercising
# the real binary, real TCP, and real signals — the things the in-process
# drill cannot.
#
# Part 1 (drain + restart): start a server, push a loadgen population
# through it, SIGTERM it (must exit 0 after a clean drain), restart it
# over the same state directory, and read every record back over `query`
# — the recovered file must be byte-identical to the first run's. Then
# resubmit half the population and query everything again, before and
# after another restart: still byte-identical.
#
# Part 2 (SIGKILL recovery): submit the population to a fresh
# single-worker server, SIGKILL it as soon as the journal proves the
# work is accepted, restart, and query everything back — again
# byte-identical to the control.
#
# Part 3 (self-chaos drill): `wavesim serve --drill` — admission,
# overload, malformed input, worker panics, orphaned connections, drain,
# a SIGKILLed child, and a warm cache, each phase asserting bit-identity
# against an undisturbed control.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

WAVESIM=${WAVESIM:-target/release/wavesim}
if [ ! -x "$WAVESIM" ]; then
    echo "== building wavesim"
    cargo build --release --bin wavesim
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/serve-smoke.XXXXXX")
SERVER=
cleanup() {
    [ -n "$SERVER" ] && kill -9 "$SERVER" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# Start a server in the background ($1 = state dir, rest = extra flags),
# set $SERVER to its pid and $ADDR to its bound address. `exec` makes $!
# the wavesim process itself, not a subshell wrapping it.
start_server() {
    dir=$1
    shift
    : > "$WORK/ready.jsonl"
    (
        exec "$WAVESIM" serve --addr 127.0.0.1:0 --dir "$dir" --quiet "$@"
    ) > "$WORK/ready.jsonl" 2> "$WORK/server-err.log" &
    SERVER=$!
    i=0
    while [ "$i" -lt 600 ]; do
        if [ -s "$WORK/ready.jsonl" ]; then break; fi
        if ! kill -0 "$SERVER" 2>/dev/null; then
            echo "serve smoke: FAIL — server died before becoming ready"
            cat "$WORK/server-err.log"
            exit 1
        fi
        sleep 0.05 2>/dev/null || sleep 1
        i=$((i + 1))
    done
    ADDR=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$WORK/ready.jsonl" | head -1)
    if [ -z "$ADDR" ]; then
        echo "serve smoke: FAIL — no ready record"
        exit 1
    fi
}

# SIGTERM $SERVER and require a clean drain (exit 0).
drain_server() {
    kill -TERM "$SERVER"
    RC=0
    wait "$SERVER" || RC=$?
    SERVER=
    if [ "$RC" -ne 0 ]; then
        echo "serve smoke: FAIL — drain exit code $RC (want 0)"
        exit 1
    fi
}

echo "== serve + loadgen (12 requests over 3 connections)"
start_server "$WORK/state" --threads 2 --fsync
"$WAVESIM" loadgen --addr "$ADDR" --requests 12 --connections 3 \
    --out "$WORK/control.jsonl" --quiet
n=$(wc -l < "$WORK/control.jsonl")
if [ "$n" -ne 12 ]; then
    echo "serve smoke: FAIL — control run collected $n/12 records"
    exit 1
fi

echo "== SIGTERM drain, restart, query back"
drain_server
start_server "$WORK/state" --threads 2 --fsync
"$WAVESIM" loadgen --addr "$ADDR" --requests 12 --connections 3 \
    --query --out "$WORK/restarted.jsonl" --quiet
if ! diff -u "$WORK/control.jsonl" "$WORK/restarted.jsonl"; then
    echo "serve smoke: FAIL — records after restart differ from control"
    exit 1
fi

# Resubmit the first half of the population: `query` now answers those
# ids from this lifetime's journal lines and the rest from the replayed
# ones, and must still return the control bytes for every id — before
# and after one more drain and restart.
"$WAVESIM" loadgen --addr "$ADDR" --requests 6 --connections 2 \
    --out "$WORK/resubmitted.jsonl" --quiet
"$WAVESIM" loadgen --addr "$ADDR" --requests 12 --connections 3 \
    --query --out "$WORK/requeried.jsonl" --quiet
drain_server
start_server "$WORK/state" --threads 2 --fsync
"$WAVESIM" loadgen --addr "$ADDR" --requests 12 --connections 3 \
    --query --out "$WORK/rereplayed.jsonl" --quiet
drain_server
for f in requeried rereplayed; do
    if ! diff -u "$WORK/control.jsonl" "$WORK/$f.jsonl"; then
        echo "serve smoke: FAIL — $f records after resubmission differ from control"
        exit 1
    fi
done
echo "drain-restart smoke: OK"

echo "== SIGKILL mid-work, journal recovery"
start_server "$WORK/recovery" --threads 1 --fsync
# Submit in the background: the single worker guarantees a backlog, and
# every accept follows the durable journal append, so once the journal
# holds 12 job lines the submissions are the server's obligation even if
# the client dies with it.
"$WAVESIM" loadgen --addr "$ADDR" --requests 12 --connections 1 --quiet &
LOADGEN=$!
i=0
while [ "$i" -lt 600 ]; do
    jobs=$(grep -c '"type":"job"' "$WORK/recovery/journal.jsonl" 2>/dev/null || true)
    if [ "${jobs:-0}" -ge 12 ]; then break; fi
    sleep 0.05 2>/dev/null || sleep 1
    i=$((i + 1))
done
kill -9 "$SERVER" 2>/dev/null || true
wait "$SERVER" 2>/dev/null || true
SERVER=
wait "$LOADGEN" 2>/dev/null || true

start_server "$WORK/recovery" --threads 1 --fsync
"$WAVESIM" loadgen --addr "$ADDR" --requests 12 --connections 1 \
    --query --out "$WORK/recovered.jsonl" --quiet
drain_server
if ! diff -u "$WORK/control.jsonl" "$WORK/recovered.jsonl"; then
    echo "serve smoke: FAIL — records after SIGKILL recovery differ from control"
    exit 1
fi
echo "sigkill-recovery smoke: OK"

echo "== self-chaos drill (wavesim serve --drill)"
if command -v timeout >/dev/null 2>&1; then
    timeout 600 "$WAVESIM" serve --drill --drill-dir "$WORK/drill"
else
    "$WAVESIM" serve --drill --drill-dir "$WORK/drill"
fi
echo "serve drill: OK"
