#!/bin/sh
# Smoke test for the sharded fleet (DESIGN.md section 16): start a
# router over 4 supervised worker processes, spread sessions across the
# shards, then SIGKILL one worker mid-round and assert that
#   - clients only ever see structured, retryable protocol errors
#     (never a hung or torn connection),
#   - the supervisor restarts the dead worker in place,
#   - the restarted worker resumes its sessions from its journal
#     directory with bit-identical candidate signatures,
#   - the restarted worker inherits none of the router's sockets.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

dune build bin/dse.exe
dse=_build/default/bin/dse.exe

work=$(mktemp -d)
sock="$work/router.sock"
fleet_dir="$work/fleet"
trap 'kill "$fleet" 2>/dev/null || true; rm -rf "$work"' EXIT

"$dse" fleet serve -n 4 --socket "$sock" --dir "$fleet_dir" \
    > "$work/fleet.log" 2>&1 &
fleet=$!

i=0
until "$dse" client --socket "$sock" '{"op":"healthz"}' 2>/dev/null \
        | grep -q '"status":"ok"'; do
    i=$((i + 1))
    if [ "$i" -gt 150 ]; then
        echo "FAIL: fleet did not report healthy" >&2
        cat "$work/fleet.log" >&2
        exit 1
    fi
    sleep 0.2
done

# Spread 32 sessions over the ring and bind one acknowledged decision
# in each: 32 over 4 shards makes an empty shard vanishingly unlikely,
# and `stats` verifies the victim actually holds sessions before the
# kill.  The sessions that land on the victim exercise journal resume;
# the rest are controls.
sessions=$(seq 0 31 | sed 's/^/fs/')
for s in $sessions; do
    "$dse" client --socket "$sock" \
        "{\"op\":\"open\",\"session\":\"$s\",\"layer\":\"idct\"}" \
        "{\"op\":\"set\",\"session\":\"$s\",\"name\":\"Word Size\",\"value\":16}" \
        >> "$work/open.log"
done
if grep -q '"ok":false' "$work/open.log"; then
    echo "FAIL: open round had failures:" >&2
    grep '"ok":false' "$work/open.log" >&2
    exit 1
fi

"$dse" client --socket "$sock" '{"op":"stats"}' > "$work/stats.json"
if ! grep -q '"sessions":32' "$work/stats.json"; then
    echo "FAIL: merged stats do not show all 32 sessions:" >&2
    cat "$work/stats.json" >&2
    exit 1
fi

read_signatures() {
    : > "$1"
    for s in $sessions; do
        "$dse" client --socket "$sock" \
            "{\"op\":\"signature\",\"session\":\"$s\"}" \
            | grep -o '"signature":"[0-9a-f]*"' >> "$1" || echo "MISSING $s" >> "$1"
    done
}
read_signatures "$work/sig_before.txt"
if grep -q MISSING "$work/sig_before.txt"; then
    echo "FAIL: could not read all signatures before the kill" >&2
    exit 1
fi

# Mid-round SIGKILL: find the w0 worker process by its socket argv,
# kill it, and keep a round of mixed traffic — alternating one-shot
# requests and whole batches — running across the kill window.  Every
# reply must be either ok or a structured retryable error — anything
# else (torn line, hang, a half-executed batch surfacing as an
# unstructured failure) fails.
victim_pid=$(pgrep -f "fleet worker --socket $fleet_dir/w0.sock" | head -1)
if [ -z "$victim_pid" ]; then
    echo "FAIL: cannot find the w0 worker process" >&2
    exit 1
fi
kill -KILL "$victim_pid"

: > "$work/round.log"
: > "$work/batch.log"
for pass in 1 2 3; do
    for s in $sessions; do
        "$dse" client --socket "$sock" \
            "{\"op\":\"set\",\"session\":\"$s\",\"name\":\"Precision\",\"value\":12}" \
            "{\"op\":\"candidates\",\"session\":\"$s\",\"max\":8}" \
            "{\"op\":\"retract\",\"session\":\"$s\",\"name\":\"Precision\"}" \
            >> "$work/round.log" || true
        # The same mix as one batch: executed under a single slot-lock
        # and a single group commit on the owning shard, so the kill
        # lands while whole batches are in flight.
        "$dse" client --socket "$sock" --batch \
            "{\"op\":\"set\",\"session\":\"$s\",\"name\":\"Precision\",\"value\":12}" \
            "{\"op\":\"candidates\",\"session\":\"$s\",\"max\":8}" \
            "{\"op\":\"retract\",\"session\":\"$s\",\"name\":\"Precision\"}" \
            >> "$work/batch.log" || true
    done
done
bad=$(grep '"ok":false' "$work/round.log" "$work/batch.log" \
    | grep -v -e '"code":"session_unavailable"' -e '"code":"shutting_down"' \
              -e '"code":"rejected"' || true)
if [ -n "$bad" ]; then
    echo "FAIL: kill window produced non-retryable client-visible errors:" >&2
    echo "$bad" >&2
    exit 1
fi
# Batches either fail whole with a retryable code (checked above) or
# come back as one ordered results array — at least the control shards
# must have answered some, and no reply may be a torn prefix.
if ! grep -q '"results":\[' "$work/batch.log"; then
    echo "FAIL: no batch reply carried a results array:" >&2
    tail -5 "$work/batch.log" >&2
    exit 1
fi

# Wait for the supervisor to restart the victim and the fleet to report
# healthy again, then verify the restart was logged and every signature
# (including the victim's resumed sessions) is bit-identical.
i=0
until "$dse" client --socket "$sock" '{"op":"healthz"}' 2>/dev/null \
        | grep -q '"status":"ok"'; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: fleet did not recover after the kill" >&2
        cat "$work/fleet.log" >&2
        exit 1
    fi
    sleep 0.2
done
if ! grep -q 'restarted worker w0' "$work/fleet.log"; then
    echo "FAIL: supervisor did not log the w0 restart:" >&2
    cat "$work/fleet.log" >&2
    exit 1
fi

# The replacement w0 was spawned by the router process while it held its
# listening socket and its client and backend connections; all of them
# are close-on-exec, so the new worker must share no socket with it.
socket_inodes() {
    for link in /proc/"$1"/fd/*; do
        readlink "$link" 2>/dev/null || true
    done | grep '^socket:' | sort -u
}
new_w0=$(pgrep -f "fleet worker --socket $fleet_dir/w0.sock" | head -1)
if [ -z "$new_w0" ]; then
    echo "FAIL: cannot find the restarted w0 worker process" >&2
    exit 1
fi
socket_inodes "$fleet" > "$work/router_sockets.txt"
socket_inodes "$new_w0" > "$work/w0_sockets.txt"
if [ ! -s "$work/router_sockets.txt" ]; then
    echo "FAIL: cannot list the router's sockets under /proc/$fleet/fd" >&2
    exit 1
fi
shared=$(comm -12 "$work/router_sockets.txt" "$work/w0_sockets.txt")
if [ -n "$shared" ]; then
    echo "FAIL: the restarted w0 inherited router sockets:" >&2
    echo "$shared" >&2
    exit 1
fi

read_signatures "$work/sig_after.txt"
if ! cmp -s "$work/sig_before.txt" "$work/sig_after.txt"; then
    echo "FAIL: signatures diverged across the kill/restart:" >&2
    diff "$work/sig_before.txt" "$work/sig_after.txt" >&2 || true
    exit 1
fi

# Merged telemetry still answers across all shards after the restart.
"$dse" client --socket "$sock" '{"op":"metrics"}' > "$work/metrics.json"
for fragment in '"workers":4' '"registries"' '"router"'; do
    if ! grep -q -- "$fragment" "$work/metrics.json"; then
        echo "FAIL: merged metrics missing $fragment" >&2
        exit 1
    fi
done

kill -TERM "$fleet"
wait "$fleet" || true

echo "fleet smoke OK (32 sessions over 4 shards, w0 SIGKILL with batches in flight + resume verified)"
