#!/bin/sh
# Remote-fleet smoke for CI: a coordinator scatter-gathering over the wire
# to real hamserve -replica subprocesses, with one replica SIGKILLed
# mid-stream. Asserts the replicas are encoder-less (text sent straight to
# one is refused) and that the process-level fault-tolerance contract held:
#   - the load run saw zero transport errors (every request answered,
#     degraded answers are still answers),
#   - the coordinator's /statsz shows the lost partition as erasures and
#     degraded answers — coverage loss was detected and certified, not
#     silently absorbed,
#   - SIGTERM drains clean with queries == answered.
# The in-process version of this soak (plus bit-identical and leak checks)
# is TestRemoteFleetHarnessShort in internal/perf, which CI runs under -race.
set -eu

tmp=$(mktemp -d)
trap 'kill "$r0_pid" "$r1_pid" "$coord_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
r0_pid=""; r1_pid=""; coord_pid=""

go build -o "$tmp/hamserve" ./cmd/hamserve
go build -o "$tmp/hamload" ./cmd/hamload
go build -o "$tmp/langid" ./cmd/langid

# One shared snapshot: every replica slices its own partition from it and
# the coordinator keeps a copy for partition geometry, labels and reduce.
"$tmp/langid" -train 2000 -save "$tmp/model.ham" </dev/null >/dev/null 2>"$tmp/train.err" ||
    { echo "remotefleet-smoke: training failed" >&2; cat "$tmp/train.err" >&2; exit 1; }

start_replica() { # $1 partition, $2 out-prefix
    "$tmp/hamserve" -replica -partition "$1" -partitions 2 \
        -load "$tmp/model.ham" -listen 127.0.0.1:0 -http "" \
        >"$tmp/$2.out" 2>"$tmp/$2.err" &
}
wait_addr() { # $1 out-prefix, $2 pid
    for i in $(seq 1 100); do
        addr=$(sed -n 's/^listening binary=//p' "$tmp/$1.out" 2>/dev/null)
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        kill -0 "$2" 2>/dev/null ||
            { echo "remotefleet-smoke: $1 died during startup" >&2; cat "$tmp/$1.err" >&2; return 1; }
        sleep 0.2
    done
    echo "remotefleet-smoke: $1 never listened" >&2
    return 1
}

start_replica 0 replica0; r0_pid=$!
start_replica 1 replica1; r1_pid=$!
r0_addr=$(wait_addr replica0 "$r0_pid")
r1_addr=$(wait_addr replica1 "$r1_pid")
echo "remotefleet-smoke: replicas up (p0=$r0_addr p1=$r1_addr)"

# Replicas hold no encoder (the coordinator encodes each query once and
# ships only packed query words): text sent straight to one is refused,
# never classified.
"$tmp/hamload" -addr "$r0_addr" -protocol binary -qps 50 -duration 500ms \
    -json >"$tmp/replica-text.json" 2>"$tmp/replica-text.err" ||
    { echo "remotefleet-smoke: hamload against a replica failed" >&2; cat "$tmp/replica-text.err" >&2; exit 1; }
python3 - "$tmp/replica-text.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))[0]
assert r["requests"] > 0, "no text requests reached the replica"
assert r["error_rate"] == 1, f"replica classified text (error rate {r['error_rate']}): it must not encode"
print(f"remotefleet-smoke: replica refused all {r['requests']} text queries (no encoder)")
EOF

"$tmp/hamserve" -remote "$r0_addr,$r1_addr" -partitions 2 \
    -load "$tmp/model.ham" -listen 127.0.0.1:0 -http 127.0.0.1:0 \
    >"$tmp/coord.out" 2>"$tmp/coord.err" &
coord_pid=$!
for i in $(seq 1 100); do
    n=$(grep -c '^listening' "$tmp/coord.out" 2>/dev/null) || n=0
    [ "$n" -ge 2 ] && break
    kill -0 "$coord_pid" 2>/dev/null ||
        { echo "remotefleet-smoke: coordinator died during startup" >&2; cat "$tmp/coord.err" >&2; exit 1; }
    sleep 0.2
done
coord_addr=$(sed -n 's/^listening binary=//p' "$tmp/coord.out")
coord_http=$(sed -n 's/^listening http=//p' "$tmp/coord.out")
echo "remotefleet-smoke: coordinator up (binary=$coord_addr http=$coord_http)"

# Drive load through the coordinator and SIGKILL replica 1 mid-stream:
# partition 1 goes dark, and every request must still be answered —
# degraded, certified, but answered.
"$tmp/hamload" -addr "$coord_addr" -protocol binary -qps 400 -duration 3s \
    -json >"$tmp/load.json" 2>"$tmp/load.err" &
load_pid=$!
sleep 1
kill -9 "$r1_pid"
echo "remotefleet-smoke: replica 1 SIGKILLed mid-stream"
rc=0
wait "$load_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "remotefleet-smoke: hamload exited $rc" >&2
    cat "$tmp/load.err" >&2
    exit 1
fi

python3 - "$tmp/load.json" <<'EOF'
import json, sys
results = json.load(open(sys.argv[1]))
assert len(results) == 1, f"expected 1 load point, got {len(results)}"
r = results[0]
assert r["requests"] > 0, "no requests dispatched"
assert r["error_rate"] == 0, f"error rate {r['error_rate']}: requests went unanswered after the kill"
assert r["shed_rate"] == 0, f"shed rate {r['shed_rate']}"
print(f"remotefleet-smoke: {r['requests']} requests through the kill, "
      f"{r['qps']:.0f} qps, p99 {r['p99_us']:.0f}us, 0 errors, 0 shed")
EOF

# The coordinator must have noticed: the dead partition shows as erasures
# and degraded (still-correct-about-what-they-cover) answers on /statsz.
curl -sf "http://$coord_http/statsz" >"$tmp/statsz.json"
python3 - "$tmp/statsz.json" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
fl = st["backend"]["Fleet"]
assert fl["Answered"] > 0, "fleet answered nothing"
assert fl["Degraded"] > 0, "replica killed but no degraded answers recorded"
assert fl["Erasures"] > 0, "replica killed but no erasures recorded"
reps = st["backend"]["Replicas"]
assert any(r["Remote"] and not r["Connected"] for r in reps), \
    "killed replica still reported connected"
print(f"remotefleet-smoke: coordinator saw it: {fl['Answered']} answered, "
      f"{fl['Degraded']} degraded, {fl['Erasures']} erasures")
EOF

# Graceful shutdown: SIGTERM must drain the coordinator clean.
kill -TERM "$coord_pid"
rc=0
wait "$coord_pid" || rc=$?
coord_pid=""
if [ "$rc" -ne 0 ]; then
    echo "remotefleet-smoke: coordinator exited $rc after SIGTERM" >&2
    cat "$tmp/coord.err" >&2
    exit 1
fi
grep -q 'drained clean' "$tmp/coord.err" ||
    { echo "remotefleet-smoke: no clean-drain report" >&2; cat "$tmp/coord.err" >&2; exit 1; }
queries=$(sed -n 's/.*drained clean:.*[^0-9]\([0-9][0-9]*\) queries.*/\1/p' "$tmp/coord.err")
answered=$(sed -n 's/.*drained clean:.*[^0-9]\([0-9][0-9]*\) answered.*/\1/p' "$tmp/coord.err")
if [ -z "$queries" ] || [ "$queries" != "$answered" ]; then
    echo "remotefleet-smoke: accounting mismatch: queries=$queries answered=$answered" >&2
    cat "$tmp/coord.err" >&2
    exit 1
fi
echo "remotefleet-smoke: drained clean: $queries queries accepted, $answered answered"
