#!/bin/sh
# Network serving smoke for CI: boot hamserve on ephemeral loopback ports,
# drive a short hamload run over BOTH wire protocols, then SIGTERM the
# server and assert the drain guarantee held end to end:
#   - the load run itself saw zero transport errors, zero server sheds and
#     zero generator sheds (arrivals hamload never sent),
#   - the server's final accounting shows every accepted query answered,
#   - the process exited 0 ("drained clean").
# A failed load check still drains the server and prints its "drained
# clean" line, whose shed counts name the layer that turned load away
# (binary in-flight cap, HTTP in-flight cap, engine admission), before the
# script exits non-zero.
# In-process goroutine-leak accounting for the same drain path is asserted
# by TestDrainUnderLoad in internal/netserve, which CI runs under -race.
set -eu

tmp=$(mktemp -d)
trap 'kill "$srv_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/hamserve" ./cmd/hamserve
go build -o "$tmp/hamload" ./cmd/hamload

"$tmp/hamserve" -listen 127.0.0.1:0 -http 127.0.0.1:0 -train 2000 \
    >"$tmp/serve.out" 2>"$tmp/serve.err" &
srv_pid=$!

# Wait for both listeners to come up (training delays them a moment).
for i in $(seq 1 100); do
    n=$(grep -c '^listening' "$tmp/serve.out" 2>/dev/null) || n=0
    if [ "$n" -ge 2 ]; then
        break
    fi
    if ! kill -0 "$srv_pid" 2>/dev/null; then
        echo "netsmoke: hamserve died during startup" >&2
        cat "$tmp/serve.err" >&2
        exit 1
    fi
    sleep 0.2
done
bin_addr=$(sed -n 's/^listening binary=//p' "$tmp/serve.out")
http_addr=$(sed -n 's/^listening http=//p' "$tmp/serve.out")
if [ -z "$bin_addr" ] || [ -z "$http_addr" ]; then
    echo "netsmoke: listeners never came up" >&2
    cat "$tmp/serve.out" "$tmp/serve.err" >&2
    exit 1
fi
echo "netsmoke: hamserve up (binary=$bin_addr http=$http_addr)"

load_rc=0
"$tmp/hamload" -addr "$bin_addr" -http "$http_addr" -protocol both \
    -qps 1000 -duration 1s -json >"$tmp/load.json" 2>"$tmp/load.err" || load_rc=$?
if [ "$load_rc" -ne 0 ]; then
    echo "netsmoke: hamload exited $load_rc" >&2
    cat "$tmp/load.err" >&2
fi

# Every load-side request must have been sent and answered OK: no server
# sheds, no generator sheds, no errors.
[ "$load_rc" -ne 0 ] || python3 - "$tmp/load.json" <<'EOF' || load_rc=$?
import json, sys
results = json.load(open(sys.argv[1]))
assert len(results) == 2, f"expected 2 protocol points, got {len(results)}"
for r in results:
    assert r["requests"] > 0, f"{r['name']}: no requests dispatched"
    assert r["shed_rate"] == 0, f"{r['name']}: server shed rate {r['shed_rate']}"
    assert r["generator_shed_rate"] == 0, f"{r['name']}: generator shed rate {r['generator_shed_rate']}"
    assert r["error_rate"] == 0, f"{r['name']}: error rate {r['error_rate']}"
    assert r["qps"] > 0 and r["p99_us"] > 0, f"{r['name']}: implausible {r}"
    print(f"netsmoke: {r['name']}: {r['requests']} requests, "
          f"{r['qps']:.0f} qps, p99 {r['p99_us']:.0f}us, 0 shed (server or generator), 0 errors")
EOF

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$srv_pid"
rc=0
wait "$srv_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "netsmoke: hamserve exited $rc after SIGTERM" >&2
    cat "$tmp/serve.err" >&2
    exit 1
fi
drained=$(grep 'drained clean' "$tmp/serve.err") || {
    echo "netsmoke: no clean-drain report" >&2
    cat "$tmp/serve.err" >&2
    exit 1
}
echo "netsmoke: server ${drained#hamserve: }"
# The server's own accounting: queries accepted == queries answered.
queries=$(sed -n 's/.*drained clean:.*[^0-9]\([0-9][0-9]*\) queries.*/\1/p' "$tmp/serve.err")
answered=$(sed -n 's/.*drained clean:.*[^0-9]\([0-9][0-9]*\) answered.*/\1/p' "$tmp/serve.err")
if [ -z "$queries" ] || [ "$queries" != "$answered" ]; then
    echo "netsmoke: accounting mismatch: queries=$queries answered=$answered" >&2
    cat "$tmp/serve.err" >&2
    exit 1
fi
if [ "$load_rc" -ne 0 ]; then
    echo "netsmoke: load check failed" >&2
    exit 1
fi
echo "netsmoke: drained clean: $queries queries accepted, $answered answered"
