#!/bin/sh
# Hot-swap + thin-client smoke for CI. hamserve -load DIR serves the newest
# snapshot in DIR and hot-swaps each newer one; langid -server classifies
# stdin through it over the binary protocol. Run once on the engine path
# and once through an in-process fleet (-fleet 2 -scheme by-classes), and
# assert for each:
#   - every stdin line is answered and the accuracy line is printed,
#   - a snapshot moved into DIR is served within ~15 s: answers carry a
#     later model generation,
#   - SIGTERM drains clean with queries == answered.
# The engine run swaps in a model trained with another seed (the engine
# rebuilds its encoders per generation). A fleet coordinator keeps its
# start-up encoders, so the fleet run checks that such a snapshot is
# refused, then swaps in a same-seed model trained on more text.
set -eu

tmp=$(mktemp -d)
trap 'kill "$srv_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
srv_pid=""

go build -o "$tmp/hamserve" ./cmd/hamserve
go build -o "$tmp/langid" ./cmd/langid
go build -o "$tmp/hamgen" ./cmd/hamgen

mkdir "$tmp/stage"
train() { # $1 name, $2 seed, $3 chars per language
    "$tmp/langid" -train "$3" -seed "$2" -save "$tmp/stage/$1.hds" </dev/null >/dev/null 2>"$tmp/train.err" ||
        { echo "swapsmoke: training $1 failed" >&2; cat "$tmp/train.err" >&2; exit 1; }
}
train a 1 2000
train b 2 2000
train c 1 3000

for l in english french german italian spanish; do
    "$tmp/hamgen" -lang "$l" -sentences 20 -seed 9
done >"$tmp/input.txt"
lines=$(wc -l <"$tmp/input.txt")

publish() { # $1 model, $2 dir: copy, then rename into place atomically
    cp "$tmp/stage/$1.hds" "$tmp/$1.part"
    mv "$tmp/$1.part" "$2/$1.hds"
}

# classify $1 $2: classify the input through the server at $1; prints the
# newest generation that answered. Every line must be answered.
classify() {
    "$tmp/langid" -server "$1" <"$tmp/input.txt" >"$tmp/answers.txt" 2>"$tmp/client.err" ||
        { echo "swapsmoke: $2: langid -server failed" >&2; cat "$tmp/client.err" >&2; return 1; }
    got=$(wc -l <"$tmp/answers.txt")
    unanswered=$(grep -c '^?' "$tmp/answers.txt") || unanswered=0
    if [ "$got" -ne "$lines" ] || [ "$unanswered" -ne 0 ]; then
        echo "swapsmoke: $2: $got of $lines lines back, $unanswered unanswered" >&2
        cat "$tmp/client.err" >&2
        return 1
    fi
    grep -q '^accuracy: ' "$tmp/client.err" ||
        { echo "swapsmoke: $2: no accuracy line" >&2; cat "$tmp/client.err" >&2; return 1; }
    sed -n 's/^generation \([0-9][0-9]*\):.*/\1/p' "$tmp/client.err" | sort -n | tail -1
}

# run $1 $2 $3 [flags...]: serve a fresh DIR holding model $2, check the
# thin client, publish model $3 and wait for a later generation, drain.
run() {
    name=$1 first=$2 next=$3
    shift 3
    dir="$tmp/models-$name"
    mkdir "$dir"
    publish "$first" "$dir"
    "$tmp/hamserve" -load "$dir" -listen 127.0.0.1:0 -http "" "$@" \
        >"$tmp/serve.out" 2>"$tmp/serve.err" &
    srv_pid=$!
    addr=""
    for i in $(seq 1 100); do
        addr=$(sed -n 's/^listening binary=//p' "$tmp/serve.out")
        [ -n "$addr" ] && break
        kill -0 "$srv_pid" 2>/dev/null ||
            { echo "swapsmoke: $name: hamserve died during startup" >&2; cat "$tmp/serve.err" >&2; exit 1; }
        sleep 0.2
    done
    [ -n "$addr" ] || { echo "swapsmoke: $name: hamserve never listened" >&2; exit 1; }

    gen0=$(classify "$addr" "$name") || exit 1
    acc=$(grep '^accuracy: ' "$tmp/client.err")
    echo "swapsmoke: $name: $lines lines answered by generation $gen0, $acc"

    if [ "$name" = fleet ]; then
        # Another seed means another item memory: the fleet must refuse it.
        publish b "$dir"
        for i in $(seq 1 75); do
            grep -q "swap-failed $dir/b.hds" "$tmp/serve.err" && break
            sleep 0.2
        done
        grep -q "swap-failed $dir/b.hds" "$tmp/serve.err" ||
            { echo "swapsmoke: $name: fleet did not refuse a snapshot with another seed" >&2; cat "$tmp/serve.err" >&2; exit 1; }
        echo "swapsmoke: $name: refused a snapshot with another seed"
    fi

    publish "$next" "$dir"
    gen=$gen0
    for i in $(seq 1 30); do
        gen=$(classify "$addr" "$name") || exit 1
        [ "$gen" -gt "$gen0" ] && break
        sleep 0.5
    done
    if [ "$gen" -le "$gen0" ]; then
        echo "swapsmoke: $name: still answering at generation $gen after publishing $next.hds" >&2
        cat "$tmp/serve.err" >&2
        exit 1
    fi
    echo "swapsmoke: $name: hot-swapped to generation $gen, every line answered"

    kill -TERM "$srv_pid"
    rc=0
    wait "$srv_pid" || rc=$?
    srv_pid=""
    if [ "$rc" -ne 0 ]; then
        echo "swapsmoke: $name: hamserve exited $rc after SIGTERM" >&2
        cat "$tmp/serve.err" >&2
        exit 1
    fi
    queries=$(sed -n 's/.*drained clean:.*[^0-9]\([0-9][0-9]*\) queries.*/\1/p' "$tmp/serve.err")
    answered=$(sed -n 's/.*drained clean:.*[^0-9]\([0-9][0-9]*\) answered.*/\1/p' "$tmp/serve.err")
    if [ -z "$queries" ] || [ "$queries" != "$answered" ]; then
        echo "swapsmoke: $name: accounting mismatch: queries=$queries answered=$answered" >&2
        cat "$tmp/serve.err" >&2
        exit 1
    fi
    echo "swapsmoke: $name: drained clean: $queries queries accepted, $answered answered"
}

run engine a b
run fleet a c -fleet 2 -scheme by-classes
