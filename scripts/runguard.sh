#!/bin/sh
# Fails when a -run or -fuzz pattern in `make ci` matches no test. `go test
# -run X` passes with "[no tests to run]" when X names nothing, and `go test
# -fuzz X` passes with "no fuzz tests to fuzz", so a gate test or fuzz
# target that is renamed or moved would silently stop gating. Every
# |-separated alternative of every -run pattern in the ci recipe must be
# listed by `go test -list` in at least one of that step's packages, and
# every -fuzz pattern must list a fuzz target. `-run xxx`, the idiom for
# "benchmarks or fuzzing only", is exempt.
set -eu

steps=$(make -n ci | grep -- ' -run ' | grep -v -- " -run xxx ") || {
    echo "runguard: no -run steps found in make ci" >&2
    exit 1
}
fuzzsteps=$(make -n ci | grep -- ' -fuzz ') || fuzzsteps=
misses=0
checked=0
while IFS= read -r step; do
    pat=$(printf '%s\n' "$step" | sed -n "s/.* -run '\([^']*\)'.*/\1/p")
    [ -n "$pat" ] || pat=$(printf '%s\n' "$step" | sed -n 's/.* -run \([^ ]*\).*/\1/p')
    pkgs=$(printf '%s\n' "$step" | tr ' ' '\n' | grep '^\./' | tr '\n' ' ')
    for alt in $(printf '%s\n' "$pat" | tr '|' ' '); do
        checked=$((checked + 1))
        if ! go test -list "$alt" $pkgs | grep -Eq '^(Test|Example|Fuzz)'; then
            echo "runguard: -run alternative '$alt' matches no test in $pkgs" >&2
            misses=$((misses + 1))
        fi
    done
done <<STEPS
$steps
STEPS
while IFS= read -r step; do
    [ -n "$step" ] || continue
    pat=$(printf '%s\n' "$step" | sed -n 's/.* -fuzz \([^ ]*\).*/\1/p')
    pkgs=$(printf '%s\n' "$step" | tr ' ' '\n' | grep '^\./' | tr '\n' ' ')
    checked=$((checked + 1))
    if ! go test -list "$pat" $pkgs | grep -Eq '^Fuzz'; then
        echo "runguard: -fuzz pattern '$pat' matches no fuzz target in $pkgs" >&2
        misses=$((misses + 1))
    fi
done <<STEPS
$fuzzsteps
STEPS
if [ "$misses" -ne 0 ]; then
    echo "runguard: $misses of $checked -run and -fuzz patterns match nothing" >&2
    exit 1
fi
echo "runguard: all $checked -run and -fuzz patterns in make ci match a test"
