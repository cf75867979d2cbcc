# Build, test and benchmark entry points for the hdam reproduction.

GO ?= go

.PHONY: all build vet test race bench bench-kernels bench-json fmt-check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Regenerate the benchmark trajectory file checked in at BENCH.json: run the
# kernel suite plus the closed-loop serve load harness, the cascaded-search
# harness (single-core qps, stage-1 hit-rate, widen-rate and the mismatch
# audit on the trained langid workload), the scatter-gather fleet harness
# (healthy and one-stall-one-crash points with qps, latency percentiles and
# the degraded-answer-rate), the remote-fleet chaos soak (a coordinator
# scatter-gathering over real TCP to replica servers with one killed and
# one blackholed mid-run), the open-loop network harness (binary and
# HTTP/JSON wire protocols at increasing offered load with zipfian keys and
# a deliberate overload point) and the train-while-serve harness (search
# qps/latency with ingest off vs on, reconcile latency, hot-swap count and
# the new-language accuracy trajectory, recorded as learn/*) and APPEND the
# report as a new trajectory entry — the seed's num_cpu:1 baseline entry is
# kept, so regressions show up as diffs, never as overwrites.
bench:
	$(GO) run ./cmd/hambench -serve -cascade -fleet -remotefleet -net -learn -json BENCH.json

# bench-json is the historical name for the same regeneration.
bench-json: bench

# Hot-path kernels with allocation accounting; the accumulator, distance and
# cascade kernels must report 0 allocs/op.
bench-kernels:
	$(GO) test -run xxx -bench 'Encode|Distance|Accumulate|Cascade' -benchmem ./...

# Fails if any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Everything CI runs, in order: formatting, static checks, build,
# race-enabled tests, a full (non-short) race pass over the
# concurrency-heavy packages (sharded kernels, serve engine incl. hot swap,
# the scatter-gather replica fleet incl. its chaos soak, robustness stack,
# snapshot store and registry), the train-while-serve learner (striped
# ingest, phased reconcile, offline bit-identity) including its
# learn-reconcile-swap soak — concurrent search + ingest with >=3 hot
# swaps, zero drops and generation monotonicity — plus the short learn
# harness smoke, a short chaos smoke driving the
# supervisor/hedging paths and the fleet's degraded-mode path under seeded
# faults, the model persistence gates (train→save→load round trip, decoder
# corruption matrix, a fuzz smoke over the snapshot decoder), the kernel,
# cascade and fleet-equivalence tests under BOTH popcount kernels (generic
# csa16 and GOAMD64=v3 popcnt8 — bit-identity must hold on either build
# path, and the fleet's scatter-gather reduction — in-process and over
# loopback to remote replicas fed packed query words, under both schemes —
# must stay bit-identical to the single-engine scan on both), a kernel
# benchmark smoke pass, and a
# serve-path benchmark smoke so the engine can't silently rot, a fuzz
# smoke over the network frame decoder, a fuzz smoke holding the n-gram
# encoder kernel bit-identical to its NGram + Add + Majority reference,
# the network-serving smoke
# (hamserve booted on loopback, hamload over both wire protocols, SIGTERM
# drain with every accepted request answered), and the remote-fleet smoke
# (a coordinator scatter-gathering over TCP to real encoder-less hamserve
# -replica subprocesses, one SIGKILLed mid-stream, every request still answered
# with the lost partition certified as degraded coverage). The 'Chaos|
# FleetHarness' race pass also runs TestRemoteFleetHarnessShort: the
# in-process remote-fleet soak with a kill, a blackhole, bit-identity and
# leak accounting.
ci: fmt-check vet build race
	$(GO) test -race ./internal/core ./internal/serve ./internal/assoc ./internal/fault ./internal/fleet ./internal/experiments ./internal/store ./internal/netserve ./internal/learn
	$(GO) test -race -short -run 'Chaos|FleetHarness' ./internal/serve ./internal/perf
	$(GO) test -race -run 'TestTrainWhileServeSoak' ./internal/learn
	$(GO) test -race -short -run 'TestLearnHarnessShort' ./internal/perf
	$(GO) test -run 'TestTrainSaveLoadGate|TestDecodeRejects|TestDecodeGiantDeclaredLengths' ./internal/store
	$(GO) test -run xxx -fuzz FuzzDecodeSnapshot -fuzztime 5s ./internal/store
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/netserve
	$(GO) test -run xxx -fuzz FuzzEncodeText -fuzztime 5s ./internal/encoder
	GOAMD64=v1 $(GO) test -run 'Kernel|RowDistance|Cascade|BitIdentical|Degraded' ./internal/core ./internal/assoc ./internal/fleet ./internal/netserve
	GOAMD64=v3 $(GO) test -run 'Kernel|RowDistance|Cascade|BitIdentical|Degraded' ./internal/core ./internal/assoc ./internal/fleet ./internal/netserve
	$(GO) test -run xxx -bench 'Encode|Distance|Accumulate|Cascade' -benchtime 10x -benchmem ./...
	$(GO) test -run xxx -bench Serve -benchtime 1x ./internal/serve
	sh scripts/netsmoke.sh
	sh scripts/remotefleet-smoke.sh
