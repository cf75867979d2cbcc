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
# kernel suite plus the cascaded-search harness (single-core qps, stage-1
# hit-rate, widen-rate and the mismatch audit on the trained langid
# workload), the remote-fleet chaos soak (a coordinator scatter-gathering
# over real TCP to replica servers with one killed and one blackholed
# mid-run) and the open-loop network harness (binary and HTTP/JSON wire
# protocols at increasing offered load with zipfian keys and a deliberate
# overload point, server and generator shed counted apart; each point is
# the median-p50 run of three, each on a fresh server) and APPEND the
# report as a new trajectory entry. Earlier entries pass through untouched,
# the seed's num_cpu:1 baseline and the sections of retired harnesses
# included, so regressions show up as diffs, never as overwrites.
# End-to-end serving throughput and latency on the paper's query are
# e2ebench's to measure (bash e2ebench/run.sh; see e2ebench/README.md).
bench:
	$(GO) run ./cmd/hambench -cascade -remotefleet -net -json BENCH.json

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
# race-enabled tests, a guard that every -run alternative and -fuzz target
# below still matches a test (go test passes a pattern that matches
# nothing), a full
# (non-short) race pass over the concurrency-heavy packages (sharded kernels, serve
# engine incl. hot swap, the scatter-gather replica fleet incl. its chaos
# soak — one replica crashed, one stalled, and both at once under 8
# concurrent askers —, robustness stack, snapshot store and registry), the
# train-while-serve learner (striped ingest, phased reconcile, offline
# bit-identity) including its learn-reconcile-swap soak — concurrent search
# + ingest with >=3 hot swaps, zero drops and generation monotonicity —, a
# short chaos smoke driving the supervisor path and the fleet's
# degraded-mode path under seeded faults, 20 race-enabled repeats of the
# serve engine's swap, drain, batching and admission-bound tests (a worker
# loop that starves control goroutines or stops coalescing fails here
# instead of flaking), the model persistence gates (train→save→load round
# trip, decoder corruption matrix, a fuzz smoke over the snapshot decoder),
# the kernel, range-distance, cascade and fleet-equivalence tests under
# BOTH popcount kernels (generic csa16 and GOAMD64=v3 popcnt8 —
# bit-identity must hold on either build path, and the fleet's
# scatter-gather reduction — in-process and over loopback to remote
# replicas fed packed query words, under both schemes — must stay
# bit-identical to the single-engine scan on both), a kernel and fleet-ask
# benchmark smoke pass, and a serve-path benchmark smoke so the engine
# can't silently rot, a fuzz smoke over the network frame decoder, a fuzz
# smoke holding the n-gram encoder kernel bit-identical to its NGram + Add
# + Majority reference and one holding AccumulateText's counts — streamed or
# counted per distinct gram — equal to one Add per gram, the golden digests
# of every experiment's quick-protocol tables (a kernel change that moves a
# paper number fails here, naming the figure), the remote-fleet smoke (a coordinator
# scatter-gathering over TCP to real encoder-less hamserve -replica
# subprocesses, one SIGKILLed mid-stream, every request still answered
# with the lost partition certified as degraded coverage), the hot-swap
# smoke (hamserve -load DIR on the engine and on an in-process fleet,
# langid -server as the stdin client, a newer snapshot served within
# ~15 s, SIGTERM drain with every query answered), and last the
# network-serving smoke (hamserve booted on loopback, hamload over both
# wire protocols, zero server and zero generator shed, SIGTERM drain with
# every accepted request answered): make stops at the first failing step,
# so the fleet smokes run before it.
# The 'Chaos|FleetHarness' race pass runs the serve engine's chaos tests,
# TestChaosSoakShort (the hambench -chaos soak, small) and
# TestRemoteFleetHarnessShort: the in-process remote-fleet soak with a kill,
# a blackhole, bit-identity and leak accounting.
ci: fmt-check vet build race
	sh scripts/runguard.sh
	$(GO) test -race ./internal/core ./internal/serve ./internal/assoc ./internal/fault ./internal/fleet ./internal/experiments ./internal/store ./internal/netserve ./internal/learn
	$(GO) test -race -short -run 'Chaos|FleetHarness' ./internal/serve ./internal/perf
	$(GO) test -race -count 20 -run 'TestSwapRacesDrain|TestSwapUnderChaosLoad|TestEngineMicroBatches|TestQueueIsAdmissionBound' ./internal/serve
	$(GO) test -race -run 'TestTrainWhileServeSoak' ./internal/learn
	$(GO) test -run 'TestTrainSaveLoadGate|TestDecodeRejects|TestDecodeGiantDeclaredLengths' ./internal/store
	$(GO) test -run xxx -fuzz FuzzDecodeSnapshot -fuzztime 5s ./internal/store
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/netserve
	$(GO) test -run xxx -fuzz FuzzEncodeText -fuzztime 5s ./internal/encoder
	$(GO) test -run xxx -fuzz FuzzAccumulateText -fuzztime 5s ./internal/encoder
	$(GO) test -run 'TestQuickProtocolDigests' ./internal/experiments
	GOAMD64=v1 $(GO) test -run 'Kernel|RangeDistances|Cascade|BitIdentical|Degraded' ./internal/core ./internal/assoc ./internal/fleet ./internal/netserve
	GOAMD64=v3 $(GO) test -run 'Kernel|RangeDistances|Cascade|BitIdentical|Degraded' ./internal/core ./internal/assoc ./internal/fleet ./internal/netserve
	$(GO) test -run xxx -bench 'Encode|Distance|Accumulate|Cascade|FleetAsk' -benchtime 10x -benchmem ./...
	$(GO) test -run xxx -bench Serve -benchtime 1x ./internal/serve
	sh scripts/remotefleet-smoke.sh
	sh scripts/swapsmoke.sh
	sh scripts/netsmoke.sh
