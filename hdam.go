package hdam

import (
	"io"
	"math/rand/v2"
	"net"
	"time"

	"hdam/internal/aham"
	"hdam/internal/analog"
	"hdam/internal/assoc"
	"hdam/internal/circuit"
	"hdam/internal/core"
	"hdam/internal/dham"
	"hdam/internal/encoder"
	"hdam/internal/fault"
	"hdam/internal/fleet"
	"hdam/internal/hv"
	"hdam/internal/itemmem"
	"hdam/internal/lang"
	"hdam/internal/learn"
	"hdam/internal/netserve"
	"hdam/internal/rham"
	"hdam/internal/serve"
	"hdam/internal/store"
	"hdam/internal/textgen"
)

// Dim is the paper's default hypervector dimensionality (10,000).
const Dim = hv.Dim

// LatinAlphabet is the 27-symbol alphabet of the language application: the
// 26 lower-case Latin letters plus space.
const LatinAlphabet = itemmem.LatinAlphabet

// ---- Hypervector substrate ----

// Vector is a binary hypervector (see internal/hv).
type Vector = hv.Vector

// Accumulator bundles hypervectors by component-wise majority.
type Accumulator = hv.Accumulator

// Mask selects a component subset for sampled distances.
type Mask = hv.Mask

// NewVector returns an all-zero hypervector.
func NewVector(dim int) *Vector { return hv.New(dim) }

// RandomVector returns a hypervector of i.i.d. fair coin flips.
func RandomVector(dim int, rng *rand.Rand) *Vector { return hv.Random(dim, rng) }

// Bind is component-wise XOR: the paper's A ⊕ B association operator.
func Bind(a, b *Vector) *Vector { return hv.Bind(a, b) }

// Bundle combines vectors by component-wise majority (ties broken by seed).
func Bundle(seed uint64, vs ...*Vector) *Vector { return hv.MajorityOf(seed, vs...) }

// Permute rotates the hypervector coordinates by k (the paper's ρ).
func Permute(v *Vector, k int) *Vector { return hv.Permute(v, k) }

// Hamming is the Hamming distance δ — the similarity metric of all HAM
// reasoning.
func Hamming(a, b *Vector) int { return hv.Hamming(a, b) }

// NewAccumulator returns an empty majority accumulator.
func NewAccumulator(dim int, seed uint64) *Accumulator { return hv.NewAccumulator(dim, seed) }

// ---- Item memory and encoding ----

// ItemMemory assigns fixed seed hypervectors to symbols.
type ItemMemory = itemmem.ItemMemory

// Encoder turns text into hypervectors via letter n-grams.
type Encoder = encoder.Encoder

// NewItemMemory returns a deterministic item memory.
func NewItemMemory(dim int, seed uint64) *ItemMemory { return itemmem.New(dim, seed) }

// NewEncoder returns an n-gram text encoder (the paper uses n = 3).
func NewEncoder(im *ItemMemory, n int) *Encoder { return encoder.New(im, n) }

// ---- Associative memory core ----

// Memory holds the learned class hypervectors.
type Memory = core.Memory

// Result is the outcome of one associative search.
type Result = core.Result

// Searcher finds the nearest class the way one hardware design would.
type Searcher = core.Searcher

// NewMemory builds an associative memory from class vectors and labels.
func NewMemory(classes []*Vector, labels []string) (*Memory, error) {
	return core.NewMemory(classes, labels)
}

// NewExactSearcher returns the ideal nearest-Hamming search.
func NewExactSearcher(mem *Memory) Searcher { return assoc.NewExact(mem) }

// NewSampledSearcher returns a search over a component subset (d < D).
func NewSampledSearcher(mem *Memory, mask *Mask) Searcher { return assoc.NewSampled(mem, mask) }

// NewNoisySearcher returns a search with e error bits injected into every
// distance computation (the paper's Fig. 1 robustness study).
func NewNoisySearcher(mem *Memory, errorBits int, rng *rand.Rand) Searcher {
	return assoc.NewNoisy(mem, errorBits, rng)
}

// CascadeSearcher is the two-stage cascaded searcher: stage 1 scans one
// contiguous sampled slice of every class row (the paper's d-sampling,
// §III-A1, restricted to a dense word-aligned slice), stage 2 rescores only
// the shortlisted rows at full D, and an error-model certificate widens to
// the exact scan whenever the shortlist cannot be trusted — so answers are
// always bit-identical to the exact search.
type CascadeSearcher = assoc.Cascade

// CascadeConfig tunes the cascade's slice geometry, shortlist radius and
// certificate bound; the zero value selects error-model defaults.
type CascadeConfig = assoc.CascadeConfig

// CascadeStats is a snapshot of a cascade's search counters.
type CascadeStats = assoc.CascadeStats

// DefaultCascadeSliceWords is the default stage-1 slice width in packed
// 64-bit words.
const DefaultCascadeSliceWords = assoc.DefaultSliceWords

// NewCascadeSearcher builds the cascaded searcher over a trained memory.
func NewCascadeSearcher(mem *Memory, cfg CascadeConfig) (*CascadeSearcher, error) {
	return assoc.NewCascade(mem, cfg)
}

// KernelName identifies the popcount distance kernel this build dispatches
// to (build-tag selected; all kernels are bit-identical).
const KernelName = core.KernelName

// ---- Fault injection and resilient search ----

// FaultInjector is one deterministic fault process (see internal/fault for
// the taxonomy: StuckAtFault, TransientFault, QueryPathFault, CounterFault,
// DischargeFault).
type FaultInjector = fault.Injector

// StuckAtFault models permanently defective storage cells.
type StuckAtFault = fault.StuckAt

// TransientFault models soft-error bit flips in stored class vectors.
type TransientFault = fault.Transient

// QueryPathFault models common-mode faults on the query path.
type QueryPathFault = fault.QueryPath

// CounterFault models D-HAM counter upsets and finite counter width.
type CounterFault = fault.Counter

// DischargeFault models R-HAM/A-HAM discharge-variation misreads.
type DischargeFault = fault.Discharge

// NewQueryPathFault draws the fixed common-mode defect mask for queries of
// the given dimensionality.
func NewQueryPathFault(dim, bits int, seed uint64) (*QueryPathFault, error) {
	return fault.NewQueryPath(dim, bits, seed)
}

// FaultMemory applies storage-level injectors to a memory, returning the
// faulted copy (the original is untouched).
func FaultMemory(mem *Memory, injs ...FaultInjector) (*Memory, error) {
	return fault.Apply(mem, injs...)
}

// WrapFaulty wraps a searcher with search-path injectors (query-path,
// counter, discharge); storage faults belong in FaultMemory.
func WrapFaulty(s Searcher, injs ...FaultInjector) (Searcher, error) {
	return fault.Wrap(s, injs...)
}

// ResilientStage is one rung of a resilient escalation chain.
type ResilientStage = assoc.Stage

// ResilientConfig tunes the confidence gate, health tracking and circuit
// breaking of a resilient pipeline.
type ResilientConfig = assoc.ResilientConfig

// Resilient is the confidence-gated escalating searcher: low-margin answers
// escalate along the chain, per-stage health is tracked by an EWMA misread
// estimate, and unhealthy stages circuit-break until probes show recovery.
type Resilient = assoc.Resilient

// StageStats is a health snapshot of one resilient stage.
type StageStats = assoc.StageStats

// NewResilient builds a resilient pipeline over an escalation chain ordered
// cheapest first (e.g. A-HAM → R-HAM → D-HAM → exact).
func NewResilient(stages []ResilientStage, cfg ResilientConfig) (*Resilient, error) {
	return assoc.NewResilient(stages, cfg)
}

// ---- The three HAM designs ----

// DHAMConfig configures the digital design (§III-A).
type DHAMConfig = dham.Config

// RHAMConfig configures the resistive design (§III-C).
type RHAMConfig = rham.Config

// AHAMConfig configures the analog design (§III-D).
type AHAMConfig = aham.Config

// DHAM is the digital HAM functional simulator.
type DHAM = dham.HAM

// RHAM is the resistive HAM functional simulator.
type RHAM = rham.HAM

// AHAM is the analog HAM functional simulator.
type AHAM = aham.HAM

// Variation is a process/voltage corner for A-HAM's LTA blocks.
type Variation = analog.Variation

// Cost is an energy/delay/area estimate with a per-module breakdown.
type Cost = circuit.Cost

// NewDHAM builds a digital HAM over a trained memory.
func NewDHAM(cfg DHAMConfig, mem *Memory) (*DHAM, error) { return dham.New(cfg, mem) }

// NewRHAM builds a resistive HAM over a trained memory.
func NewRHAM(cfg RHAMConfig, mem *Memory) (*RHAM, error) { return rham.New(cfg, mem) }

// NewAHAM builds an analog HAM over a trained memory.
func NewAHAM(cfg AHAMConfig, mem *Memory) (*AHAM, error) { return aham.New(cfg, mem) }

// ---- Language recognition application ----

// Language is a synthetic language model (substitute for the paper's
// Wortschatz/Europarl corpora; see DESIGN.md §1).
type Language = textgen.Language

// LanguageParams configures the language pipeline.
type LanguageParams = lang.Params

// Trained bundles the learned language memory and encoder.
type Trained = lang.Trained

// TestSet is a labeled evaluation set.
type TestSet = lang.TestSet

// EvalReport scores one evaluation run.
type EvalReport = lang.Report

// Languages returns the 21 synthetic European languages with default
// divergence.
func Languages() []*Language { return textgen.Catalog(textgen.DefaultConfig()) }

// DefaultLanguageParams is the paper's protocol: D = 10,000 trigram
// encoding, ~1 MB training text and 1,000 test sentences per language.
func DefaultLanguageParams() LanguageParams { return lang.DefaultParams() }

// TrainLanguages learns one hypervector per language.
func TrainLanguages(langs []*Language, p LanguageParams) (*Trained, error) {
	return lang.Train(langs, p)
}

// MakeTestSet draws labeled test sentences from an independent stream.
func MakeTestSet(langs []*Language, p LanguageParams) *TestSet {
	return lang.MakeTestSet(langs, p)
}

// Evaluate classifies every encoded query with the searcher and scores it.
func Evaluate(s Searcher, mem *Memory, ts *TestSet) EvalReport {
	return lang.Evaluate(s, mem, ts)
}

// ---- Structural (circuit-level) simulators ----

// DHAMDatapath is the bit-true digital datapath simulator with switching-
// activity measurement.
type DHAMDatapath = dham.Datapath

// RHAMCircuit is the sense-amplifier-level resistive simulator.
type RHAMCircuit = rham.CircuitHAM

// AHAMCircuit is the current-domain analog simulator; one instance is one
// "chip" with frozen process variation.
type AHAMCircuit = aham.CircuitHAM

// NewDHAMDatapath builds the bit-true D-HAM datapath over a trained memory.
func NewDHAMDatapath(cfg DHAMConfig, mem *Memory) (*DHAMDatapath, error) {
	return dham.NewDatapath(cfg, mem)
}

// NewRHAMCircuit builds the circuit-level R-HAM simulator; jitterNs ≤ 0
// selects the default sampling-clock jitter.
func NewRHAMCircuit(cfg RHAMConfig, mem *Memory, jitterNs float64) (*RHAMCircuit, error) {
	return rham.NewCircuit(cfg, mem, jitterNs)
}

// NewAHAMCircuit builds one analog chip instance; the seed freezes its
// mirror gains and comparator offsets.
func NewAHAMCircuit(cfg AHAMConfig, mem *Memory, seed uint64) (*AHAMCircuit, error) {
	return aham.NewCircuit(cfg, mem, seed)
}

// ---- Batch search, serving and persistence ----

// SearchAll classifies a batch of queries; set parallel for concurrency-
// safe searchers (exact, D-HAM, A-HAM closed-form).
func SearchAll(s Searcher, queries []*Vector, parallel bool) []Result {
	return core.SearchAll(s, queries, parallel)
}

// SearchAllWorkers is SearchAll with an explicit worker count — the shared
// fan-out path of batch callers and the serve engine. One worker runs
// sequentially in input order (safe for non-forkable randomized searchers).
func SearchAllWorkers(s Searcher, queries []*Vector, workers int) []Result {
	return core.SearchAllWorkers(s, queries, workers)
}

// ShardedMatrix is the word-range-sharded parallel distance kernel (see
// internal/core); obtain one via Memory.WithSharding.
type ShardedMatrix = core.ShardedMatrix

// ServeConfig tunes the micro-batching and worker pool of an Engine.
type ServeConfig = serve.Config

// ServeResponse is the engine's answer to one submitted text.
type ServeResponse = serve.Response

// ServeStats is a snapshot of an engine's counters.
type ServeStats = serve.Stats

// Engine is the micro-batching throughput engine: asynchronous Submit into
// a bounded admission queue, encode→search workers that take whatever is
// queued (up to MaxBatch) as their batch, admission control under a
// ServePolicy, supervised workers (a panic fails only its own request and
// the worker restarts with fresh state), and deadline-bounded graceful
// Drain.
type Engine = serve.Engine

// ServePolicy selects the engine's admission-control behavior when its
// pending queue is full: ServeBlock applies backpressure, ServeReject fails
// fast with ErrEngineOverloaded, ServeShedOldest drops the stalest queued
// request to admit the newest.
type ServePolicy = serve.Policy

// Admission policies for ServeConfig.Policy.
const (
	ServeBlock      = serve.Block
	ServeReject     = serve.Reject
	ServeShedOldest = serve.ShedOldest
)

// ErrEngineClosed is returned by Engine.Submit after Close.
var ErrEngineClosed = serve.ErrClosed

// ErrNoNGrams is returned for texts too short to form a single n-gram.
var ErrNoNGrams = serve.ErrNoNGrams

// ErrEngineOverloaded is returned when admission control turns a request
// away (Reject policy, or as the answer of a request shed by ShedOldest).
var ErrEngineOverloaded = serve.ErrOverloaded

// ErrWorkerPanic marks a response whose encode or search panicked; the
// worker recovered and was restarted with fresh state.
var ErrWorkerPanic = serve.ErrWorkerPanic

// ErrEngineDrained marks a response abandoned by Engine.Drain after its
// deadline.
var ErrEngineDrained = serve.ErrDrained

// ErrEngineNoEncoder is the response error of a text submitted to an engine
// built without an encoder — a fleet replica, which answers encoded queries
// only.
var ErrEngineNoEncoder = serve.ErrNoEncoder

// NewEngine builds a micro-batching engine serving the trained language
// pipeline with the given searcher. Each pooled encoder scratch instance is
// rebuilt from the pipeline's deterministic item memory, so engine results
// are bit-identical to a serial loop with the same tie-break seed. The
// sequential-fallback rule of SearchAll applies: randomized searchers that
// cannot fork need cfg.Workers = 1.
func NewEngine(tr *Trained, s Searcher, cfg ServeConfig) (*Engine, error) {
	return serve.New(tr.Memory, s, PipelineEncoderFactory(tr.Params), cfg)
}

// PipelineEncoderFactory returns the encoder factory of a language
// pipeline: the deterministic item memory rebuilt from p's seed, at p's
// n-gram order. Every instance encodes bit-identically to the pipeline's
// own encoder and shares its symbol table.
func PipelineEncoderFactory(p LanguageParams) func() *Encoder {
	return learn.EncoderFactory(p.Dim, p.NGram, p.Seed)
}

// EvaluateParallel is Evaluate fanned out over a worker count via
// SearchAllWorkers (0 resolves to GOMAXPROCS).
func EvaluateParallel(s Searcher, mem *Memory, ts *TestSet, workers int) EvalReport {
	return lang.EvaluateParallel(s, mem, ts, workers)
}

// SaveMemory serializes a trained memory in the legacy HAM1 stream format.
// New code should prefer the snapshot subsystem below (CaptureSnapshot /
// SaveSnapshot), which adds versioning, checksums, provenance and zero-copy
// loading.
func SaveMemory(w io.Writer, mem *Memory) error {
	_, err := mem.WriteTo(w)
	return err
}

// LoadMemory deserializes a memory written by SaveMemory.
func LoadMemory(r io.Reader) (*Memory, error) { return core.ReadMemory(r) }

// ---- Model snapshots (versioned, checksummed, mmap-loadable) ----

// Snapshot is a captured or loaded model snapshot: the class matrix plus
// the config and provenance needed to rebuild the exact serving pipeline.
// Close a loaded snapshot when done; on linux its matrix may be served
// zero-copy from an mmap of the file.
type Snapshot = store.Snapshot

// SnapshotConfig records the encoder/pipeline parameters a snapshot's
// model was trained with (dimensionality, n-gram order, seed).
type SnapshotConfig = store.Config

// SnapshotProvenance records who trained a snapshot's model, from what
// corpus seed, and when.
type SnapshotProvenance = store.Provenance

// SnapshotInfo is the metadata view of a snapshot file from VerifySnapshot.
type SnapshotInfo = store.Info

// ModelRegistry watches a model directory and hot-swaps the newest valid
// snapshot into a serving engine (validation happens off the serving path).
type ModelRegistry = store.Registry

// ModelRegistryConfig configures a ModelRegistry.
type ModelRegistryConfig = store.RegistryConfig

// RegistryEvent reports one registry action (load, rejection, swap failure).
type RegistryEvent = store.Event

// Typed snapshot decoding errors; match with errors.Is.
var (
	// ErrNotSnapshot marks input without the snapshot magic (e.g. a legacy
	// SaveMemory file).
	ErrNotSnapshot = store.ErrNotSnapshot
	// ErrSnapshotVersion marks a snapshot from a future format version.
	ErrSnapshotVersion = store.ErrVersion
	// ErrSnapshotChecksum marks bytes damaged after writing.
	ErrSnapshotChecksum = store.ErrChecksum
	// ErrSnapshotTruncated marks input shorter than its declared sizes.
	ErrSnapshotTruncated = store.ErrTruncated
	// ErrSnapshotCorrupt marks structurally inconsistent input.
	ErrSnapshotCorrupt = store.ErrCorrupt
)

// CaptureSnapshot wraps a trained memory with config and provenance for
// saving. The memory is referenced, not copied.
func CaptureSnapshot(mem *Memory, cfg SnapshotConfig, prov SnapshotProvenance) (*Snapshot, error) {
	return store.Capture(mem, cfg, prov)
}

// SaveSnapshot atomically writes a snapshot file: a temp file in the target
// directory is synced and renamed into place, so a watching ModelRegistry
// never observes a partial write.
func SaveSnapshot(path string, snap *Snapshot) error { return store.Save(path, snap) }

// OpenSnapshot loads and fully validates a snapshot file; on linux the
// class matrix is served zero-copy from an mmap when possible.
func OpenSnapshot(path string) (*Snapshot, error) { return store.Open(path) }

// DecodeSnapshot reads a snapshot from a stream (always copying).
func DecodeSnapshot(r io.Reader) (*Snapshot, error) { return store.Decode(r) }

// VerifySnapshot validates every checksum and structural invariant of a
// snapshot file and returns its metadata without keeping the model resident.
func VerifySnapshot(path string) (*SnapshotInfo, error) { return store.Verify(path) }

// NewModelRegistry builds a directory watcher that validates new snapshots
// and hot-swaps them into a serving engine via cfg.Swap (typically a
// closure over Engine.Swap).
func NewModelRegistry(cfg ModelRegistryConfig) (*ModelRegistry, error) {
	return store.NewRegistry(cfg)
}

// SnapshotEncoderFactory returns the encoder factory matching a snapshot's
// recorded config: the deterministic item memory rebuilt from the seed,
// preloaded with the language alphabet, at the recorded n-gram order.
func SnapshotEncoderFactory(cfg SnapshotConfig) func() *Encoder {
	return learn.EncoderFactory(cfg.Dim, cfg.NGram, cfg.Seed)
}

// NewSnapshotEngine builds a serving engine directly over a loaded
// snapshot, with the encoder pipeline rebuilt from the snapshot's own
// config. Swap later models in with Engine.Swap.
func NewSnapshotEngine(snap *Snapshot, s Searcher, cfg ServeConfig) (*Engine, error) {
	return serve.New(snap.Memory(), s, SnapshotEncoderFactory(snap.Config()), cfg)
}

// ---- Scatter-gather replica fleet ----

// Fleet is the fault-tolerant scatter-gather coordinator: the class matrix
// is partitioned across replica engines (by word range or by class rows),
// every query is scattered to one replica per partition, and the partial
// distance reductions are gathered into an exact answer when all partitions
// respond — or a degraded-but-correct one (erasures scored, confidence
// widened, coverage reported) when some are lost. Replicas are deadline-
// bounded, retried with backoff, hedged to mirrors on stragglers, and
// circuit-broken on sustained failure with cooldown probes.
type Fleet = fleet.Fleet

// FleetConfig shapes a Fleet: replica and partition counts, the partition
// scheme, dispatch deadlines, retry/backoff, hedging, breaker tuning and an
// optional replica-fault injection schedule for tests.
type FleetConfig = fleet.Config

// FleetAnswer is one gathered classification with its degraded-mode
// evidence: coverage fraction, erasure count, confidence margin and the
// generation that answered.
type FleetAnswer = fleet.Answer

// FleetStats is a snapshot of a fleet's counters.
type FleetStats = fleet.Stats

// FleetReplicaStats is one replica's health and traffic counters.
type FleetReplicaStats = fleet.ReplicaStats

// FleetScheme selects how the class matrix is split across partitions.
type FleetScheme = fleet.Scheme

// Partition schemes for FleetConfig.Scheme: by word ranges (partials sum to
// the exact full-dimension distances; a lost partition degrades to a
// d-sampled answer over the surviving bits) or by class rows (a lost
// partition excludes only its classes, and the answer is never Confident).
const (
	FleetByWords   = fleet.ByWords
	FleetByClasses = fleet.ByClasses
)

// ErrFleetClosed is returned by Fleet.Ask after Close or Drain.
var ErrFleetClosed = fleet.ErrClosed

// ErrFleetNoCoverage is returned when every partition is erased — the fleet
// refuses to answer from nothing.
var ErrFleetNoCoverage = fleet.ErrNoCoverage

// ErrFleetDeadline marks a replica dispatch abandoned at its deadline.
var ErrFleetDeadline = fleet.ErrDeadline

// NewFleet builds a replica fleet serving the trained language pipeline.
// The coordinator encodes each query once with encoders rebuilt from the
// pipeline's deterministic item memory, and the replicas are pure
// associative memories — healthy-path answers are bit-identical to a
// serial exact scan with the same tie-break seed.
func NewFleet(tr *Trained, cfg FleetConfig) (*Fleet, error) {
	return fleet.New(tr.Memory, PipelineEncoderFactory(tr.Params), cfg)
}

// NewSnapshotFleet builds a replica fleet directly over a loaded snapshot,
// with the encoder pipeline rebuilt from the snapshot's own config. Roll
// later models in with Fleet.Swap.
func NewSnapshotFleet(snap *Snapshot, cfg FleetConfig) (*Fleet, error) {
	return fleet.New(snap.Memory(), SnapshotEncoderFactory(snap.Config()), cfg)
}

// ReplicaInjector is a replica-level fault injector for FleetConfig.Chaos;
// implementations strike dispatches before they reach a replica engine or
// damage the partial they return.
type ReplicaInjector = fault.ReplicaInjector

// ReplicaStallFault delays every dispatch to one replica past a request
// sequence — the straggler/network-stall model.
type ReplicaStallFault = fault.ReplicaStall

// ReplicaCrashFault fails every dispatch to one replica from a request
// sequence on — the hard-crash model.
type ReplicaCrashFault = fault.ReplicaCrash

// SlowRestartFault fails dispatches to one replica during a bounded outage
// window, then recovers — the restart model the breaker's cooldown probes
// are tested against.
type SlowRestartFault = fault.SlowRestart

// CorruptPartialFault damages the partial distances one replica returns on
// a deterministic schedule; the fleet's bounds validation must reject them.
type CorruptPartialFault = fault.CorruptPartial

// ErrReplicaDown marks a dispatch failed by an injected replica fault.
var ErrReplicaDown = fault.ErrReplicaDown

// ---- Network serving ----

// NetServer exposes an Engine or Fleet over TCP: a length-prefixed binary
// protocol for throughput (versioned frames, pipelined batches, responses
// matched by request id) and HTTP/JSON for debuggability, with connection
// limits, per-connection deadlines, a /statsz endpoint and graceful drain.
type NetServer = netserve.Server

// NetConfig shapes a NetServer: listener addresses (":0" for ephemeral,
// empty to disable), connection and in-flight caps, deadlines.
type NetConfig = netserve.Config

// NetStats is a snapshot of a NetServer's socket-level counters.
type NetStats = netserve.Stats

// NetClient is one binary-protocol connection; many frames may be in
// flight at once and responses are matched by id regardless of order.
type NetClient = netserve.Client

// NetBatch is the client-side result of one query frame.
type NetBatch = netserve.Batch

// NetAnswer is one wire answer: a status byte plus the classification.
type NetAnswer = netserve.WireAnswer

// ServeEngine exposes a micro-batching engine over the network. Binary
// answers are bit-identical to in-process Engine results; closing or
// draining the server closes the engine through its own drain path.
func ServeEngine(eng *Engine, cfg NetConfig) (*NetServer, error) {
	return netserve.New(netserve.EngineBackend(eng), cfg)
}

// ServeFleet exposes a scatter-gather replica fleet over the network.
func ServeFleet(fl *Fleet, cfg NetConfig) (*NetServer, error) {
	return netserve.New(netserve.FleetBackend(fl), cfg)
}

// DialNet connects a binary-protocol client to a NetServer.
func DialNet(addr string, timeout time.Duration) (*NetClient, error) {
	return netserve.Dial(addr, timeout)
}

// NetAnswerError converts a wire answer's status back into the typed error
// an in-process caller would see (nil for an OK answer), so socket clients
// errors.Is-match ErrNoNGrams, ErrEngineOverloaded, ErrEngineDrained and
// friends exactly like local ones.
func NetAnswerError(a NetAnswer) error { return netserve.AnswerError(a) }

// ---- Remote replica fleet (scatter-gather over the wire) ----

// ReplicaTransport delivers one partition's gen-stamped partial distance
// reduction for an encoded query — in-process for engine replicas, over the
// binary wire protocol (only the partition's query words) for remote ones.
type ReplicaTransport = fleet.ReplicaTransport

// FleetQuery is one encoded query as the coordinator scatters it: the
// shared query vector, its n-gram count and the word range the target
// partition scores.
type FleetQuery = fleet.Query

// FleetPartial is one replica's answer to a scattered query: per-class
// distances over its partition and the model generation that produced
// them.
type FleetPartial = fleet.Partial

// ErrFleetTransport marks a dispatch that failed at the transport layer
// (dead connection, write timeout, truncated frame) rather than inside the
// replica; the fleet counts these as RemoteErrors and fails over to
// mirrors.
var ErrFleetTransport = fleet.ErrTransport

// RemoteTransport is a self-healing connection to one hamserve -replica
// process: jittered exponential-backoff redials, per-request write
// deadlines, a ping probe that detects black holes, and fail-fast asks
// while disconnected.
type RemoteTransport = netserve.RemoteTransport

// RemoteConfig shapes a RemoteTransport: the replica address, dial/write/
// ping timeouts, the redial backoff window and the deterministic jitter
// seed.
type RemoteConfig = netserve.RemoteConfig

// NewRemoteTransport opens a self-healing transport to one remote replica.
// It returns immediately; the transport dials in the background and
// reports health through the fleet's ReplicaStats.
func NewRemoteTransport(cfg RemoteConfig) *RemoteTransport {
	return netserve.NewRemoteTransport(cfg)
}

// NewRemoteFleet builds a scatter-gather coordinator over remote replica
// transports: transport i serves partition i mod cfg.Partitions, and mem
// is the coordinator's copy of the model, used for partition geometry,
// labels and the reduce — every transport must front a replica serving the
// same model (hamserve -replica -load with a shared snapshot). The
// coordinator encodes each query once with encoders from newEnc (e.g.
// PipelineEncoderFactory or SnapshotEncoderFactory) and ships each replica
// only the query words its partition scores.
func NewRemoteFleet(mem *Memory, newEnc func() *Encoder, transports []ReplicaTransport, cfg FleetConfig) (*Fleet, error) {
	return fleet.NewRemote(mem, newEnc, transports, cfg)
}

// ParseFleetScheme maps a partition-scheme name ("by-words", "by-classes")
// to its FleetScheme — the -scheme flag's parser.
func ParseFleetScheme(name string) (FleetScheme, error) { return fleet.ParseScheme(name) }

// ReplicaEngine is a standalone partition replica: a pure associative
// memory (an engine with no encoder) plus the query word range its
// partition scores.
type ReplicaEngine = fleet.ReplicaEngine

// ErrFleetQueryRange is a replica's answer to a partial query whose word
// range or dimension is not its partition's — a coordinator and replica
// that disagree on the partition plan.
var ErrFleetQueryRange = fleet.ErrQueryRange

// NewReplicaEngine builds the engine a standalone replica process serves
// for partition p of n under sc: the same partition plan the coordinator
// computes, with distance reporting on and no encoder — the coordinator
// encodes, so cfg.Seed is unused.
func NewReplicaEngine(tr *Trained, sc FleetScheme, p, n int, cfg ServeConfig) (*ReplicaEngine, error) {
	return fleet.NewReplicaEngine(tr.Memory, sc, p, n, cfg)
}

// ServeReplica exposes a partition replica over the binary protocol,
// answering a remote coordinator's partial queries.
func ServeReplica(r *ReplicaEngine, cfg NetConfig) (*NetServer, error) {
	return netserve.New(netserve.ReplicaBackend(r), cfg)
}

// ---- Network fault injection ----

// NetFaultInjector is a connection-level fault injector: WrapNetConn and
// WrapNetDialer consult it on every read and write.
type NetFaultInjector = fault.NetInjector

// ConnDropFault kills a connection on a deterministic per-write schedule —
// the flaky-link model the redial loop is tested against.
type ConnDropFault = fault.ConnDrop

// BlackholeFault, while armed, swallows every byte in both directions
// without erroring — the silent-partition model the ping probe detects.
type BlackholeFault = fault.Blackhole

// SlowLinkFault adds a deterministic base-plus-jitter delay to writes (and
// optionally reads) — the congested-link model.
type SlowLinkFault = fault.SlowLink

// TricklePartialFault cuts a struck write after a few bytes and kills the
// connection — the truncated-frame model the decoder must reject.
type TricklePartialFault = fault.TricklePartial

// ErrInjectedDrop marks I/O failed by an injected connection fault.
var ErrInjectedDrop = fault.ErrInjectedDrop

// WrapNetConn layers fault injectors over a connection; link tags which
// injector schedules apply.
func WrapNetConn(nc net.Conn, link uint64, injs ...NetFaultInjector) net.Conn {
	return fault.WrapConn(nc, link, injs...)
}

// WrapNetDialer wraps a dial function (nil for plain TCP) so every
// connection it produces — including redials — carries the injectors; use
// it as a RemoteConfig.Dial to chaos-test a remote fleet.
func WrapNetDialer(dial func(addr string, timeout time.Duration) (net.Conn, error), link uint64, injs ...NetFaultInjector) func(string, time.Duration) (net.Conn, error) {
	return fault.WrapDialer(dial, link, injs...)
}

// ---- Online learning (train-while-serve) ----

// Learner ingests labeled examples concurrently with search traffic and
// periodically folds them — striped per-writer accumulators, a phased
// freeze/merge/fold reconcile — into a new snapshot generation the model
// registry hot-swaps into a serving engine with zero downtime.
type Learner = learn.Learner

// LearnConfig shapes a Learner: pipeline parameters, stripe and queue
// sizing, the admission policy, the per-class centroid count, the snapshot
// output directory and the auto-reconcile interval.
type LearnConfig = learn.Config

// LearnStats is a snapshot of a Learner's counters.
type LearnStats = learn.Stats

// LearnExample is one labeled training example.
type LearnExample = learn.Example

// LearnReport describes one reconcile: the generation published, its path,
// class/row counts and how many examples it folded.
type LearnReport = learn.Report

// ErrLearnOverloaded is returned by Learner.Ingest when every stripe queue
// is full under the fail-fast admission policy.
var ErrLearnOverloaded = learn.ErrOverloaded

// ErrLearnClosed is returned by Learner calls after Close.
var ErrLearnClosed = learn.ErrClosed

// ErrLearnInvalid rejects an example the learner will not accept (empty or
// oversized label, reserved characters, empty text).
var ErrLearnInvalid = learn.ErrInvalidExample

// NewLearner builds an online learner seeded with a base model (may be
// nil for a cold start); each base class starts as a weight-BaseWeight
// prior, so untouched classes fold back to exactly their base rows.
func NewLearner(base *Memory, cfg LearnConfig) (*Learner, error) { return learn.New(base, cfg) }

// LearnOffline is the single-centroid offline reference trainer: the same
// fold a Learner reconcile produces from the same example multiset, bit for
// bit, computed in one pass (the determinism oracle).
func LearnOffline(base *Memory, examples []LearnExample, cfg LearnConfig) (*Memory, error) {
	return learn.TrainOffline(base, examples, cfg)
}

// SnapshotModel builds the servable (memory, searcher) pair for a loaded
// snapshot, resolving its centroid layout: plain snapshots get the exact
// searcher, multi-centroid ones a class-level memory with clean labels and
// a min-over-centroids searcher.
func SnapshotModel(snap *Snapshot) (*Memory, Searcher, error) { return learn.Model(snap) }

// ServeLearningEngine exposes an engine plus an online learner over the
// network: query frames hit the engine, learn frames (and POST /learn) feed
// the learner, and reconciled generations reach the engine through the
// model registry like any other snapshot swap.
func ServeLearningEngine(eng *Engine, lr *Learner, cfg NetConfig) (*NetServer, error) {
	return netserve.New(netserve.LearnEngineBackend(eng, lr), cfg)
}
