package hdam

import (
	"io"
	"math/rand/v2"
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

// NewCascadeSearcher builds the cascaded searcher over a trained memory.
func NewCascadeSearcher(mem *Memory, cfg CascadeConfig) (*CascadeSearcher, error) {
	return assoc.NewCascade(mem, cfg)
}

// ---- Fault injection and resilient search ----

// FaultInjector is one deterministic fault process (see internal/fault for
// the taxonomy: stuck-at and transient storage faults, query-path, counter
// and discharge faults).
type FaultInjector = fault.Injector

// StuckAtFault models permanently defective storage cells.
type StuckAtFault = fault.StuckAt

// TransientFault models soft-error bit flips in stored class vectors.
type TransientFault = fault.Transient

// QueryPathFault models common-mode faults on the query path.
type QueryPathFault = fault.QueryPath

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

// ServeConfig tunes the micro-batching and worker pool of an Engine.
type ServeConfig = serve.Config

// Engine is the micro-batching throughput engine: asynchronous Submit into
// a bounded admission queue, encode→search workers that take whatever is
// queued (up to MaxBatch) as their batch, admission control under a
// ServePolicy, supervised workers (a panic fails only its own request and
// the worker restarts with fresh state), and deadline-bounded graceful
// Drain.
type Engine = serve.Engine

// ServePolicy selects the engine's admission-control behavior when its
// pending queue is full: ServeBlock applies backpressure, ServeReject fails
// fast with an overloaded error, ServeShedOldest drops the stalest queued
// request to admit the newest.
type ServePolicy = serve.Policy

// Admission policies for ServeConfig.Policy.
const (
	ServeBlock      = serve.Block
	ServeReject     = serve.Reject
	ServeShedOldest = serve.ShedOldest
)

// ErrEngineClosed is returned by Engine.Submit and Engine.Swap after Close.
var ErrEngineClosed = serve.ErrClosed

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
// snapshot into a serving engine or fleet (validation happens off the
// serving path).
type ModelRegistry = store.Registry

// ModelRegistryConfig configures a ModelRegistry.
type ModelRegistryConfig = store.RegistryConfig

// RegistryEvent reports one registry action (load, rejection, swap failure).
type RegistryEvent = store.Event

// ErrNotSnapshot marks input without the snapshot magic (e.g. a legacy
// SaveMemory file); match with errors.Is.
var ErrNotSnapshot = store.ErrNotSnapshot

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

// VerifySnapshot validates every checksum and structural invariant of a
// snapshot file and returns its metadata without keeping the model resident.
func VerifySnapshot(path string) (*SnapshotInfo, error) { return store.Verify(path) }

// NewModelRegistry builds a directory watcher that validates new snapshots
// and hot-swaps them into a serving engine via cfg.Swap (typically a
// function over SnapshotModel and Engine.Swap).
func NewModelRegistry(cfg ModelRegistryConfig) (*ModelRegistry, error) {
	return store.NewRegistry(cfg)
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

// NewFleet builds a replica fleet serving the trained language pipeline.
// The coordinator encodes each query once with encoders rebuilt from the
// pipeline's deterministic item memory, and the replicas are pure
// associative memories — healthy-path answers are bit-identical to a
// serial exact scan with the same tie-break seed.
func NewFleet(tr *Trained, cfg FleetConfig) (*Fleet, error) {
	return fleet.New(tr.Memory, PipelineEncoderFactory(tr.Params), cfg)
}

// ---- Network serving ----

// NetServer exposes an Engine or Fleet over TCP: a length-prefixed binary
// protocol for throughput (versioned frames, pipelined batches, responses
// matched by request id) and HTTP/JSON for debuggability, with connection
// limits, per-connection deadlines, a /statsz endpoint and graceful drain.
type NetServer = netserve.Server

// NetConfig shapes a NetServer: listener addresses (":0" for ephemeral,
// empty to disable), connection and in-flight caps, deadlines.
type NetConfig = netserve.Config

// NetClient is one binary-protocol connection; many frames may be in
// flight at once and responses are matched by id regardless of order.
type NetClient = netserve.Client

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
// errors.Is-match no-n-gram, overload and drain failures exactly like local
// ones.
func NetAnswerError(a NetAnswer) error { return netserve.AnswerError(a) }

// ---- Remote replica fleet (scatter-gather over the wire) ----

// ReplicaTransport delivers one partition's gen-stamped partial distance
// reduction for an encoded query — in-process for engine replicas, over the
// binary wire protocol (only the partition's query words) for remote ones.
type ReplicaTransport = fleet.ReplicaTransport

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
// PipelineEncoderFactory) and ships each replica only the query words its
// partition scores.
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

// NewLearner builds an online learner seeded with a base model (may be
// nil for a cold start); each base class starts as a weight-BaseWeight
// prior, so untouched classes fold back to exactly their base rows.
func NewLearner(base *Memory, cfg LearnConfig) (*Learner, error) { return learn.New(base, cfg) }

// SnapshotModel turns a loaded snapshot into a servable language pipeline
// and its exact searcher, resolving the centroid layout: a plain snapshot
// serves its rows with the exact searcher, a multi-centroid one (written by
// a Learner with Centroids > 1) a class-level memory with clean labels and
// a min-over-centroids searcher. The encoder is rebuilt from the snapshot's
// recorded dimensionality, n-gram order and seed. The pipeline reads the
// snapshot's matrix in place, so keep the snapshot open while serving it.
func SnapshotModel(snap *Snapshot) (*Trained, Searcher, error) {
	mem, s, err := learn.Model(snap)
	if err != nil {
		return nil, nil, err
	}
	cfg := snap.Config()
	p := lang.DefaultParams()
	p.Dim, p.NGram, p.Seed = cfg.Dim, cfg.NGram, cfg.Seed
	return &Trained{Memory: mem, Encoder: PipelineEncoderFactory(p)(), Params: p}, s, nil
}

// ServeLearningEngine exposes an engine plus an online learner over the
// network: query frames hit the engine, learn frames (and POST /learn) feed
// the learner, and reconciled generations reach the engine through the
// model registry like any other snapshot swap.
func ServeLearningEngine(eng *Engine, lr *Learner, cfg NetConfig) (*NetServer, error) {
	return netserve.New(netserve.LearnEngineBackend(eng, lr), cfg)
}
