// Package serve implements a concurrent throughput engine over a trained
// hyperdimensional associative memory: the software analogue of streaming
// batched queries through the paper's HAM hardware. Callers submit raw text
// (Go, Submit) or an already-encoded query hypervector (GoEncoded)
// asynchronously; the engine coalesces requests into micro-batches under a
// max-batch/max-delay policy and runs a pipelined encode→search flow across
// a worker pool, amortizing per-query overhead (encoder scratch, distance
// buffers, searcher forks) across the batch. Encoded queries share the same
// path and skip only the encode — the paper's encoder/associative-memory
// split (§II). An engine built without an encoder factory is a pure
// associative memory: it answers encoded queries only and fails text
// submissions with ErrNoEncoder (the fleet's replica engines are built this
// way; their coordinator encodes once per query).
//
// The engine never changes what is computed — encoding and search are
// bit-identical to a serial loop over the same requests with the same seed —
// it only changes when and where the work runs. Randomized searchers follow
// the sequential-fallback rule inherited from core.SearchAll: a searcher
// carrying per-search randomness is safe with Workers > 1 only when it
// implements core.ForkableSearcher (each worker then owns an independently
// seeded PCG stream); otherwise configure Workers = 1.
//
// # Overload protection and failure isolation
//
// The engine is built to keep answering under the serving failure modes the
// tail-at-scale literature catalogues:
//
//   - Admission control: the pending queue is bounded and governed by a
//     Policy — Block (backpressure), Reject (fail fast with ErrOverloaded)
//     or ShedOldest (drop the stalest queued request to admit the newest).
//     Requests whose context expires while queued are dropped before any
//     encode work is spent on them.
//   - Supervision: a panic in encode or search is recovered and converted
//     into a per-request ErrWorkerPanic answer; the worker then discards its
//     (possibly poisoned) encoder scratch and searcher fork and rebuilds
//     both before touching the next request, so one poisoned query can never
//     take down the engine or corrupt its neighbors.
//   - Hedging: with Hedge enabled, a dispatched batch that straggles past a
//     latency quantile of recent batches is re-issued to an idle worker;
//     each request is answered by whichever copy claims it first and the
//     loser skips it (first result wins).
//   - Graceful drain: Drain stops intake, flushes what it can within the
//     caller's deadline and fails the rest fast with ErrDrained, reporting
//     how many requests were abandoned.
//
// # Hot model swap
//
// Swap atomically replaces the served model (memory, searcher, encoder
// factory) without stopping the engine. Every micro-batch is stamped with
// one model generation when it is flushed, so a batch — and its hedge copy —
// is always answered entirely by one model; Swap installs the new generation
// for subsequent batches and blocks until the last batch stamped with the
// old one has drained, after which the old model's memory is guaranteed
// untouched (safe to munmap a backing snapshot). No request is dropped and
// no batch mixes generations; responses report the generation that answered
// via Response.Gen.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/hv"
)

// ErrClosed is returned by Submit and Go after Close.
var ErrClosed = errors.New("serve: engine closed")

// ErrNoNGrams is returned for texts too short to form a single n-gram
// after normalization (nothing to classify).
var ErrNoNGrams = errors.New("serve: text has no n-grams")

// ErrOverloaded is returned when admission control turns a request away: by
// Submit/Go under the Reject policy when the queue is full, and as the
// response error of a queued request shed under the ShedOldest policy.
var ErrOverloaded = errors.New("serve: engine overloaded")

// ErrWorkerPanic marks a response whose encode or search panicked; the
// request failed but the worker recovered and was restarted with fresh
// state. Match with errors.Is.
var ErrWorkerPanic = errors.New("serve: worker panic")

// ErrDrained marks a response abandoned by Drain after its deadline: the
// request was accepted but the engine shut down before doing its work.
var ErrDrained = errors.New("serve: request abandoned by drain")

// ErrNoEncoder is the response error of a text submitted to an engine built
// without an encoder factory: such an engine answers encoded queries
// (GoEncoded) only.
var ErrNoEncoder = errors.New("serve: engine has no encoder; submit encoded queries")

// ErrQueryDim is the response error of an encoded query whose dimension
// differs from the model generation that would answer it.
var ErrQueryDim = errors.New("serve: query dimension does not match the model")

// Policy selects how Submit and Go behave when the pending queue is full.
type Policy int

const (
	// Block applies backpressure: the submitter waits for queue space or
	// its context's end, whichever comes first (the default).
	Block Policy = iota
	// Reject fails fast: a full queue returns ErrOverloaded immediately,
	// bounding submitter latency at the cost of dropped load.
	Reject
	// ShedOldest admits the new request by dropping the oldest queued one,
	// which is answered with ErrOverloaded. Under sustained overload the
	// freshest requests — the ones whose callers are most likely still
	// waiting — are the ones that get served.
	ShedOldest
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Reject:
		return "reject"
	case ShedOldest:
		return "shed-oldest"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config tunes the micro-batching policy and the worker pool.
type Config struct {
	// MaxBatch is the most requests one micro-batch may carry; a full batch
	// dispatches immediately (default 32).
	MaxBatch int
	// MaxDelay is how long a non-full batch may wait for company after its
	// first request arrives (default 200µs). Lower trades throughput for
	// latency. The batcher is work-conserving: a batch also dispatches
	// before the delay expires whenever the queue is empty and a worker
	// sits idle, so an unloaded engine adds no artificial latency.
	MaxDelay time.Duration
	// Workers is the number of encode→search workers (default GOMAXPROCS).
	// Use 1 for non-forkable randomized searchers (see package comment).
	Workers int
	// Queue is the pending-request capacity before the admission Policy
	// engages (default 4×MaxBatch).
	Queue int
	// Policy is the admission-control behavior when the queue is full
	// (default Block).
	Policy Policy
	// Seed drives encoder majority tie-breaks for every text request, so
	// engine results are bit-identical to a serial loop encoding with the
	// same seed (default 2017). Encoded queries arrive with their tie-breaks
	// already decided.
	Seed uint64
	// Hedge enables hedged dispatch: a batch still unanswered after the
	// HedgeQuantile of recent batch service times (or HedgeAfter, when set)
	// is re-issued to an idle worker; per request, the first copy to claim
	// it wins and the other skips it.
	Hedge bool
	// HedgeAfter, when positive, is a fixed straggler threshold overriding
	// the adaptive quantile.
	HedgeAfter time.Duration
	// HedgeQuantile is the quantile of recent batch service times past
	// which a batch counts as straggling, in (0,1] (default 0.95).
	HedgeQuantile float64
	// FirstGen is the generation number the model New is built with serves
	// under (default 1; each Swap increments from there). A restarted
	// member of a replica fleet passes the fleet's current generation so
	// its answers reduce consistently with replicas that lived through the
	// intervening swaps.
	FirstGen uint64
	// ReportDistances asks workers to attach the full per-row observed
	// distance reduction to every classified Response (Response.Distances).
	// It takes effect only when the served searcher implements
	// core.RowSearcher; the winner is then selected from the reported row by
	// the deterministic lowest-index argmin, exactly as the searcher's own
	// Search would. This is the partial-reduction hook of the scatter-gather
	// fleet: a replica engine over a class-row or word-range partition
	// reports the distances its partition observed so a coordinator can
	// reduce them across replicas.
	ReportDistances bool
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 200 * time.Microsecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxBatch
	}
	if c.Seed == 0 {
		c.Seed = 2017
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile > 1 {
		c.HedgeQuantile = 0.95
	}
	if c.FirstGen == 0 {
		c.FirstGen = 1
	}
	return c
}

// Response is the engine's answer to one submitted query.
type Response struct {
	// Result is the winning class exactly as the searcher reported it.
	Result core.Result
	// Label is the winning class label.
	Label string
	// NGrams is how many n-grams the text encoded to (for an encoded query,
	// the count its submitter passed).
	NGrams int
	// Gen is the model generation whose batch carried the request (see
	// Engine.Swap); 0 when the request never reached a worker.
	Gen uint64
	// Batch is the 1-based sequence number of the micro-batch that carried
	// the request; 0 when it never reached a worker.
	Batch uint64
	// Distances is the per-row observed distance reduction behind Result,
	// present only when Config.ReportDistances is set and the served
	// searcher implements core.RowSearcher. The slice is freshly allocated
	// per response and owned by the receiver.
	Distances []int
	// Err is non-nil when the request was not classified (cancellation,
	// empty text, shedding, a recovered worker panic, drain abandonment).
	Err error
}

// request is one in-flight submission: a text to encode, or (vec non-nil)
// an encoded query with its n-gram count.
type request struct {
	ctx    context.Context
	text   string
	vec    *hv.Vector
	ngrams int
	done   chan Response // buffered(1): workers never block on delivery
	// claimed elects the one dispatch copy that answers this request; the
	// hedge copy of a batch shares the same request pointers and skips
	// requests the primary already claimed (and vice versa).
	claimed atomic.Bool
}

// respond delivers the request's single answer.
func (r *request) respond(resp Response) { r.done <- resp }

// batchJob is one dispatched micro-batch, shared between its primary
// dispatch and (under hedging) its hedge copy. The model is pinned when the
// batch is flushed, so both copies answer from the same generation.
type batchJob struct {
	reqs    []*request
	model   *model        // generation answering every request in the batch
	seq     uint64        // 1-based batch sequence number
	pending atomic.Int64  // requests not yet answered
	start   time.Time     // dispatch time, for the hedge latency samples
	done    chan struct{} // closed when pending reaches 0 (hedging only)
}

// dispatch is one delivery of a batch to a worker.
type dispatch struct {
	job   *batchJob
	hedge bool
}

// model binds one generation of servable state: the memory, the base
// searcher workers fork from, and an encoder factory (plus scratch pool)
// matched to the memory's dimension — nil for a pure associative memory.
// Batches pin their model at flush time; the in-flight count below lets
// Swap wait until the last batch stamped with a retired generation has
// finished before declaring it drained.
type model struct {
	gen    uint64
	mem    *core.Memory
	base   core.Searcher
	newEnc func() *encoder.Encoder

	encoders sync.Pool // *encoder.Encoder scratch for this generation

	inflight  atomic.Int64  // batches stamped with this model, not yet finished
	retired   atomic.Bool   // a Swap installed a successor
	drained   chan struct{} // closed once retired with nothing in flight
	drainOnce sync.Once
}

func newModel(gen uint64, mem *core.Memory, s core.Searcher, newEnc func() *encoder.Encoder, probe *encoder.Encoder) *model {
	m := &model{gen: gen, mem: mem, base: s, newEnc: newEnc, drained: make(chan struct{})}
	if newEnc != nil {
		m.encoders.New = func() any { return m.newEnc() }
	}
	if probe != nil {
		m.encoders.Put(probe)
	}
	return m
}

// release retires one stamped batch; the last release of a retired model
// closes its drain gate.
func (m *model) release() {
	if m.inflight.Add(-1) == 0 && m.retired.Load() {
		m.drainOnce.Do(func() { close(m.drained) })
	}
}

// retire marks the model replaced. The drain gate closes immediately when
// nothing is in flight, else when the last stamped batch finishes.
func (m *model) retire() {
	m.retired.Store(true)
	if m.inflight.Load() == 0 {
		m.drainOnce.Do(func() { close(m.drained) })
	}
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Submitted uint64 // requests accepted by Submit/Go/GoEncoded
	Completed uint64 // requests answered with a classification
	Canceled  uint64 // requests dropped because their context ended first
	Empty     uint64 // requests rejected with ErrNoNGrams
	Batches   uint64 // micro-batches dispatched
	Batched   uint64 // requests carried by those batches
	Rejected  uint64 // submissions refused with ErrOverloaded (Reject policy)
	Shed      uint64 // queued requests dropped by ShedOldest
	Panics    uint64 // requests failed by a recovered worker panic
	Restarts  uint64 // worker state rebuilds after a panic
	Hedged    uint64 // straggling batches re-issued to an idle worker
	HedgeWins uint64 // requests answered by the hedge copy
	Abandoned uint64 // requests failed with ErrDrained by Drain
	Swaps     uint64 // completed model hot-swaps
}

// AvgBatch returns the mean micro-batch size so far.
func (s Stats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Batched) / float64(s.Batches)
}

// LatencyRing is a fixed ring of recent service times feeding an adaptive
// hedge threshold: the engine's batch times, and the fleet's per-partition
// dispatch times. The zero value is ready to use; it is safe for
// concurrent use.
type LatencyRing struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   int // samples stored, ≤ len(buf)
	idx int // next write position
}

// Add records one service time, evicting the oldest once the ring is full.
func (l *LatencyRing) Add(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// Quantile returns the q-th quantile (0..1) of the stored samples by the
// rounded nearest-rank rule — the sample at round(q·(n-1)) — and how many
// samples back it (0 means no data yet). Truncating the rank instead would
// bias a tail threshold low: p95 of 10 samples would land on the 9th, not
// the 10th.
func (l *LatencyRing) Quantile(q float64) (time.Duration, int) {
	l.mu.Lock()
	n := l.n
	tmp := make([]time.Duration, n)
	copy(tmp, l.buf[:n])
	l.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(math.Round(q * float64(n-1)))
	return tmp[min(max(i, 0), n-1)], n
}

// Engine is the micro-batching query engine. Construct with New; Close (or
// Drain) stops intake, finishes the pool and is idempotent.
type Engine struct {
	cfg   Config
	model atomic.Pointer[model] // current generation; batches pin it at flush

	swapMu sync.Mutex // serializes Swap calls

	requests chan *request
	batches  chan dispatch
	wg       sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. sends on requests
	closed bool
	done   chan struct{} // closed when batcher and workers have exited

	stopHedge chan struct{} // closed by the batcher on exit
	hedgeWG   sync.WaitGroup
	lats      LatencyRing

	abandoning atomic.Bool // Drain deadline passed: fail remaining work fast

	submitted, completed, canceled, empty atomic.Uint64
	nbatches, batched                     atomic.Uint64
	rejected, shed                        atomic.Uint64
	panics, restarts                      atomic.Uint64
	hedged, hedgeWins                     atomic.Uint64
	abandoned, swaps                      atomic.Uint64
	idle                                  atomic.Int64 // workers parked on the batches channel
}

// New builds an engine classifying with s over mem, encoding text with
// encoders produced by newEncoder (one call per pooled scratch instance;
// instances must agree bit-for-bit, which deterministic item memories
// guarantee). A nil newEncoder builds a pure associative memory that
// answers encoded queries only. The worker pool starts immediately.
func New(mem *core.Memory, s core.Searcher, newEncoder func() *encoder.Encoder, cfg Config) (*Engine, error) {
	if mem == nil || s == nil {
		return nil, errors.New("serve: nil memory or searcher")
	}
	cfg = cfg.withDefaults()
	probe, err := probeEncoder(mem, newEncoder)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		requests:  make(chan *request, cfg.Queue),
		batches:   make(chan dispatch, cfg.Workers),
		done:      make(chan struct{}),
		stopHedge: make(chan struct{}),
	}
	e.model.Store(newModel(cfg.FirstGen, mem, s, newEncoder, probe))
	e.wg.Add(1 + cfg.Workers)
	go e.batcher()
	for w := 0; w < cfg.Workers; w++ {
		go e.worker(w)
	}
	return e, nil
}

// probeEncoder builds one encoder from newEncoder (nil for a nil factory)
// and checks it matches the memory's dimension.
func probeEncoder(mem *core.Memory, newEncoder func() *encoder.Encoder) (*encoder.Encoder, error) {
	if newEncoder == nil {
		return nil, nil
	}
	probe := newEncoder()
	if probe == nil || probe.Dim() != mem.Dim() {
		return nil, fmt.Errorf("serve: encoder factory dim mismatch with memory dim %d", mem.Dim())
	}
	return probe, nil
}

// Config returns the resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// Gen returns the generation number of the model serving new batches (1 for
// the model New was built with; each successful Swap increments it).
func (e *Engine) Gen() uint64 { return e.model.Load().gen }

// acquireModel pins the current model for one batch. The in-flight count is
// bumped before re-checking retirement, so a concurrent Swap either observes
// the batch and waits for it, or the batcher observes the successor and
// retries — a stamped batch is never drained out from under.
func (e *Engine) acquireModel() *model {
	for {
		m := e.model.Load()
		m.inflight.Add(1)
		if !m.retired.Load() {
			return m
		}
		m.release()
	}
}

// Swap atomically replaces the served model — the memory, the searcher over
// it and the encoder factory for its dimension (nil for a pure associative
// memory, as in New) — and returns the new
// generation number. Batches flushed before the swap are answered entirely
// by the old model (Swap blocks until the last of them drains); batches
// after it entirely by the new one. No request is dropped and no batch
// mixes generations. Once Swap returns, the old model's memory is no longer
// read, so resources backing it (e.g. a mapped snapshot) may be released.
// Swaps are serialized; concurrent callers proceed one generation at a time.
func (e *Engine) Swap(mem *core.Memory, s core.Searcher, newEncoder func() *encoder.Encoder) (uint64, error) {
	if mem == nil || s == nil {
		return 0, errors.New("serve: nil memory or searcher")
	}
	probe, err := probeEncoder(mem, newEncoder)
	if err != nil {
		return 0, err
	}
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	old := e.model.Load()
	next := newModel(old.gen+1, mem, s, newEncoder, probe)
	e.model.Store(next)
	old.retire()
	<-old.drained
	e.swaps.Add(1)
	return next.gen, nil
}

// Go enqueues one text for classification and returns the channel its
// Response will arrive on (buffered; the engine never blocks on it). The
// request is dropped with ctx.Err() if ctx ends before a worker reaches it.
// When the queue is full, the configured admission Policy decides: Block
// waits (bounded by ctx), Reject returns ErrOverloaded, ShedOldest drops
// the stalest queued request to make room.
func (e *Engine) Go(ctx context.Context, text string) (<-chan Response, error) {
	return e.enqueue(&request{ctx: ctx, text: text})
}

// GoEncoded is Go for a query the caller already encoded: q with the ngrams
// it bundled (q must not be mutated until the response arrives). It shares
// the text path's admission, batching, generation pinning, supervision and
// hedging, and skips only the encode — the entry point of a fleet replica,
// whose coordinator encodes each query once for all partitions. A query
// whose dimension differs from the answering model fails with ErrQueryDim;
// ngrams 0 fails with ErrNoNGrams, as an empty text would.
func (e *Engine) GoEncoded(ctx context.Context, q *hv.Vector, ngrams int) (<-chan Response, error) {
	if q == nil {
		return nil, errors.New("serve: nil query vector")
	}
	return e.enqueue(&request{ctx: ctx, vec: q, ngrams: ngrams})
}

// enqueue admits one request under the configured Policy.
func (e *Engine) enqueue(r *request) (<-chan Response, error) {
	if r.ctx == nil {
		r.ctx = context.Background()
	}
	ctx := r.ctx
	r.done = make(chan Response, 1)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	switch e.cfg.Policy {
	case Reject:
		select {
		case e.requests <- r:
			e.submitted.Add(1)
			return r.done, nil
		default:
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			e.rejected.Add(1)
			return nil, ErrOverloaded
		}
	case ShedOldest:
		for {
			select {
			case e.requests <- r:
				e.submitted.Add(1)
				return r.done, nil
			default:
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Full: shed the oldest queued request and retry. The receive
			// races benignly with the batcher and other submitters — if
			// someone else empties a slot first, the next send attempt wins.
			select {
			case old := <-e.requests:
				e.shed.Add(1)
				old.respond(Response{Err: ErrOverloaded})
			default:
				// Someone else freed or refilled the slot between our two
				// attempts; yield before retrying.
				runtime.Gosched()
			}
		}
	default: // Block
		select {
		case e.requests <- r:
			e.submitted.Add(1)
			return r.done, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Submit enqueues one text and waits for its classification, honoring ctx:
// a context that ends first returns ctx.Err() immediately (the in-flight
// work is discarded into the response's buffer, leaking nothing). Under the
// Reject and ShedOldest policies Submit never blocks on a full queue, so a
// saturating load cannot stall submitters beyond their context deadline.
func (e *Engine) Submit(ctx context.Context, text string) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	done, err := e.Go(ctx, text)
	if err != nil {
		return Response{}, err
	}
	select {
	case resp := <-done:
		return resp, resp.Err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// shutdown stops intake exactly once and arranges for done to close when
// the batcher and every worker have exited.
func (e *Engine) shutdown() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.requests)
		go func() {
			e.wg.Wait()
			close(e.done)
		}()
	}
	e.mu.Unlock()
}

// Close stops accepting requests, drains everything already queued and
// waits for the pool to exit. It is idempotent (also with Drain).
func (e *Engine) Close() {
	e.shutdown()
	<-e.done
}

// Drain gracefully shuts the engine down under a deadline: intake stops
// immediately, queued and in-flight batches are flushed while ctx lasts,
// and once ctx ends the remaining requests are failed fast with ErrDrained
// instead of being computed. It returns how many requests were abandoned
// that way and ctx's error if the deadline cut the flush short. Drain is
// idempotent and safe to combine with Close; requests submitted after
// either call get ErrClosed.
func (e *Engine) Drain(ctx context.Context) (abandoned uint64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.shutdown()
	select {
	case <-e.done:
	case <-ctx.Done():
		err = ctx.Err()
		e.abandoning.Store(true)
		<-e.done
	}
	return e.abandoned.Load(), err
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted: e.submitted.Load(),
		Completed: e.completed.Load(),
		Canceled:  e.canceled.Load(),
		Empty:     e.empty.Load(),
		Batches:   e.nbatches.Load(),
		Batched:   e.batched.Load(),
		Rejected:  e.rejected.Load(),
		Shed:      e.shed.Load(),
		Panics:    e.panics.Load(),
		Restarts:  e.restarts.Load(),
		Hedged:    e.hedged.Load(),
		HedgeWins: e.hedgeWins.Load(),
		Abandoned: e.abandoned.Load(),
		Swaps:     e.swaps.Load(),
	}
}

// batcher coalesces requests into micro-batches: a batch dispatches when it
// reaches MaxBatch or when MaxDelay has passed since its first request.
func (e *Engine) batcher() {
	defer e.wg.Done()
	defer close(e.batches)
	defer func() {
		// Wake every hedge monitor and wait it out before closing batches,
		// so no monitor can send on a closed channel.
		close(e.stopHedge)
		e.hedgeWG.Wait()
	}()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var batch []*request
	flush := func() {
		if len(batch) == 0 {
			return
		}
		e.batched.Add(uint64(len(batch)))
		job := &batchJob{reqs: batch, model: e.acquireModel(), seq: e.nbatches.Add(1)}
		job.pending.Store(int64(len(batch)))
		if e.cfg.Hedge {
			job.start = time.Now()
			job.done = make(chan struct{})
		}
		e.batches <- dispatch{job: job}
		if e.cfg.Hedge {
			e.hedgeWG.Add(1)
			go e.hedgeMonitor(job)
		}
		batch = nil
	}
	// ready reports whether the open batch should dispatch now: it is full,
	// or holding it would waste capacity (nothing else queued and a worker
	// parked). The idle count may be momentarily stale; the failure modes
	// are a slightly smaller batch or one extra MaxDelay of wait — both
	// benign.
	ready := func() bool {
		return len(batch) >= e.cfg.MaxBatch || (len(e.requests) == 0 && e.idle.Load() > 0)
	}
	for {
		if len(batch) == 0 {
			// Idle: block for the batch opener.
			r, ok := <-e.requests
			if !ok {
				return
			}
			batch = append(batch, r)
			if ready() {
				flush()
				continue
			}
			timer.Reset(e.cfg.MaxDelay)
			continue
		}
		select {
		case r, ok := <-e.requests:
			if !ok {
				if !timer.Stop() {
					<-timer.C
				}
				flush()
				return
			}
			batch = append(batch, r)
			if ready() {
				if !timer.Stop() {
					<-timer.C
				}
				flush()
			}
		case <-timer.C:
			flush()
		}
	}
}

// hedgeDelay resolves the straggler threshold: the fixed HedgeAfter when
// set, otherwise the HedgeQuantile of recent batch service times. With too
// few samples to trust a quantile, a generous multiple of MaxDelay keeps
// warmup hedges rare.
func (e *Engine) hedgeDelay() time.Duration {
	if e.cfg.HedgeAfter > 0 {
		return e.cfg.HedgeAfter
	}
	q, n := e.lats.Quantile(e.cfg.HedgeQuantile)
	if n < 16 || q <= 0 {
		d := 20 * e.cfg.MaxDelay
		if d < time.Millisecond {
			d = time.Millisecond
		}
		return d
	}
	return q
}

// hedgeMonitor watches one dispatched batch and re-issues it to an idle
// worker if it straggles past the hedge threshold. The re-issue is a copy
// of the same job: per request, the first dispatch to claim it answers it.
func (e *Engine) hedgeMonitor(job *batchJob) {
	defer e.hedgeWG.Done()
	t := time.NewTimer(e.hedgeDelay())
	defer t.Stop()
	select {
	case <-job.done:
		return
	case <-e.stopHedge:
		return
	case <-t.C:
	}
	if job.pending.Load() == 0 || e.idle.Load() <= 0 {
		return
	}
	// Only hedge onto genuinely free capacity: a non-blocking send that
	// would queue behind other batches is skipped, not waited for.
	select {
	case e.batches <- dispatch{job: job, hedge: true}:
		e.hedged.Add(1)
	default:
	}
}

// searchFunc routes through SearchBuf with a worker-local distance buffer
// when the searcher supports it (mirrors core.SearchAll's worker setup).
func searchFunc(s core.Searcher) func(*hv.Vector) core.Result {
	if bs, ok := s.(core.BufferedSearcher); ok {
		var buf []int
		return func(q *hv.Vector) core.Result { return bs.SearchBuf(q, &buf) }
	}
	return s.Search
}

// rowFunc returns the distance-reporting search closure for a searcher, or
// nil when the searcher has no row capability. The winner is selected from
// the observed row by the deterministic lowest-index argmin — the same
// comparator-tree rule ClassMatrix.Nearest implements — and the row is
// freshly allocated per call because it crosses the API boundary in the
// Response.
func rowFunc(s core.Searcher) func(*hv.Vector) (core.Result, []int) {
	rs, ok := s.(core.RowSearcher)
	if !ok {
		return nil
	}
	return func(q *hv.Vector) (core.Result, []int) {
		ds := rs.ObservedDistances(nil, q)
		best, bestD := 0, ds[0]
		for i, d := range ds[1:] {
			if d < bestD {
				best, bestD = i+1, d
			}
		}
		return core.Result{Index: best, Distance: bestD}, ds
	}
}

// forked returns worker w's searcher: a fresh per-worker fork when the base
// supports it, preserving the per-worker PCG stream contract of
// core.SearchAllWorkers, else the shared base.
func forked(base core.Searcher, w int) core.Searcher {
	if f, ok := base.(core.ForkableSearcher); ok {
		if fs := f.Fork(w); fs != nil {
			return fs
		}
	}
	return base
}

// serveOne answers one claimed request, converting a panic anywhere in the
// encode→search flow into a per-request ErrWorkerPanic answer. It reports
// whether it panicked so the worker can rebuild its state.
func (e *Engine) serveOne(r *request, job *batchJob, enc *encoder.Encoder, search func(*hv.Vector) core.Result, rows func(*hv.Vector) (core.Result, []int), hedge bool) (panicked bool) {
	gen, seq := job.model.gen, job.seq
	defer func() {
		if v := recover(); v != nil {
			panicked = true
			e.panics.Add(1)
			r.respond(Response{Gen: gen, Batch: seq, Err: fmt.Errorf("%w: %v", ErrWorkerPanic, v)})
		}
	}()
	if e.abandoning.Load() {
		e.abandoned.Add(1)
		r.respond(Response{Gen: gen, Batch: seq, Err: ErrDrained})
		return false
	}
	// Deadline propagation: a request whose context ended while it queued
	// is dropped before any encode work is spent on it.
	if err := r.ctx.Err(); err != nil {
		e.canceled.Add(1)
		r.respond(Response{Gen: gen, Batch: seq, Err: err})
		return false
	}
	q, n := r.vec, r.ngrams
	switch {
	case q == nil && enc == nil:
		r.respond(Response{Gen: gen, Batch: seq, Err: ErrNoEncoder})
		return false
	case q == nil:
		q, n = enc.EncodeText(r.text, e.cfg.Seed)
	case q.Dim() != job.model.mem.Dim():
		r.respond(Response{Gen: gen, Batch: seq, Err: fmt.Errorf("%w: query dim %d, model dim %d", ErrQueryDim, q.Dim(), job.model.mem.Dim())})
		return false
	}
	if n == 0 {
		e.empty.Add(1)
		r.respond(Response{NGrams: 0, Gen: gen, Batch: seq, Err: ErrNoNGrams})
		return false
	}
	// Re-check between encode and search: search dominates the cost, so an
	// expiry during encode still saves the expensive half.
	if err := r.ctx.Err(); err != nil {
		e.canceled.Add(1)
		r.respond(Response{Gen: gen, Batch: seq, Err: err})
		return false
	}
	var (
		res core.Result
		ds  []int
	)
	if rows != nil {
		res, ds = rows(q)
	} else {
		res = search(q)
	}
	e.completed.Add(1)
	if hedge {
		e.hedgeWins.Add(1)
	}
	r.respond(Response{Result: res, Label: job.model.mem.Label(res.Index), NGrams: n, Gen: gen, Batch: seq, Distances: ds})
	return false
}

// finish retires one answered request of the job; the last one releases the
// hedge monitor (recording the batch service time) and the job's pin on its
// model generation.
func (e *Engine) finish(job *batchJob) {
	if job.pending.Add(-1) != 0 {
		return
	}
	if job.done != nil {
		e.lats.Add(time.Since(job.start))
		close(job.done)
	}
	job.model.release()
}

// worker drains micro-batches through the pipelined encode→search flow
// under supervision: a panic fails only its own request, after which the
// worker restarts — it discards the possibly-poisoned encoder scratch and
// searcher fork and rebuilds both before the next request.
func (e *Engine) worker(w int) {
	defer e.wg.Done()
	// Per-model worker state, rebuilt lazily when a batch from a different
	// generation arrives.
	var (
		m      *model
		s      core.Searcher
		search func(*hv.Vector) core.Result
		rows   func(*hv.Vector) (core.Result, []int)
		enc    *encoder.Encoder
	)
	release := func() {
		if enc != nil {
			m.encoders.Put(enc)
		}
	}
	defer release()
	for {
		e.idle.Add(1)
		d, ok := <-e.batches
		e.idle.Add(-1)
		if !ok {
			return
		}
		jm := d.job.model
		for _, r := range d.job.reqs {
			// First dispatch copy to claim a request answers it; the hedge
			// loser (or the primary, if the hedge got there first) skips.
			if !r.claimed.CompareAndSwap(false, true) {
				continue
			}
			// Switch generations only after a claim: the claimed request
			// keeps the job pending, so the job's model cannot finish
			// draining — its memory stays valid — while we serve from it. A
			// stale dispatch whose requests were all claimed elsewhere never
			// touches the model at all.
			if jm != m {
				release()
				m = jm
				s = forked(m.base, w)
				search = searchFunc(s)
				rows = nil
				if e.cfg.ReportDistances {
					rows = rowFunc(s)
				}
				enc, _ = m.encoders.Get().(*encoder.Encoder) // nil without a factory
			}
			if e.serveOne(r, d.job, enc, search, rows, d.hedge) {
				// Supervised restart: never pool or reuse state a panic ran
				// through.
				enc = nil
				if m.newEnc != nil {
					enc = m.newEnc()
				}
				s = forked(m.base, w)
				search = searchFunc(s)
				if e.cfg.ReportDistances {
					rows = rowFunc(s)
				}
				e.restarts.Add(1)
			}
			e.finish(d.job)
		}
	}
}
