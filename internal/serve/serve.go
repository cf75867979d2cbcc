// Package serve implements a concurrent throughput engine over a trained
// hyperdimensional associative memory: the software analogue of streaming
// batched queries through the paper's HAM hardware. Callers submit raw text
// (GoFunc, Go, Submit) or an already-encoded query hypervector
// (GoEncodedFunc, GoEncoded) asynchronously into one bounded admission
// queue. Every request carries a completion func that the goroutine
// finishing it (a worker, or a submitter that sheds it) calls with the
// Response, so the func must not block. Go, GoEncoded and Submit are thin
// wrappers delivering into a buffered channel. A pool of workers reads
// that queue directly: a worker blocks for one request, takes whatever else
// is already queued (up to MaxBatch) as its micro-batch and runs the
// encode→search flow over it, amortizing per-query overhead (the model pin,
// encoder scratch, distance buffers, searcher forks) across the batch. No
// request waits for company: an idle worker serves a lone request at once,
// and batches grow only when requests queue faster than the pool drains
// them. Encoded queries share the same path and skip only the encode — the
// paper's encoder/associative-memory split (§II). An engine built without
// an encoder factory is a pure associative memory: it answers encoded
// queries only and fails text submissions with ErrNoEncoder (the fleet's
// replica engines are built this way; their coordinator encodes once per
// query). AnswerEncoded serves an encoded query on the caller's own
// goroutine instead, for a caller that would only block on the response
// (the fleet coordinator's inline scatter).
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
//   - Graceful drain: Drain stops intake, flushes what it can within the
//     caller's deadline and fails the rest fast with ErrDrained, reporting
//     how many requests were abandoned.
//
// # Hot model swap
//
// Swap atomically replaces the served model (memory, searcher, encoder
// factory) without stopping the engine. Every micro-batch is stamped with
// one model generation when a worker takes it, so a batch is always
// answered entirely by one model; Swap installs the new generation for
// subsequent batches and blocks until the last batch stamped with the old
// one has drained, after which the old model's memory is guaranteed
// untouched (safe to munmap a backing snapshot). No request is dropped and
// no batch mixes generations; responses report the generation that answered
// via Response.Gen.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

// ErrNotInline is AnswerEncoded's refusal of a model whose searcher is a
// core.ForkableSearcher: its per-worker PCG streams belong to the queue's
// workers, so such a model answers through GoEncoded only.
var ErrNotInline = errors.New("serve: forkable searcher answers through the queue only")

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

// Config tunes the micro-batching and the worker pool.
type Config struct {
	// MaxBatch is the most requests a worker takes from the queue as one
	// micro-batch (default 32).
	MaxBatch int
	// Workers is the number of encode→search workers (default GOMAXPROCS).
	// Use 1 for non-forkable randomized searchers (see package comment).
	Workers int
	// Queue is the admission bound: the exact number of admitted requests
	// that no worker has taken yet (default 4×MaxBatch). Once that many
	// wait, the admission Policy engages. Requests a worker has taken —
	// at most Workers×MaxBatch — no longer count against it.
	Queue int
	// Policy is the admission-control behavior when the queue is full
	// (default Block).
	Policy Policy
	// Seed drives encoder majority tie-breaks for every text request, so
	// engine results are bit-identical to a serial loop encoding with the
	// same seed (default 2017). Encoded queries arrive with their tie-breaks
	// already decided.
	Seed uint64
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
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxBatch
	}
	if c.Seed == 0 {
		c.Seed = 2017
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
	// per response and owned by the receiver, except from AnswerEncodedInto,
	// which answers into its caller's dst when dst is long enough.
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
	done   func(Response) // the completion func; runs once, must not block
}

// respond delivers the request's single answer.
func (r *request) respond(resp Response) { r.done(resp) }

// model binds one generation of servable state: the memory, the base
// searcher workers fork from, and an encoder factory (plus scratch pool)
// matched to the memory's dimension — nil for a pure associative memory.
// A worker pins the model for each batch it takes; the in-flight count
// below lets Swap wait until the last batch stamped with a retired
// generation has finished before declaring it drained.
type model struct {
	gen    uint64
	mem    *core.Memory
	base   core.Searcher
	newEnc func() *encoder.Encoder

	// search and rows are the base searcher's entry points for
	// AnswerEncoded, shared by every caller (rows is nil unless distances
	// are reported). Both are nil when the base is forkable.
	search func(*hv.Vector) core.Result
	rows   func(q *hv.Vector, dst []int) (core.Result, []int)

	encoders sync.Pool // *encoder.Encoder scratch for this generation

	inflight  atomic.Int64  // batches stamped with this model, not yet finished
	retired   atomic.Bool   // a Swap installed a successor
	drained   chan struct{} // closed once retired with nothing in flight
	drainOnce sync.Once
}

func newModel(gen uint64, mem *core.Memory, s core.Searcher, newEnc func() *encoder.Encoder, probe *encoder.Encoder, reportDistances bool) *model {
	m := &model{gen: gen, mem: mem, base: s, newEnc: newEnc, drained: make(chan struct{})}
	if _, forkable := s.(core.ForkableSearcher); !forkable {
		m.search = s.Search
		if reportDistances {
			m.rows = rowFunc(s)
		}
	}
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
	Batches   uint64 // micro-batches taken by workers
	Batched   uint64 // requests carried by those batches
	Rejected  uint64 // submissions refused with ErrOverloaded (Reject policy)
	Shed      uint64 // queued requests dropped by ShedOldest
	Panics    uint64 // requests failed by a recovered worker panic
	Restarts  uint64 // worker state rebuilds after a panic
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

// Engine is the micro-batching query engine. Construct with New; Close (or
// Drain) stops intake, finishes the pool and is idempotent.
type Engine struct {
	cfg   Config
	model atomic.Pointer[model] // current generation; each batch pins it

	swapMu sync.Mutex // serializes Swap calls

	requests chan *request // the admission queue, read directly by workers
	wg       sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. sends on requests
	closed bool
	done   chan struct{} // closed when every worker has exited

	abandoning atomic.Bool // Drain deadline passed: fail remaining work fast

	submitted, completed, canceled, empty atomic.Uint64
	nbatches, batched                     atomic.Uint64
	rejected, shed                        atomic.Uint64
	panics, restarts                      atomic.Uint64
	abandoned, swaps                      atomic.Uint64
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
		cfg:      cfg,
		requests: make(chan *request, cfg.Queue),
		done:     make(chan struct{}),
	}
	e.model.Store(newModel(cfg.FirstGen, mem, s, newEncoder, probe, cfg.ReportDistances))
	e.wg.Add(cfg.Workers)
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
// the batch and waits for it, or the worker observes the successor and
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
// generation number. Batches taken before the swap are answered entirely
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
	next := newModel(old.gen+1, mem, s, newEncoder, probe, e.cfg.ReportDistances)
	e.model.Store(next)
	old.retire()
	<-old.drained
	e.swaps.Add(1)
	return next.gen, nil
}

// Go enqueues one text for classification and returns the channel its
// Response will arrive on (buffered; the engine never blocks on it): GoFunc
// delivering into that channel.
func (e *Engine) Go(ctx context.Context, text string) (<-chan Response, error) {
	ch := make(chan Response, 1)
	if err := e.GoFunc(ctx, text, sendTo(ch)); err != nil {
		return nil, err
	}
	return ch, nil
}

// GoFunc enqueues one text for classification and calls done with its
// Response exactly once. done runs on the goroutine that finishes the
// request — a worker, or under ShedOldest the submitter that shed it — so it
// must not block: a worker that waited on delivery would stall every
// request queued behind it. The request is dropped with ctx.Err() if ctx
// ends before a worker reaches it. When the queue is full, the configured
// admission Policy decides: Block waits (bounded by ctx), Reject returns
// ErrOverloaded, ShedOldest drops the stalest queued request to make room.
// A returned error means done will not be called.
func (e *Engine) GoFunc(ctx context.Context, text string, done func(Response)) error {
	return e.enqueue(&request{ctx: ctx, text: text, done: done})
}

// GoEncoded is Go for a query the caller already encoded: GoEncodedFunc
// delivering into the returned channel.
func (e *Engine) GoEncoded(ctx context.Context, q *hv.Vector, ngrams int) (<-chan Response, error) {
	ch := make(chan Response, 1)
	if err := e.GoEncodedFunc(ctx, q, ngrams, sendTo(ch)); err != nil {
		return nil, err
	}
	return ch, nil
}

// GoEncodedFunc is GoFunc for a query the caller already encoded: q with
// the ngrams it bundled (q must not be mutated until done runs). It shares
// the text path's admission, batching, generation pinning and supervision,
// and skips only the encode — the entry point of a fleet replica, whose
// coordinator encodes each query once for all partitions. A query whose
// dimension differs from the answering model fails with ErrQueryDim;
// ngrams 0 fails with ErrNoNGrams, as an empty text would.
func (e *Engine) GoEncodedFunc(ctx context.Context, q *hv.Vector, ngrams int, done func(Response)) error {
	if q == nil {
		return errors.New("serve: nil query vector")
	}
	return e.enqueue(&request{ctx: ctx, vec: q, ngrams: ngrams, done: done})
}

// sendTo is the completion func of the channel forms: ch is buffered for
// the one response, so the send never blocks.
func sendTo(ch chan<- Response) func(Response) {
	return func(r Response) { ch <- r }
}

// AnswerEncoded is GoEncoded answered on the caller's goroutine: no queue,
// no worker hand-off, no response channel. It pins the current generation
// for the call as a worker pins a batch (so Swap's drain gate waits for it)
// and runs under the same panic supervision, context checks and counters,
// each call counting as a batch of one. It refuses with ErrClosed once
// Close or Drain has begun, and Close and Drain wait for the calls already
// running.
//
// Every caller searches the generation's one base searcher concurrently, so
// the searcher must be safe for concurrent use without per-search state
// (the exact and partition-range searchers are). A core.ForkableSearcher
// carries per-worker PCG streams and is refused with ErrNotInline: submit
// to it through GoEncoded, whose workers own one fork each.
func (e *Engine) AnswerEncoded(ctx context.Context, q *hv.Vector, ngrams int) (Response, error) {
	return e.AnswerEncodedInto(ctx, q, ngrams, nil)
}

// AnswerEncodedInto is AnswerEncoded reporting Response.Distances into dst,
// reusing its backing array when it holds the model's rows: a caller that
// answers query after query into one row allocates nothing per call. The
// row is dst's until the caller reuses it.
func (e *Engine) AnswerEncodedInto(ctx context.Context, q *hv.Vector, ngrams int, dst []int) (Response, error) {
	if q == nil {
		return Response{}, errors.New("serve: nil query vector")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return Response{}, ErrClosed
	}
	e.wg.Add(1) // ordered before shutdown's wait by the read lock
	e.mu.RUnlock()
	defer e.wg.Done()
	m := e.acquireModel()
	defer m.release()
	if m.search == nil {
		return Response{}, ErrNotInline
	}
	e.submitted.Add(1)
	e.batched.Add(1)
	r := request{ctx: ctx, vec: q, ngrams: ngrams}
	resp, _ := e.serveOne(&r, m, e.nbatches.Add(1), nil, nil, dst, m.search, m.rows)
	return resp, resp.Err
}

// enqueue admits one request under the configured Policy.
func (e *Engine) enqueue(r *request) error {
	if r.done == nil {
		return errors.New("serve: nil completion func")
	}
	if r.ctx == nil {
		r.ctx = context.Background()
	}
	ctx := r.ctx
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	switch e.cfg.Policy {
	case Reject:
		select {
		case e.requests <- r:
			e.submitted.Add(1)
			return nil
		default:
			if err := ctx.Err(); err != nil {
				return err
			}
			e.rejected.Add(1)
			return ErrOverloaded
		}
	case ShedOldest:
		for {
			select {
			case e.requests <- r:
				e.submitted.Add(1)
				return nil
			default:
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			// Full: shed the oldest queued request and retry. The receive
			// races benignly with the workers and other submitters — if
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
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Submit enqueues one text and waits for its classification, honoring ctx:
// a context that ends first returns ctx.Err() immediately (the in-flight
// work is discarded into the response channel's buffer, leaking nothing). Under the
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
// every worker has exited.
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
// immediately, queued and in-flight requests are served while ctx lasts,
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
		Abandoned: e.abandoned.Load(),
		Swaps:     e.swaps.Load(),
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
// comparator-tree rule ClassMatrix.Nearest implements — and the row reuses
// dst's backing array when it is long enough, else is freshly allocated:
// workers pass nil, because their rows cross to the submitter in the
// Response.
func rowFunc(s core.Searcher) func(q *hv.Vector, dst []int) (core.Result, []int) {
	rs, ok := s.(core.RowSearcher)
	if !ok {
		return nil
	}
	return func(q *hv.Vector, dst []int) (core.Result, []int) {
		ds := rs.ObservedDistances(dst, q)
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

// serveOne answers one request of batch seq from model m, converting a
// panic anywhere in the encode→search flow into a per-request
// ErrWorkerPanic answer. A text is encoded into qv, the worker's query
// vector; a reported distance row reuses dst (see rowFunc). It returns the
// request's response, and whether it panicked so a worker can rebuild its
// state.
func (e *Engine) serveOne(r *request, m *model, seq uint64, enc *encoder.Encoder, qv *hv.Vector, dst []int, search func(*hv.Vector) core.Result, rows func(*hv.Vector, []int) (core.Result, []int)) (resp Response, panicked bool) {
	gen := m.gen
	defer func() {
		if v := recover(); v != nil {
			e.panics.Add(1)
			resp, panicked = Response{Gen: gen, Batch: seq, Err: fmt.Errorf("%w: %v", ErrWorkerPanic, v)}, true
		}
	}()
	if e.abandoning.Load() {
		e.abandoned.Add(1)
		return Response{Gen: gen, Batch: seq, Err: ErrDrained}, false
	}
	// Deadline propagation: a request whose context ended while it queued
	// is dropped before any encode work is spent on it.
	if err := r.ctx.Err(); err != nil {
		e.canceled.Add(1)
		return Response{Gen: gen, Batch: seq, Err: err}, false
	}
	q, n := r.vec, r.ngrams
	switch {
	case q == nil && enc == nil:
		return Response{Gen: gen, Batch: seq, Err: ErrNoEncoder}, false
	case q == nil:
		q, n = qv, enc.EncodeInto(qv, r.text, e.cfg.Seed)
	case q.Dim() != m.mem.Dim():
		return Response{Gen: gen, Batch: seq, Err: fmt.Errorf("%w: query dim %d, model dim %d", ErrQueryDim, q.Dim(), m.mem.Dim())}, false
	}
	if n == 0 {
		e.empty.Add(1)
		return Response{NGrams: 0, Gen: gen, Batch: seq, Err: ErrNoNGrams}, false
	}
	// Re-check between encode and search: search dominates the cost, so an
	// expiry during encode still saves the expensive half.
	if err := r.ctx.Err(); err != nil {
		e.canceled.Add(1)
		return Response{Gen: gen, Batch: seq, Err: err}, false
	}
	var (
		res core.Result
		ds  []int
	)
	if rows != nil {
		res, ds = rows(q, dst)
	} else {
		res = search(q)
	}
	e.completed.Add(1)
	return Response{Result: res, Label: m.mem.Label(res.Index), NGrams: n, Gen: gen, Batch: seq, Distances: ds}, false
}

// worker serves micro-batches straight from the admission queue: it blocks
// for one request, then takes whatever else is already queued, up to
// MaxBatch, without waiting for more. Each batch pins one model generation
// for its whole run. Serving is supervised: a panic fails only its own
// request, after which the worker restarts — it discards the
// possibly-poisoned encoder scratch, query vector and searcher fork and
// rebuilds them before the next request.
func (e *Engine) worker(w int) {
	defer e.wg.Done()
	// Per-model worker state, rebuilt lazily when a batch pins a different
	// generation.
	var (
		m      *model
		s      core.Searcher
		search func(*hv.Vector) core.Result
		rows   func(*hv.Vector, []int) (core.Result, []int)
		enc    *encoder.Encoder
		qv     *hv.Vector // the query vector texts are encoded into
	)
	rebuild := func() {
		qv = hv.New(m.mem.Dim())
		s = forked(m.base, w)
		search = searchFunc(s)
		rows = nil
		if e.cfg.ReportDistances {
			rows = rowFunc(s)
		}
	}
	release := func() {
		if enc != nil {
			m.encoders.Put(enc)
		}
	}
	defer release()
	batch := make([]*request, 0, e.cfg.MaxBatch)
	for {
		r, ok := <-e.requests
		if !ok {
			return
		}
		batch = append(batch, r)
	fill:
		for len(batch) < e.cfg.MaxBatch {
			select {
			case r, ok := <-e.requests:
				if !ok {
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		bm := e.acquireModel()
		seq := e.nbatches.Add(1)
		e.batched.Add(uint64(len(batch)))
		if bm != m {
			release()
			m = bm
			rebuild()
			enc, _ = m.encoders.Get().(*encoder.Encoder) // nil without a factory
		}
		for _, r := range batch {
			resp, panicked := e.serveOne(r, m, seq, enc, qv, nil, search, rows)
			r.respond(resp)
			if panicked {
				// Supervised restart: never pool or reuse state a panic ran
				// through.
				enc = nil
				if m.newEnc != nil {
					enc = m.newEnc()
				}
				rebuild()
				e.restarts.Add(1)
			}
		}
		bm.release()
		clear(batch)
		batch = batch[:0]
		// Under sustained load the queue never runs dry, so a worker would
		// serve batch after batch without blocking and keep its P until
		// preempted, starving control goroutines (a Swap waiting on its
		// drain gate, a newly started submitter) for whole scheduler time
		// slices: yield then. A worker that finds the queue empty parks on
		// it instead, so the next request wakes it directly rather than
		// waiting out a scheduling round.
		if len(e.requests) > 0 {
			runtime.Gosched()
		}
	}
}
