// Package fleet runs one hyperdimensional associative memory as a fleet of
// in-process replicas behind a scatter-gather coordinator: the
// fault-tolerance layer the paper's single-crossbar HAM needs once the
// memory outgrows one failure domain.
//
// Each replica is a serve.Engine over one partition of the learned
// core.Memory — a word-range slice (ByWords) or a class-row band
// (ByClasses), see partition.go — and answers with the partial distance
// reduction its partition observed. Replicas are pure associative memories:
// the coordinator encodes each query text exactly once (the paper's
// encoder/AM split, §II), scatters the encoded query to all partitions —
// over the wire, only the packed words each partition scores — gathers the
// partials and reduces them into one Answer: bit-identical to a
// single-engine full scan when every partition responds, and degraded but
// still correct about what it covers when some do not.
//
// # Failure handling
//
//   - Deadlines, retries, backoff: every dispatch is bounded by a
//     per-replica deadline; a failed partition ask is retried against the
//     rotation of its holders with exponential backoff.
//   - Hedging: a dispatch straggling past an adaptive latency quantile of
//     recent dispatches is re-issued to another healthy holder of the same
//     partition; the first answer wins (the serve engine's hedged dispatch,
//     promoted to replica granularity).
//   - Health: every dispatch outcome feeds a per-replica EWMA failure
//     estimate with circuit breaking and cooldown probes (health.go).
//   - Erasures: a partition that stays unanswered after retries is scored
//     as an erasure, not an error. Under ByWords the answer falls back to
//     the paper's d-sampling error model over the surviving bits with a
//     widened confidence margin (reduce.go); under ByClasses the answer
//     simply excludes the lost classes. Either way Answer.Degraded is set
//     and Answer.Coverage reports what survived.
//   - Corruption: partial reductions are bounds-validated; a detectably
//     corrupt partial becomes an erasure plus a health strike.
//
// # Generations
//
// Swap rolls a new model generation across every replica engine and extends
// the engine's no-mixed-generation guarantee to the gather: partials are
// grouped by the generation that produced them and only the best-covered
// group (ties to the newer) is reduced, so no Answer ever mixes model
// generations — the property that makes hot snapshot rollover via
// store.Registry safe at fleet scale.
//
// # Online learning
//
// A fleet does not ingest training examples. Replicas hold partitions of
// one folded model, so examples accepted at the coordinator could not be
// bundled into a consistent cross-replica generation without a consensus
// layer this design deliberately lacks; the netserve front-end therefore
// refuses learn traffic on a fleet backend with a typed answer. The
// supported shape is to run an internal/learn Learner beside a whole-model
// engine (or offline), let it publish reconciled generations as snapshots,
// and roll them across the fleet through Swap like any other model update.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/fault"
	"hdam/internal/hv"
	"hdam/internal/serve"
)

// ErrClosed is returned by Ask, Swap and StartReplica after Close or Drain.
var ErrClosed = errors.New("fleet: fleet closed")

// ErrNoCoverage is returned when every partition of a request was lost:
// there is nothing correct left to answer with. Match with errors.Is.
var ErrNoCoverage = errors.New("fleet: every partition erased")

// ErrDeadline marks a dispatch attempt abandoned at the per-replica
// deadline. Match with errors.Is.
var ErrDeadline = errors.New("fleet: replica dispatch deadline exceeded")

// errNoReplica reports a partition with no admissible holder (all stopped
// or circuit-broken without a due probe).
var errNoReplica = errors.New("fleet: no admissible replica for partition")

// errCorrupt marks a partial reduction that failed bounds validation.
var errCorrupt = errors.New("fleet: corrupt partial reduction")

// Config tunes the fleet. The zero value is usable: 4 replicas over 4
// ByWords partitions with deadlines, retries and health tracking on.
type Config struct {
	// Replicas is the number of replica engines (default 4). Replica i
	// serves partition i mod Partitions, so Replicas > Partitions adds
	// mirrors that carry retries, hedges and failover.
	Replicas int
	// Partitions is the number of model partitions (default Replicas; must
	// be ≤ Replicas so every partition has a holder).
	Partitions int
	// Scheme selects the partition axis (default ByWords).
	Scheme Scheme

	// Workers, MaxBatch, MaxDelay, Queue and Policy are forwarded to every
	// in-process replica engine's serve.Config (Workers defaults to 1: the
	// fleet itself is the parallelism).
	Workers  int
	MaxBatch int
	MaxDelay time.Duration
	Queue    int
	Policy   serve.Policy
	// Seed drives the coordinator encoder's majority tie-breaks (default
	// 2017, the serve engine's default), so fleet answers are bit-identical
	// to a single engine or serial loop encoding with the same seed.
	// Replicas never encode, so they need no seed of their own.
	Seed uint64

	// Deadline bounds each dispatch attempt to a replica (default 100ms).
	// A replica that stalls past it is abandoned — the attempt fails and
	// retries elsewhere — though the abandoned dispatch keeps running to
	// completion in the background and still scores the replica's health.
	Deadline time.Duration
	// Retries is how many extra attempts a failed partition ask gets after
	// the first (default 2; negative disables retries). Attempts rotate
	// across the partition's holders.
	Retries int
	// Backoff is the wait before the first retry, doubling per retry
	// (default 1ms).
	Backoff time.Duration

	// Hedge enables hedged re-dispatch: a dispatch still unanswered after
	// the HedgeQuantile of recent dispatch times (or HedgeAfter, when set)
	// is re-issued to another healthy holder of the same partition, and
	// the first answer wins. Requires a mirror to hedge onto.
	Hedge bool
	// HedgeAfter, when positive, is a fixed straggler threshold overriding
	// the adaptive quantile.
	HedgeAfter time.Duration
	// HedgeQuantile is the quantile of recent dispatch service times past
	// which a dispatch counts as straggling, in (0,1] (default 0.95).
	HedgeQuantile float64

	// ErrorBound is the EWMA failure estimate above which a replica's
	// circuit breaker opens (default 0.5).
	ErrorBound float64
	// EWMAAlpha is the weight of the newest dispatch outcome in the
	// failure estimate, in (0,1] (default 0.2).
	EWMAAlpha float64
	// Cooldown is how many fleet requests an open breaker waits before
	// admitting a probe dispatch (default 32).
	Cooldown uint64

	// MaxFailProb is the acceptable probability ε that an erasure-degraded
	// ByWords answer labeled Confident is actually overturned by the lost
	// bits (default 1e-3); it feeds the widened-margin certificate in
	// reduce.go.
	MaxFailProb float64

	// Chaos injects replica-level faults at dispatch and gather time; see
	// fault.ReplicaInjector.
	Chaos []fault.ReplicaInjector
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 4
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Replicas
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 2017
	}
	if c.Deadline <= 0 {
		c.Deadline = 100 * time.Millisecond
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile > 1 {
		c.HedgeQuantile = 0.95
	}
	if c.ErrorBound <= 0 || c.ErrorBound >= 1 {
		c.ErrorBound = 0.5
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.2
	}
	if c.Cooldown == 0 {
		c.Cooldown = 32
	}
	if c.MaxFailProb <= 0 || c.MaxFailProb >= 1 {
		c.MaxFailProb = 1e-3
	}
	return c
}

// Answer is the fleet's reduced answer to one query.
type Answer struct {
	// Result is the winning class (global index) and its distance: the
	// exact full-dimension Hamming distance when healthy; under erasures,
	// the d-sampled distance over the covered bits (ByWords) or the exact
	// distance among the covered classes (ByClasses).
	Result core.Result
	// Label is the winning class label.
	Label string
	// NGrams is how many n-grams the coordinator's encode of the text
	// produced.
	NGrams int
	// Gen is the model generation every gathered partial came from.
	Gen uint64
	// Degraded reports that at least one partition was erased: the answer
	// is correct about what it covers but did not see the whole model.
	Degraded bool
	// Coverage is the surviving fraction of the model: covered bits / D
	// under ByWords, covered classes / C under ByClasses (1 when healthy).
	Coverage float64
	// CoveredBits is how many of the D query bits the answer observed per
	// covered class (D when healthy).
	CoveredBits int
	// CoveredClasses is how many classes the answer scored (C when
	// healthy; under ByClasses erasures exclude the lost bands).
	CoveredClasses int
	// Erasures is how many partitions were lost after retries.
	Erasures int
	// Margin is the observed distance gap between the winner and the
	// runner-up over the covered model.
	Margin int
	// WidenedMargin is Margin minus the erasure certificate slack 2·t*
	// (reduce.go): the margin that must stay positive for the winner to be
	// trustworthy despite the unobserved bits. Healthy answers have zero
	// slack; degraded ByClasses answers have no certificate (0).
	WidenedMargin int
	// Confident reports WidenedMargin > 0 — under ByWords erasures, the
	// d-sampling certificate that the lost bits overturn the winner with
	// probability at most MaxFailProb. Degraded ByClasses answers are
	// never Confident: no error model can speak for an unseen class.
	Confident bool
}

// partial is one partition's gathered result.
type partial struct {
	part  int
	ds    []int
	gen   uint64
	hedge bool
	err   error
}

// Fleet is the scatter-gather coordinator over the replica engines.
// Construct with New; Close (or Drain) stops it.
type Fleet struct {
	cfg     Config
	scheme  Scheme
	parts   []part
	dim     int
	classes int
	labels  []string
	newEnc  func() *encoder.Encoder
	encs    sync.Pool // *encoder.Encoder scratch for the coordinator's encode

	replicas []*replica
	holders  [][]*replica // holders[p] = replicas serving partition p

	genMu  sync.Mutex // serializes Swap/StartReplica; guards curMem
	curMem *core.Memory
	gen    atomic.Uint64

	mu     sync.RWMutex
	closed bool

	seq  atomic.Uint64 // fleet request clock (chaos schedule, breaker cooldown)
	lats serve.LatencyRing

	asks, answered, degraded, noCoverage atomic.Uint64
	empty, erasures, retried             atomic.Uint64
	hedged, hedgeWins                    atomic.Uint64
	genDropped, corrupt, probes          atomic.Uint64
	swaps, failovers, remoteErrors       atomic.Uint64
}

// New builds a fleet serving mem whose coordinator encodes text with
// encoders from newEnc (the same factory contract as serve.New). The
// replica engines get no encoder: they answer the coordinator's encoded
// queries. Every replica engine starts immediately at generation 1.
func New(mem *core.Memory, newEnc func() *encoder.Encoder, cfg Config) (*Fleet, error) {
	f, err := newCoordinator(mem, newEnc, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.cfg.Replicas; i++ {
		p := f.parts[i%f.cfg.Partitions]
		m, s, err := buildModel(mem, f.scheme, p)
		if err == nil {
			var eng *serve.Engine
			eng, err = serve.New(m, s, nil, f.engineConfig(1))
			if err == nil {
				r := &replica{id: i, part: p.index, tr: engineTransport{eng}}
				f.replicas = append(f.replicas, r)
				f.holders[p.index] = append(f.holders[p.index], r)
				continue
			}
		}
		for _, r := range f.replicas { // unwind the engines already started
			r.tr.Close()
		}
		return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
	}
	return f, nil
}

// NewRemote builds a fleet whose replicas are remote processes reached
// through transports (netserve.RemoteTransport speaking the binary partial
// protocol to hamserve -replica processes, or anything else implementing
// ReplicaTransport). The coordinator encodes text with encoders from
// newEnc, as in New, and ships each replica only the query words its
// partition scores. Transport i serves partition i mod cfg.Partitions and
// must front a replica built over the SAME model with the matching
// partition plan — mem here is the coordinator's copy, used only for the
// partition geometry, labels and the reduce. Replica lifecycle is the
// remote side's own: Swap, StopReplica and StartReplica refuse remote
// replicas, and a dead connection heals through the transport's redial
// loop, surfacing here as !Connected until it does.
func NewRemote(mem *core.Memory, newEnc func() *encoder.Encoder, transports []ReplicaTransport, cfg Config) (*Fleet, error) {
	if len(transports) == 0 {
		return nil, errors.New("fleet: no transports")
	}
	cfg.Replicas = len(transports)
	f, err := newCoordinator(mem, newEnc, cfg)
	if err != nil {
		return nil, err
	}
	for i, tr := range transports {
		if tr == nil {
			return nil, fmt.Errorf("fleet: nil transport %d", i)
		}
		p := f.parts[i%f.cfg.Partitions]
		r := &replica{id: i, part: p.index, remote: true, tr: tr}
		f.replicas = append(f.replicas, r)
		f.holders[p.index] = append(f.holders[p.index], r)
	}
	return f, nil
}

// newCoordinator builds the replica-less coordinator both constructors
// share: resolved config, partition plan and the encoder pool, whose first
// encoder is probed against the memory's dimension.
func newCoordinator(mem *core.Memory, newEnc func() *encoder.Encoder, cfg Config) (*Fleet, error) {
	if mem == nil || newEnc == nil {
		return nil, errors.New("fleet: nil memory or encoder factory")
	}
	cfg = cfg.withDefaults()
	if cfg.Partitions > cfg.Replicas {
		return nil, fmt.Errorf("fleet: %d partitions need at least as many replicas, have %d", cfg.Partitions, cfg.Replicas)
	}
	parts, err := planParts(mem, cfg.Partitions, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	probe := newEnc()
	if probe == nil || probe.Dim() != mem.Dim() {
		return nil, fmt.Errorf("fleet: encoder factory dim mismatch with memory dim %d", mem.Dim())
	}
	f := &Fleet{
		cfg:     cfg,
		scheme:  cfg.Scheme,
		parts:   parts,
		dim:     mem.Dim(),
		classes: mem.Classes(),
		labels:  mem.Labels(),
		newEnc:  newEnc,
		curMem:  mem,
		holders: make([][]*replica, cfg.Partitions),
	}
	f.encs.New = func() any { return f.newEnc() }
	f.encs.Put(probe)
	f.gen.Store(1)
	return f, nil
}

// engineConfig is the serve.Config every replica engine runs with.
func (f *Fleet) engineConfig(gen uint64) serve.Config {
	return serve.Config{
		Workers:         f.cfg.Workers,
		MaxBatch:        f.cfg.MaxBatch,
		MaxDelay:        f.cfg.MaxDelay,
		Queue:           f.cfg.Queue,
		Policy:          f.cfg.Policy,
		FirstGen:        gen,
		ReportDistances: true,
	}
}

// Gen returns the model generation new requests are answered from.
func (f *Fleet) Gen() uint64 { return f.gen.Load() }

// Scheme returns the partition scheme.
func (f *Fleet) Scheme() Scheme { return f.scheme }

// Replicas returns the replica count.
func (f *Fleet) Replicas() int { return len(f.replicas) }

// Partitions returns the partition count.
func (f *Fleet) Partitions() int { return len(f.parts) }

// Ask classifies one text through the fleet: encode it once, scatter the
// encoded query to every partition, gather the partial reductions, reduce
// to one Answer. It returns an error only when there is nothing correct to
// answer with — the fleet is closed, the text has no n-grams (answered
// serve.ErrNoNGrams here, before any scatter), ctx ended, or every
// partition was erased.
func (f *Fleet) Ask(ctx context.Context, text string) (Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f.mu.RLock()
	closed := f.closed
	f.mu.RUnlock()
	if closed {
		return Answer{}, ErrClosed
	}
	f.asks.Add(1)
	vec, n := f.encode(text)
	if n == 0 {
		f.empty.Add(1)
		return Answer{}, serve.ErrNoNGrams
	}
	seq := f.seq.Add(1) - 1
	ps := make([]partial, len(f.parts))
	var wg sync.WaitGroup
	for i, pt := range f.parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ps[i] = f.askPartition(ctx, i, Query{Vec: vec, NGrams: n, Lo: pt.lo, Hi: pt.hi}, seq)
		}(i)
	}
	wg.Wait()
	ans, err := f.reduce(ctx, ps)
	if err != nil {
		return Answer{}, err
	}
	ans.NGrams = n
	return ans, nil
}

// encode is the fleet's one encode per ask, on pooled coordinator scratch.
// The returned vector is freshly allocated, so dispatches abandoned past
// the deadline may keep reading it after Ask returns.
func (f *Fleet) encode(text string) (*hv.Vector, int) {
	enc := f.encs.Get().(*encoder.Encoder)
	defer f.encs.Put(enc)
	return enc.EncodeText(text, f.cfg.Seed)
}

// askPartition drives one partition's ask to completion: pick a holder,
// dispatch under the deadline (hedging if enabled), and on replica failure
// retry the rotation with exponential backoff. Every attempt and hedge
// carries the same encoded query q. A caller's ended context returns
// immediately.
func (f *Fleet) askPartition(ctx context.Context, p int, q Query, seq uint64) partial {
	hs := f.holders[p]
	backoff := f.cfg.Backoff
	last := partial{part: p, err: fmt.Errorf("%w %d", errNoReplica, p)}
	failedOver := false // a transport failure preceded this attempt
	for a := 0; a <= f.cfg.Retries; a++ {
		if err := ctx.Err(); err != nil {
			return partial{part: p, err: err}
		}
		if a > 0 {
			f.retried.Add(1)
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return partial{part: p, err: ctx.Err()}
			}
			backoff *= 2
		}
		r := f.pick(hs, seq, a)
		if r == nil {
			continue // a probe may come due while other requests advance the clock
		}
		pr := f.attempt(ctx, r, hs, p, q, seq)
		// A caller's ended context indicts the request, not the replica:
		// no retry can help.
		if pr.err == nil || ctx.Err() != nil {
			if pr.err == nil && failedOver {
				f.failovers.Add(1) // a mirror answered what a dead transport lost
			}
			return pr
		}
		if errors.Is(pr.err, ErrTransport) {
			failedOver = true
		}
		last = pr
	}
	return last
}

// pick selects the dispatch target for one attempt. Holders are scanned in
// a rotation keyed by (request seq, attempt) so load spreads across mirrors
// and a retry prefers a different replica than the failed attempt; healthy
// replicas win over open breakers, which are admitted only as cooldown
// probes.
func (f *Fleet) pick(hs []*replica, seq uint64, attempt int) *replica {
	n := len(hs)
	start := (int(seq%uint64(n)) + attempt) % n
	for k := 0; k < n; k++ {
		if r := hs[(start+k)%n]; r.healthy() {
			return r
		}
	}
	now := f.seq.Load()
	for k := 0; k < n; k++ {
		if r := hs[(start+k)%n]; r.probeDue(now, f.cfg.Cooldown) {
			f.probes.Add(1)
			return r
		}
	}
	return nil
}

// pickOther returns a healthy holder other than not, for hedged
// re-dispatch (probes are never hedged onto).
func (f *Fleet) pickOther(hs []*replica, not *replica, seq uint64) *replica {
	n := len(hs)
	start := int(seq % uint64(n))
	for k := 0; k < n; k++ {
		if r := hs[(start+k)%n]; r != not && r.healthy() {
			return r
		}
	}
	return nil
}

// hedgeDelay resolves the straggler threshold: the fixed HedgeAfter when
// set, otherwise the HedgeQuantile of recent dispatch service times. With
// too few samples to trust a quantile, only the deadline bounds the
// attempt.
func (f *Fleet) hedgeDelay() time.Duration {
	if f.cfg.HedgeAfter > 0 {
		return f.cfg.HedgeAfter
	}
	q, n := f.lats.Quantile(f.cfg.HedgeQuantile)
	if n < 16 || q <= 0 {
		return f.cfg.Deadline
	}
	return q
}

// attempt runs one dispatch attempt against prim, re-issuing to another
// healthy holder if the primary straggles past the hedge threshold. The
// attempt abandons — but does not interrupt — a dispatch that outlives the
// per-replica deadline: a stalled replica costs the deadline, never the
// stall, and the abandoned dispatch still scores health when it finally
// finishes.
func (f *Fleet) attempt(ctx context.Context, prim *replica, hs []*replica, p int, q Query, seq uint64) partial {
	resc := make(chan partial, 2) // buffered: abandoned dispatches never block
	f.dispatchAsync(ctx, prim, p, q, seq, false, resc)
	outstanding := 1

	var hedgeC <-chan time.Time
	if f.cfg.Hedge && len(hs) > 1 {
		ht := time.NewTimer(f.hedgeDelay())
		defer ht.Stop()
		hedgeC = ht.C
	}
	dt := time.NewTimer(f.cfg.Deadline)
	defer dt.Stop()

	var last partial
	for {
		select {
		case pr := <-resc:
			outstanding--
			if pr.err == nil {
				if pr.hedge {
					f.hedgeWins.Add(1)
				}
				return pr
			}
			last = pr
			if outstanding == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			if h := f.pickOther(hs, prim, seq); h != nil {
				f.hedged.Add(1)
				f.dispatchAsync(ctx, h, p, q, seq, true, resc)
				outstanding++
				// The hedge copy gets a full deadline of its own.
				if !dt.Stop() {
					select {
					case <-dt.C:
					default:
					}
				}
				dt.Reset(f.cfg.Deadline)
			}
		case <-dt.C:
			return partial{part: p, err: fmt.Errorf("%w (%s, partition %d)", ErrDeadline, f.cfg.Deadline, p)}
		case <-ctx.Done():
			return partial{part: p, err: ctx.Err()}
		}
	}
}

// dispatchAsync runs one dispatch in its own goroutine, scoring the
// replica's health from the outcome and delivering the partial on resc.
func (f *Fleet) dispatchAsync(ctx context.Context, r *replica, p int, q Query, seq uint64, hedge bool, resc chan<- partial) {
	go func() {
		start := time.Now()
		pr := f.dispatch(ctx, r, p, q, seq)
		pr.hedge = hedge
		now := f.seq.Load()
		switch {
		case pr.err == nil:
			f.lats.Add(time.Since(start))
			r.score(0, f.cfg.EWMAAlpha, f.cfg.ErrorBound, now)
		case ctx.Err() == nil: // a caller's ended context is no replica failure
			r.score(1, f.cfg.EWMAAlpha, f.cfg.ErrorBound, now)
		}
		resc <- pr
	}()
}

// dispatch submits one request to a replica's transport under the
// per-replica deadline, running the chaos injectors around it, and
// bounds-validates the partial that comes back.
func (f *Fleet) dispatch(ctx context.Context, r *replica, p int, q Query, seq uint64) partial {
	tr := r.transport()
	if tr == nil {
		return partial{part: p, err: fmt.Errorf("fleet: replica %d stopped", r.id)}
	}
	dctx, cancel := context.WithTimeout(ctx, f.cfg.Deadline)
	defer cancel()
	for _, inj := range f.cfg.Chaos {
		if err := inj.BeforeDispatch(r.id, seq); err != nil {
			return partial{part: p, err: err}
		}
	}
	if err := dctx.Err(); err != nil {
		return partial{part: p, err: err} // a stall consumed the deadline
	}
	pt, err := tr.Ask(dctx, q)
	if err != nil {
		if errors.Is(err, ErrTransport) {
			f.remoteErrors.Add(1)
		}
		return partial{part: p, err: err}
	}
	ds := pt.Distances
	for _, inj := range f.cfg.Chaos {
		inj.AfterPartial(r.id, seq, ds)
	}
	if err := f.validatePartial(p, ds); err != nil {
		f.corrupt.Add(1)
		return partial{part: p, err: err}
	}
	return partial{part: p, ds: ds, gen: pt.Gen}
}

// validatePartial bounds-checks a replica's partial reduction: the right
// row count and every entry within the Hamming range its partition can
// produce. A detectably corrupt partial (fault.CorruptPartial writes
// out-of-range values) becomes an erasure plus a health strike, never part
// of an answer. In-range corruption is out of scope — that defense needs
// end-to-end checksums or redundant dispatch, not bounds validation.
func (f *Fleet) validatePartial(p int, ds []int) error {
	pt := f.parts[p]
	rows, max := f.classes, pt.bits
	if f.scheme == ByClasses {
		rows, max = pt.rhi-pt.rlo, f.dim
	}
	if len(ds) != rows {
		return fmt.Errorf("%w: partition %d returned %d rows, want %d", errCorrupt, p, len(ds), rows)
	}
	for i, v := range ds {
		if v < 0 || v > max {
			return fmt.Errorf("%w: partition %d row %d distance %d outside [0,%d]", errCorrupt, p, i, v, max)
		}
	}
	return nil
}

// Swap rolls a new model generation across the fleet: every running
// replica engine hot-swaps to its partition of mem — still with no
// encoder; the coordinator's encoders serve every generation, since the
// new memory must match the fleet's dimension — (draining its old
// generation exactly as serve.Engine.Swap guarantees), stopped replicas
// rejoin at the new generation via StartReplica, and the gather's
// generation filter keeps any answer from mixing old and new partials
// while the roll is in flight. The new memory must have the same dimension
// and labels as the fleet was built with.
func (f *Fleet) Swap(mem *core.Memory) (uint64, error) {
	if mem == nil {
		return 0, errors.New("fleet: nil memory")
	}
	f.genMu.Lock()
	defer f.genMu.Unlock()
	f.mu.RLock()
	closed := f.closed
	f.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	local := false
	for _, r := range f.replicas {
		if !r.remote {
			local = true
			break
		}
	}
	if !local {
		return 0, errors.New("fleet: remote replicas roll their own generations; swap the snapshot on the replica processes")
	}
	if mem.Dim() != f.dim {
		return 0, fmt.Errorf("fleet: swap dim %d, fleet dim %d", mem.Dim(), f.dim)
	}
	labels := mem.Labels()
	if len(labels) != len(f.labels) {
		return 0, fmt.Errorf("fleet: swap has %d classes, fleet has %d", len(labels), len(f.labels))
	}
	for i := range labels {
		if labels[i] != f.labels[i] {
			return 0, fmt.Errorf("fleet: swap label %d is %q, fleet has %q", i, labels[i], f.labels[i])
		}
	}
	// Build every partition's model before touching any engine, so a bad
	// memory cannot leave the fleet half-swapped.
	type pm struct {
		m *core.Memory
		s core.Searcher
	}
	models := make([]pm, len(f.parts))
	for i, pt := range f.parts {
		m, s, err := buildModel(mem, f.scheme, pt)
		if err != nil {
			return 0, err
		}
		models[i] = pm{m: m, s: s}
	}
	next := f.gen.Load() + 1
	for _, r := range f.replicas {
		if r.remote {
			// Remote processes roll their own generations (hamserve -load of
			// a new snapshot); the gather's generation filter keeps answers
			// consistent while local and remote gens disagree.
			continue
		}
		r.mu.Lock()
		eng := serveEngine(r.tr)
		if eng == nil {
			r.mu.Unlock()
			continue // stopped: StartReplica rejoins it at the fleet generation
		}
		g, err := eng.Swap(models[r.part].m, models[r.part].s, nil)
		r.mu.Unlock()
		if err != nil {
			return 0, fmt.Errorf("fleet: swap replica %d: %w", r.id, err)
		}
		if g != next {
			return 0, fmt.Errorf("fleet: replica %d swapped to generation %d, fleet expected %d", r.id, g, next)
		}
	}
	f.curMem = mem
	f.gen.Store(next)
	f.swaps.Add(1)
	return next, nil
}

// StopReplica administratively stops one replica: its transport is closed
// (an engine still answers queued work) and the replica takes no
// dispatches until StartReplica. Stopping every holder of a partition
// degrades answers, not availability — the reduce scores the partition as
// an erasure.
func (f *Fleet) StopReplica(id int) error {
	if id < 0 || id >= len(f.replicas) {
		return fmt.Errorf("fleet: replica %d out of range [0,%d)", id, len(f.replicas))
	}
	r := f.replicas[id]
	r.mu.Lock()
	tr := r.tr
	r.tr = nil
	r.mu.Unlock()
	if tr == nil {
		return fmt.Errorf("fleet: replica %d already stopped", id)
	}
	return tr.Close()
}

// StartReplica restarts a stopped replica with a fresh engine over the
// fleet's current model at the fleet's current generation and a clean
// health slate: the operational recovery path after StopReplica (or after
// replacing a crashed replica's hardware, in the deployment this models).
func (f *Fleet) StartReplica(id int) error {
	if id < 0 || id >= len(f.replicas) {
		return fmt.Errorf("fleet: replica %d out of range [0,%d)", id, len(f.replicas))
	}
	f.genMu.Lock() // pins (curMem, gen) while the engine builds
	defer f.genMu.Unlock()
	f.mu.RLock()
	closed := f.closed
	f.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	r := f.replicas[id]
	if r.remote {
		return fmt.Errorf("fleet: replica %d is remote; restart its process or transport instead", id)
	}
	if r.transport() != nil {
		return fmt.Errorf("fleet: replica %d already running", id)
	}
	m, s, err := buildModel(f.curMem, f.scheme, f.parts[r.part])
	if err != nil {
		return err
	}
	eng, err := serve.New(m, s, nil, f.engineConfig(f.gen.Load()))
	if err != nil {
		return err
	}
	r.reset(engineTransport{eng})
	return nil
}

// Close stops intake and closes every replica transport (an engine still
// answers everything already queued). It is idempotent (also with Drain).
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, r := range f.replicas {
		if tr := r.transport(); tr != nil {
			wg.Add(1)
			go func(tr ReplicaTransport) {
				defer wg.Done()
				tr.Close()
			}(tr)
		}
	}
	wg.Wait()
}

// Drain gracefully shuts the fleet down under a deadline: intake stops
// immediately and every replica engine drains concurrently, failing its
// remaining work fast once ctx ends (see serve.Engine.Drain). It returns
// the total number of requests abandoned across the fleet.
func (f *Fleet) Drain(ctx context.Context) (abandoned uint64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	var wg sync.WaitGroup
	var total atomic.Uint64
	errs := make([]error, len(f.replicas))
	for i, r := range f.replicas {
		if tr := r.transport(); tr != nil {
			wg.Add(1)
			go func(i int, tr ReplicaTransport) {
				defer wg.Done()
				if d, ok := tr.(drainableTransport); ok {
					n, derr := d.Drain(ctx)
					total.Add(n)
					errs[i] = derr
					return
				}
				// Remote replicas drain on their own side; the coordinator
				// just releases the connection.
				errs[i] = tr.Close()
			}(i, tr)
		}
	}
	wg.Wait()
	return total.Load(), errors.Join(errs...)
}

// Stats is a snapshot of the coordinator's counters.
type Stats struct {
	Asks       uint64 // requests scattered
	Answered   uint64 // requests reduced to an Answer
	Degraded   uint64 // of which with at least one erasure
	NoCoverage uint64 // requests failed with ErrNoCoverage
	Empty      uint64 // requests failed with serve.ErrNoNGrams (never scattered)
	Erasures   uint64 // partition results lost after retries
	Retried    uint64 // dispatch retries performed
	Hedged     uint64 // straggling dispatches re-issued to a mirror
	HedgeWins  uint64 // partition asks answered by the hedge copy
	GenDropped uint64 // partials discarded by the generation filter
	Corrupt    uint64 // partials rejected by bounds validation
	Probes     uint64 // dispatches admitted through open breakers
	Swaps      uint64 // completed fleet generation rolls

	// Remote-transport counters (zero for all-in-process fleets).
	Failovers    uint64 // partition asks rescued by a mirror after a transport failure
	RemoteErrors uint64 // dispatches failed at the transport layer (ErrTransport)
	Reconnects   uint64 // connections re-established across all transports
}

// DegradedRate is the fraction of answered requests that were degraded.
func (s Stats) DegradedRate() float64 {
	if s.Answered == 0 {
		return 0
	}
	return float64(s.Degraded) / float64(s.Answered)
}

// Stats returns a snapshot of the coordinator's counters.
func (f *Fleet) Stats() Stats {
	var reconnects uint64
	for _, r := range f.replicas {
		if h, ok := r.transport().(TransportHealth); ok {
			reconnects += h.Reconnects()
		}
	}
	return Stats{
		Asks:         f.asks.Load(),
		Answered:     f.answered.Load(),
		Degraded:     f.degraded.Load(),
		NoCoverage:   f.noCoverage.Load(),
		Empty:        f.empty.Load(),
		Erasures:     f.erasures.Load(),
		Retried:      f.retried.Load(),
		Hedged:       f.hedged.Load(),
		HedgeWins:    f.hedgeWins.Load(),
		GenDropped:   f.genDropped.Load(),
		Corrupt:      f.corrupt.Load(),
		Probes:       f.probes.Load(),
		Swaps:        f.swaps.Load(),
		Failovers:    f.failovers.Load(),
		RemoteErrors: f.remoteErrors.Load(),
		Reconnects:   reconnects,
	}
}

// ReplicaStats is the health view of one replica.
type ReplicaStats struct {
	ID              int
	Partition       int
	Running         bool
	Remote          bool   // served through a remote transport
	Connected       bool   // transport can carry a dispatch right now
	Reconnects      uint64 // transport connections re-established
	BreakerOpen     bool
	Opens           uint64      // breaker open transitions
	Probes          uint64      // dispatches admitted as probes
	FailureEstimate float64     // current EWMA failure estimate
	Dispatches      uint64      // dispatch outcomes scored
	Failures        uint64      // of which failures
	Engine          serve.Stats // in-process replicas only
}

// ReplicaStats snapshots every replica's health view.
func (f *Fleet) ReplicaStats() []ReplicaStats {
	out := make([]ReplicaStats, len(f.replicas))
	for i, r := range f.replicas {
		r.mu.Lock()
		out[i] = ReplicaStats{
			ID:              r.id,
			Partition:       r.part,
			Running:         r.tr != nil,
			Remote:          r.remote,
			BreakerOpen:     r.open,
			Opens:           r.opens,
			Probes:          r.probes,
			FailureEstimate: r.errEWMA,
			Dispatches:      r.dispatches,
			Failures:        r.failures,
		}
		tr := r.tr
		r.mu.Unlock()
		if h, ok := tr.(TransportHealth); ok {
			out[i].Connected = h.Connected()
			out[i].Reconnects = h.Reconnects()
		}
		if eng := serveEngine(tr); eng != nil {
			out[i].Engine = eng.Stats()
		}
	}
	return out
}
