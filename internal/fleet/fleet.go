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
//     rotation of its holders with exponential backoff. All of it runs as
//     events of one scatter-gather loop on the asking goroutine (see Ask):
//     in-process replicas answer inline, and the loop waits — on one timer
//     per ask — only for transports that resolve asynchronously.
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
	"math"
	"slices"
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

// errStopped is the dispatch error of a replica stopped after its pick.
var errStopped = errors.New("fleet: replica stopped")

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

	// Seed drives the coordinator encoder's majority tie-breaks (default
	// 2017, the serve engine's default), so fleet answers are bit-identical
	// to a single engine or serial loop encoding with the same seed.
	// Replicas never encode, so they need no seed of their own.
	Seed uint64

	// Deadline bounds each asynchronous (remote or chaos-wrapped) dispatch
	// attempt (default 100ms). A replica that stalls past it is abandoned:
	// the attempt fails and retries elsewhere, and the replica's health is
	// scored when its dispatch returns. In-process replicas answer inline.
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

	// Chaos injects replica-level faults at dispatch and gather time (see
	// fault.ReplicaInjector) by decorating every in-process replica's
	// transport, which then resolves asynchronously. NewRemote refuses it.
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

// partial is one partition's gathered result, from attempt attempt.
type partial struct {
	part, attempt int
	ds            []int
	gen           uint64
	hedge         bool
	err           error
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
	encs    sync.Pool        // *encoder.Encoder scratch for the coordinator's encode
	probe   *encoder.Encoder // the factory's first encoder: its Dim, N and Seed never change
	scratch sync.Pool        // *askScratch of asks whose dispatches all settled inline

	replicas []*replica
	holders  [][]*replica // holders[p] = replicas serving partition p

	genMu  sync.Mutex // serializes Swap/StartReplica; guards curMem
	curMem *core.Memory
	gen    atomic.Uint64

	closed atomic.Bool

	seq  atomic.Uint64 // fleet request clock (chaos schedule, breaker cooldown)
	lats latencyRing

	asks, answered, degraded, noCoverage atomic.Uint64
	empty, erasures, retried             atomic.Uint64
	hedged, hedgeWins                    atomic.Uint64
	genDropped, corrupt, probes          atomic.Uint64
	swaps, failovers, remoteErrors       atomic.Uint64
}

// New builds a fleet serving mem whose coordinator encodes text with
// encoders from newEnc (the same factory contract as serve.New). The
// replica engines get no encoder: they answer the coordinator's encoded
// queries on the asking goroutine. Every replica engine starts immediately
// at generation 1.
func New(mem *core.Memory, newEnc func() *encoder.Encoder, cfg Config) (*Fleet, error) {
	f, err := newCoordinator(mem, newEnc, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.cfg.Replicas; i++ {
		p := f.parts[i%f.cfg.Partitions]
		tr, err := f.newReplicaEngine(mem, p, 1, i)
		if err != nil {
			for _, r := range f.replicas { // unwind the engines already started
				r.tr.Close()
			}
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
		r := &replica{id: i, part: p.index, tr: tr}
		f.replicas = append(f.replicas, r)
		f.holders[p.index] = append(f.holders[p.index], r)
	}
	return f, nil
}

// newReplicaEngine starts replica id's in-process engine over partition p
// of mem at generation gen, behind the Config.Chaos decorator when set.
func (f *Fleet) newReplicaEngine(mem *core.Memory, p part, gen uint64, id int) (ReplicaTransport, error) {
	m, s, err := buildModel(mem, f.scheme, p)
	if err != nil {
		return nil, err
	}
	// One worker: fleet asks answer inline, so only a direct GoEncoded or
	// Submit to the replica engine ever reaches its queue.
	eng, err := serve.New(m, s, nil, serve.Config{Workers: 1, FirstGen: gen, ReportDistances: true})
	if err != nil {
		return nil, err
	}
	if len(f.cfg.Chaos) > 0 {
		return chaosTransport{ReplicaTransport: engineTransport{eng}, id: id, injs: f.cfg.Chaos}, nil
	}
	return engineTransport{eng}, nil
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
	if len(transports) == 0 || len(cfg.Chaos) > 0 {
		return nil, errors.New("fleet: a remote fleet needs transports and takes no replica chaos")
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
		curMem:  mem,
		probe:   probe,
		holders: make([][]*replica, cfg.Partitions),
	}
	f.encs.New = func() any { return newEnc() }
	f.encs.Put(probe)
	f.scratch.New = func() any { return f.newScratch() }
	f.gen.Store(1)
	return f, nil
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
// to one Answer — all on the calling goroutine. It returns an error only
// when there is nothing correct to answer with — the fleet is closed, the
// text has no n-grams (answered serve.ErrNoNGrams here, before any
// scatter), ctx ended, or every partition was erased. An ask whose
// replicas all answer inline allocates nothing: it runs on pooled scratch.
func (f *Fleet) Ask(ctx context.Context, text string) (Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if f.closed.Load() {
		return Answer{}, ErrClosed
	}
	f.asks.Add(1)
	// The one encode per ask, into the ask's pooled query vector.
	sc := f.scratch.Get().(*askScratch)
	enc := f.encs.Get().(*encoder.Encoder)
	n := enc.EncodeInto(sc.vec, text, f.cfg.Seed)
	f.encs.Put(enc)
	if n == 0 {
		f.scratch.Put(sc)
		f.empty.Add(1)
		return Answer{}, serve.ErrNoNGrams
	}
	g := gather{
		f: f, ctx: ctx, q: Query{Vec: sc.vec, NGrams: n, Seq: f.seq.Add(1) - 1},
		ps: sc.ps, st: sc.st, rows: sc.rows,
	}
	ans, err := f.reduce(ctx, g.run(), sc.sum)
	if g.res == nil {
		// Every dispatch settled inline, so nothing can still read the
		// scratch. An abandoned asynchronous dispatch may read the vector
		// past its deadline: the GC takes that ask's scratch.
		f.scratch.Put(sc)
	}
	if err != nil {
		return Answer{}, err
	}
	ans.NGrams = n
	return ans, nil
}

// askScratch is the state one ask needs and the next can reuse: the query
// vector the coordinator encodes into, the gather's per-partition outcomes
// and progress, one distance row per partition for inline replicas to
// answer into, and the ByWords sum.
type askScratch struct {
	vec  *hv.Vector
	ps   []partial
	st   []slot
	rows [][]int
	sum  []int
}

// newScratch sizes one ask's scratch for the fleet's geometry, which Swap
// never changes: rows[p] holds partition p's rows (every class under
// ByWords, its band under ByClasses).
func (f *Fleet) newScratch() *askScratch {
	n := len(f.parts)
	sc := &askScratch{
		vec:  hv.New(f.dim),
		ps:   make([]partial, n),
		st:   make([]slot, n),
		rows: make([][]int, n),
		sum:  make([]int, f.classes),
	}
	for p, pt := range f.parts {
		rows := f.classes
		if f.scheme == ByClasses {
			rows = pt.rhi - pt.rlo
		}
		sc.rows[p] = make([]int, rows)
	}
	return sc
}

// gather is one ask's scatter-gather loop. Every partition's attempts,
// retries and hedges are events it drives on the asking goroutine: an
// in-process replica answers inline as it is dispatched; any other
// transport resolves on its own goroutine into res. The loop blocks only
// when nothing is ready, on res, ctx and one timer set to the nearest
// deadline, hedge or backoff wake-up.
type gather struct {
	f     *Fleet
	ctx   context.Context
	q     Query
	ps    []partial // each partition's outcome; its last error until then
	st    []slot
	rows  [][]int      // each partition's row for inline dispatches
	open  int          // partitions without an outcome
	res   chan partial // asynchronous outcomes; made on the first
	timer *time.Timer  // made on the first wait that needs a bound
}

// slot is one partition's progress. An unresolved slot is either backing
// off or waiting on asynchronous dispatches, so due is always set.
type slot struct {
	attempt, out              int       // attempts started; the current one's unsettled dispatches
	prim                      *replica  // the current attempt's first target
	due                       time.Time // the backoff's end, or the newest dispatch's deadline
	hedgeAt                   time.Time // when the current attempt hedges (zero: never)
	backoff, failedOver, done bool      // failedOver: a transport failure came first
}

// run scatters the query and gathers until every partition has an outcome.
func (g *gather) run() []partial {
	clear(g.ps)
	clear(g.st)
	g.open = len(g.st)
	for p := range g.st {
		g.start(p)
	}
	for g.open > 0 {
		g.wait()
	}
	if g.timer != nil {
		g.timer.Stop()
	}
	return g.ps
}

// start begins partition p's next attempt on the holder the rotation
// picks, arming a hedge if the dispatch went asynchronous.
func (g *gather) start(p int) {
	s, hs := &g.st[p], g.f.holders[p]
	s.backoff, s.hedgeAt = false, time.Time{}
	s.attempt++
	if s.prim = g.f.pick(hs, g.q.Seq, s.attempt-1, nil); s.prim == nil {
		g.retry(p) // a probe may come due while other requests advance the clock
	} else if g.dispatch(p, s.prim, false) && g.f.cfg.Hedge && len(hs) > 1 {
		s.hedgeAt = time.Now().Add(g.f.hedgeDelay())
	}
}

// dispatch sends partition p's query to r and reports whether the outcome
// arrives asynchronously. An in-process (or stopped) replica settles before
// dispatch returns, answering into p's row; any other transport runs on its
// own goroutine under a deadline, which a hedge copy gets afresh, and
// answers into a row of its own.
func (g *gather) dispatch(p int, r *replica, hedge bool) bool {
	s, tr, q := &g.st[p], r.transport(), g.q
	q.Lo, q.Hi = g.f.parts[p].lo, g.f.parts[p].hi
	s.out++
	if _, inline := tr.(engineTransport); inline || tr == nil {
		q.Dst = g.rows[p]
		g.settle(g.f.call(g.ctx, r, tr, p, q, hedge, s.attempt))
		return false
	}
	q.Deadline = time.Now().Add(g.f.cfg.Deadline)
	s.due = q.Deadline
	if g.res == nil {
		// Room for every asynchronous dispatch one ask can make (a primary
		// and a hedge per attempt): an abandoned one never blocks its sender.
		g.res = make(chan partial, len(g.st)*(g.f.cfg.Retries+1)*2)
	}
	f, ctx, res, a := g.f, g.ctx, g.res, s.attempt
	go func() { res <- f.call(ctx, r, tr, p, q, hedge, a) }()
	return true
}

// settle folds one dispatch outcome into its partition. Outcomes of an
// attempt abandoned at its deadline are dropped: their dispatch has scored
// the replica's health.
func (g *gather) settle(pr partial) {
	s := &g.st[pr.part]
	if s.done || s.backoff || pr.attempt != s.attempt {
		return
	}
	s.out--
	if pr.err == nil {
		if pr.hedge {
			g.f.hedgeWins.Add(1)
		}
		if s.failedOver {
			g.f.failovers.Add(1) // a mirror answered what a dead transport lost
		}
		g.resolve(pr)
		return
	}
	g.ps[pr.part].err = pr.err
	s.failedOver = s.failedOver || errors.Is(pr.err, ErrTransport)
	if s.out == 0 { // no hedge copy left to wait for
		g.retry(pr.part)
	}
}

// retry schedules partition p's next attempt after an exponential backoff,
// or resolves p with its last error once the attempts are spent. A
// caller's ended context indicts the request, not the replica: no retry
// can help.
func (g *gather) retry(p int) {
	s := &g.st[p]
	s.out = 0
	switch err := g.ctx.Err(); {
	case err != nil:
		g.resolve(partial{part: p, err: err})
	case s.attempt <= g.f.cfg.Retries:
		g.f.retried.Add(1)
		s.backoff, s.hedgeAt = true, time.Time{}
		s.due = time.Now().Add(g.f.cfg.Backoff << (s.attempt - 1))
	case g.ps[p].err != nil:
		g.resolve(partial{part: p, err: g.ps[p].err})
	default:
		g.resolve(partial{part: p, err: fmt.Errorf("%w %d", errNoReplica, p)})
	}
}

// resolve records a partition's outcome.
func (g *gather) resolve(pr partial) {
	g.ps[pr.part], g.st[pr.part].done = pr, true
	g.open--
}

// wait handles the next event: a ready asynchronous outcome at once;
// otherwise it sets the timer to the nearest deadline, hedge or backoff
// wake-up and blocks on it, the outcomes and ctx.
func (g *gather) wait() {
	select {
	case pr := <-g.res: // nil until the first asynchronous dispatch
		g.settle(pr)
		return
	default:
	}
	var next time.Time
	for p := range g.st {
		if s := &g.st[p]; !s.done {
			if next.IsZero() || s.due.Before(next) {
				next = s.due
			}
			if !s.hedgeAt.IsZero() && s.hedgeAt.Before(next) {
				next = s.hedgeAt
			}
		}
	}
	if d := time.Until(next); d > 0 {
		if g.timer == nil {
			g.timer = time.NewTimer(d)
		} else {
			if !g.timer.Stop() {
				select { // drop a fire the loop did not wait for
				case <-g.timer.C:
				default:
				}
			}
			g.timer.Reset(d)
		}
		select {
		case pr := <-g.res:
			g.settle(pr)
			return
		case <-g.ctx.Done():
			for p := range g.st {
				if !g.st[p].done {
					g.resolve(partial{part: p, err: g.ctx.Err()})
				}
			}
			return
		case <-g.timer.C:
		}
	}
	g.expire(time.Now())
}

// expire fires the timed events due by now: a backoff's end starts the next
// attempt, a deadline abandons the attempt's dispatches and retries, and a
// hedge re-issues the straggling attempt to another healthy holder.
func (g *gather) expire(now time.Time) {
	for p := range g.st {
		switch s := &g.st[p]; {
		case s.done:
		case s.backoff && !now.Before(s.due):
			g.start(p)
		case !s.backoff && !now.Before(s.due):
			g.ps[p].err = fmt.Errorf("%w (%s, partition %d)", ErrDeadline, g.f.cfg.Deadline, p)
			g.retry(p)
		case !s.hedgeAt.IsZero() && !now.Before(s.hedgeAt):
			s.hedgeAt = time.Time{}
			if h := g.f.pick(g.f.holders[p], g.q.Seq, 0, s.prim); h != nil {
				g.f.hedged.Add(1)
				g.dispatch(p, h, true)
			}
		}
	}
}

// pick selects the dispatch target for one attempt, or (not non-nil) for
// a hedge of the attempt sent to not. Holders are scanned in a rotation
// keyed by (request seq, attempt) so load spreads across mirrors and a
// retry prefers a different replica than the failed attempt; healthy
// replicas win over open breakers, which are admitted only as cooldown
// probes and never hedged onto.
func (f *Fleet) pick(hs []*replica, seq uint64, attempt int, not *replica) *replica {
	n := len(hs)
	start := (int(seq%uint64(n)) + attempt) % n
	for k := 0; k < n; k++ {
		if r := hs[(start+k)%n]; r != not && r.healthy() {
			return r
		}
	}
	if not != nil {
		return nil
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

// latencyRing is a fixed ring of recent successful dispatch times feeding
// the adaptive hedge threshold. The zero value is ready to use; it is safe
// for concurrent use.
type latencyRing struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   int // samples stored, ≤ len(buf)
	idx int // next write position
}

// add records one service time, evicting the oldest once the ring is full.
func (l *latencyRing) add(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// quantile returns the q-th quantile (0..1) of the stored samples by the
// rounded nearest-rank rule — the sample at round(q·(n-1)) — and how many
// samples back it (0 means no data yet). Truncating the rank instead would
// bias a tail threshold low: p95 of 10 samples would land on the 9th, not
// the 10th. The samples are sorted in a copy on the stack, so asking
// allocates nothing.
func (l *latencyRing) quantile(q float64) (time.Duration, int) {
	var tmp [len(l.buf)]time.Duration
	l.mu.Lock()
	n := copy(tmp[:], l.buf[:l.n])
	l.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	slices.Sort(tmp[:n])
	i := int(math.Round(q * float64(n-1)))
	return tmp[min(max(i, 0), n-1)], n
}

// hedgeDelay resolves the straggler threshold: the fixed HedgeAfter when
// set, otherwise the HedgeQuantile of recent dispatch service times. With
// too few samples to trust a quantile, only the deadline bounds the
// attempt.
func (f *Fleet) hedgeDelay() time.Duration {
	if f.cfg.HedgeAfter > 0 {
		return f.cfg.HedgeAfter
	}
	q, n := f.lats.quantile(f.cfg.HedgeQuantile)
	if n < 16 || q <= 0 {
		return f.cfg.Deadline
	}
	return q
}

// call runs one dispatch of attempt a of partition p's query against
// replica r's transport tr (nil once r is stopped), bounds-validates the
// partial and scores r's health from the outcome: on the asking goroutine
// for an inline transport, on the dispatch's own otherwise.
func (f *Fleet) call(ctx context.Context, r *replica, tr ReplicaTransport, p int, q Query, hedge bool, a int) partial {
	start := time.Now()
	var pt Partial
	err := errStopped
	if tr != nil {
		pt, err = tr.Ask(ctx, q)
	}
	switch {
	case err == nil:
		if err = f.validatePartial(p, pt.Distances); err != nil {
			f.corrupt.Add(1)
		}
	case errors.Is(err, ErrTransport):
		f.remoteErrors.Add(1)
	}
	now := f.seq.Load()
	switch {
	case err == nil:
		if f.cfg.Hedge {
			f.lats.add(time.Since(start))
		}
		r.score(0, f.cfg.EWMAAlpha, f.cfg.ErrorBound, now)
	case ctx.Err() == nil: // a caller's ended context is no replica failure
		r.score(1, f.cfg.EWMAAlpha, f.cfg.ErrorBound, now)
	}
	return partial{part: p, ds: pt.Distances, gen: pt.Gen, hedge: hedge, attempt: a, err: err}
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
// encoder — (draining its old generation exactly as serve.Engine.Swap
// guarantees), stopped replicas rejoin at the new generation via
// StartReplica, and the gather's generation filter keeps any answer from
// mixing old and new partials while the roll is in flight. The new memory
// must have the same dimension and labels as the fleet was built with.
//
// newEnc is the encoder factory the new generation was trained with. The
// coordinator's encoders serve every generation, so Swap refuses a factory
// whose encoder differs from them in dimension, n-gram order or item seed:
// such a model would be served queries from another item memory and answer
// at chance. A factory that agrees encodes bit-identically, and the
// coordinator keeps its own.
func (f *Fleet) Swap(mem *core.Memory, newEnc func() *encoder.Encoder) (uint64, error) {
	if mem == nil || newEnc == nil {
		return 0, errors.New("fleet: nil memory or encoder factory")
	}
	if enc, cur := newEnc(), f.probe; enc == nil || enc.Dim() != cur.Dim() || enc.N() != cur.N() || enc.Seed() != cur.Seed() {
		return 0, fmt.Errorf("fleet: swap encoder differs from the coordinator's D=%d, %d-grams, seed %d", cur.Dim(), cur.N(), cur.Seed())
	}
	f.genMu.Lock()
	defer f.genMu.Unlock()
	if f.closed.Load() {
		return 0, ErrClosed
	}
	if f.replicas[0].remote { // New builds in-process replicas only, NewRemote remote ones
		return 0, errors.New("fleet: remote replicas roll their own generations; swap the snapshot on the replica processes")
	}
	if mem.Dim() != f.dim {
		return 0, fmt.Errorf("fleet: swap dim %d, fleet dim %d", mem.Dim(), f.dim)
	}
	if !slices.Equal(mem.Labels(), f.labels) {
		return 0, fmt.Errorf("fleet: swap labels %q, fleet labels %q", mem.Labels(), f.labels)
	}
	// Build every partition's model before touching any engine, so a bad
	// memory cannot leave the fleet half-swapped.
	ms, ss := make([]*core.Memory, len(f.parts)), make([]core.Searcher, len(f.parts))
	for i, pt := range f.parts {
		var err error
		if ms[i], ss[i], err = buildModel(mem, f.scheme, pt); err != nil {
			return 0, err
		}
	}
	next := f.gen.Load() + 1
	for _, r := range f.replicas {
		r.mu.Lock()
		eng := serveEngine(r.tr)
		if eng == nil {
			r.mu.Unlock()
			continue // stopped: StartReplica rejoins it at the fleet generation
		}
		g, err := eng.Swap(ms[r.part], ss[r.part], nil)
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
	if f.closed.Load() {
		return ErrClosed
	}
	r := f.replicas[id]
	if r.remote {
		return fmt.Errorf("fleet: replica %d is remote; restart its process or transport instead", id)
	}
	if r.transport() != nil {
		return fmt.Errorf("fleet: replica %d already running", id)
	}
	tr, err := f.newReplicaEngine(f.curMem, f.parts[r.part], f.gen.Load(), id)
	if err != nil {
		return err
	}
	r.reset(tr)
	return nil
}

// Close stops intake and closes every replica transport (an engine still
// answers everything already queued): Drain without a deadline. It is
// idempotent (also with Drain).
func (f *Fleet) Close() { f.Drain(context.Background()) }

// Drain gracefully shuts the fleet down under a deadline: intake stops
// immediately and every replica engine drains in turn, failing its
// remaining work fast once ctx ends (see serve.Engine.Drain); remote
// replicas drain on their own side, so their transports just close. It
// returns the total number of requests abandoned across the fleet.
func (f *Fleet) Drain(ctx context.Context) (abandoned uint64, err error) {
	f.closed.Store(true)
	var errs []error
	for _, r := range f.replicas {
		tr := r.transport()
		if eng := serveEngine(tr); eng != nil {
			n, err := eng.Drain(ctx)
			abandoned += n
			errs = append(errs, err)
		} else if tr != nil {
			errs = append(errs, tr.Close())
		}
	}
	return abandoned, errors.Join(errs...)
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
		out[i].Connected = tr != nil
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
