package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"hdam/internal/core"
	"hdam/internal/hv"
	"hdam/internal/learn"
	"hdam/internal/netserve"
	"hdam/internal/serve"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanRequest   spanKind = iota // client round trip of one query
	spanBackend                   // netserve.Backend.Go to its response
	spanSearch                    // one core.Searcher call inside an engine worker
	spanLearn                     // client round trip of one learn frame
	spanReconcile                 // learn.Learner.Reconcile
	spanCheck                     // store.Registry.Check, swap included
	spanSwap                      // serve.Engine.Swap inside the registry closure
)

var spanNames = [...]string{"client.request", "netserve.backend", "search.query", "client.learn", "learn.reconcile", "store.check", "serve.swap"}

// span is one recorded interval. Times are nanoseconds since the recorder's
// epoch; parent and req are span ids (0 when unknown). Spans of one request
// share req, the id of its client span.
type span struct {
	start, end  int64
	parent, req uint64
	kind        spanKind
}

// recorder keeps spans in a fixed in-memory buffer; ids are buffer index+1.
// Spans past its capacity are counted and dropped. It is written out once,
// when the benchmark ends.
type recorder struct {
	epoch   time.Time
	buf     []span
	next    atomic.Uint64
	dropped atomic.Uint64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), buf: make([]span, capacity)}
}

// reserve allocates a span id to fill later, so children can name their
// parent before it ends; 0 means the buffer is full.
func (r *recorder) reserve() uint64 {
	id := r.next.Add(1)
	if id > uint64(len(r.buf)) {
		r.dropped.Add(1)
		return 0
	}
	return id
}

func (r *recorder) fill(id uint64, kind spanKind, start, end time.Time, parent, req uint64) {
	if id == 0 {
		return
	}
	r.buf[id-1] = span{start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch)), parent: parent, req: req, kind: kind}
}

func (r *recorder) add(kind spanKind, start, end time.Time, parent, req uint64) uint64 {
	id := r.reserve()
	r.fill(id, kind, start, end, parent, req)
	return id
}

// writeCSV writes the recorded spans, one per line.
func (r *recorder) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	n := min(r.next.Load(), uint64(len(r.buf)))
	for i := uint64(0); i < n; i++ {
		s := r.buf[i]
		if s.end == 0 {
			continue // reserved, never filled (request still in flight at exit)
		}
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i+1, s.parent, s.req, spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer times calls into each layer's public functions from outside the
// program: the wrappers below sit between the benchmark's stack and the
// packages it drives. Recording happens only while on is set, so a traced
// run can alternate traced and untraced slices to measure its own overhead.
type tracer struct {
	on  atomic.Bool
	rec *recorder

	// poolIndex maps a query text to its pool slot and inflight holds the
	// client span id of the request using that slot. Each slot belongs to
	// one closed-loop connection, so at most one request uses it at a time;
	// that is how a backend span finds the request it serves.
	poolIndex map[string]int
	inflight  []atomic.Uint64
	// backendSpan holds the last backend duration per slot, for the
	// client's self-time subtraction.
	backendSpan []atomic.Int64

	backend, search, self, learnAck hist
	reconcile, check, swap          hist
	searches                        atomic.Uint64

	// Reconcile-path state, touched only by the one goroutine that calls
	// Reconcile: the registry check and its swap closure run synchronously
	// inside it.
	swapMax, reconcileMax time.Duration
	reconcileID, checkID  uint64
	lastSwap              time.Duration
}

func newTracer(queries []string, spanCap int) *tracer {
	t := &tracer{
		rec:         newRecorder(spanCap),
		poolIndex:   make(map[string]int, len(queries)),
		inflight:    make([]atomic.Uint64, len(queries)),
		backendSpan: make([]atomic.Int64, len(queries)),
	}
	for i, q := range queries {
		t.poolIndex[q] = i
	}
	return t
}

// requestDone records one client query round trip and its self time in
// the network layer: the round trip minus the backend span of the same
// request.
func (t *tracer) requestDone(id uint64, slot int, start, end time.Time) {
	rtt := end.Sub(start)
	if b := time.Duration(t.backendSpan[slot].Load()); b > 0 && b <= rtt {
		t.self.record(rtt - b)
	}
	t.rec.fill(id, spanRequest, start, end, 0, id)
}

// beginReconcile reserves the reconcile span, so the registry check inside
// it can name it as parent.
func (t *tracer) beginReconcile() { t.reconcileID = t.rec.reserve() }

func (t *tracer) reconciled(start, end time.Time) {
	d := end.Sub(start)
	t.reconcile.record(d)
	t.reconcileMax = max(t.reconcileMax, d)
	t.rec.fill(t.reconcileID, spanReconcile, start, end, 0, 0)
}

func (t *tracer) beginCheck() {
	t.checkID = t.rec.reserve()
	t.lastSwap = 0
}

// checked records a registry check's own time: open and validate, without
// the swap closure it called.
func (t *tracer) checked(start, end time.Time) {
	t.check.record(end.Sub(start) - t.lastSwap)
	t.rec.fill(t.checkID, spanCheck, start, end, t.reconcileID, 0)
}

func (t *tracer) swapped(start, end time.Time) {
	d := end.Sub(start)
	t.swap.record(d)
	t.swapMax = max(t.swapMax, d)
	t.lastSwap = d
	t.rec.add(spanSwap, start, end, t.checkID, 0)
}

// timedSearcher wraps the served core.Searcher. It forwards the optional
// BufferedSearcher and ForkableSearcher capabilities (and RowSearcher, via
// timedRowSearcher) so the engine takes the same path as with the bare
// searcher: SearchBuf behaves exactly like Search by contract, and Fork
// returns nil, which the engine treats as "share the base", exactly when
// the bare searcher cannot fork.
type timedSearcher struct {
	inner core.Searcher
	buf   core.BufferedSearcher // nil when inner has no SearchBuf
	t     *tracer
}

type timedRowSearcher struct{ *timedSearcher }

func wrapSearcher(s core.Searcher, t *tracer) core.Searcher {
	ts := &timedSearcher{inner: s, t: t}
	ts.buf, _ = s.(core.BufferedSearcher)
	if _, ok := s.(core.RowSearcher); ok {
		return timedRowSearcher{ts}
	}
	return ts
}

func (s *timedSearcher) Name() string { return s.inner.Name() }

func (s *timedSearcher) Search(q *hv.Vector) core.Result {
	if !s.t.on.Load() {
		return s.inner.Search(q)
	}
	start := time.Now()
	r := s.inner.Search(q)
	s.t.searched(start)
	return r
}

func (s *timedSearcher) SearchBuf(q *hv.Vector, buf *[]int) core.Result {
	if s.buf == nil {
		return s.Search(q)
	}
	if !s.t.on.Load() {
		return s.buf.SearchBuf(q, buf)
	}
	start := time.Now()
	r := s.buf.SearchBuf(q, buf)
	s.t.searched(start)
	return r
}

func (s *timedSearcher) Fork(w int) core.Searcher {
	f, ok := s.inner.(core.ForkableSearcher)
	if !ok {
		return nil
	}
	fs := f.Fork(w)
	if fs == nil {
		return nil
	}
	return wrapSearcher(fs, s.t)
}

func (s timedRowSearcher) ObservedDistances(dst []int, q *hv.Vector) []int {
	rs := s.inner.(core.RowSearcher)
	if !s.t.on.Load() {
		return rs.ObservedDistances(dst, q)
	}
	start := time.Now()
	ds := rs.ObservedDistances(dst, q)
	s.t.searched(start)
	return ds
}

func (t *tracer) searched(start time.Time) {
	end := time.Now()
	t.search.record(end.Sub(start))
	t.searches.Add(1)
	t.rec.add(spanSearch, start, end, 0, 0)
}

// timedBackend wraps the served netserve.Backend and times each request
// from Go until its response leaves the backend's channel.
type timedBackend struct {
	netserve.Backend
	t *tracer
}

// timedLearnBackend forwards the LearnBackend capability of a learning
// engine, so learn frames reach the learner through the wrapper.
type timedLearnBackend struct {
	timedBackend
	lb netserve.LearnBackend
}

func wrapBackend(b netserve.Backend, t *tracer) netserve.Backend {
	tb := timedBackend{Backend: b, t: t}
	if lb, ok := b.(netserve.LearnBackend); ok {
		return timedLearnBackend{tb, lb}
	}
	return tb
}

func (b timedBackend) Go(ctx context.Context, text string) (<-chan serve.Response, error) {
	if !b.t.on.Load() {
		return b.Backend.Go(ctx, text)
	}
	start := time.Now()
	ch, err := b.Backend.Go(ctx, text)
	if err != nil {
		return ch, err
	}
	out := make(chan serve.Response, 1)
	go func() {
		r := <-ch
		b.t.served(text, start, time.Now())
		out <- r
	}()
	return out, nil
}

func (b timedLearnBackend) Learn(ctx context.Context, label, text string) error {
	return b.lb.Learn(ctx, label, text)
}

func (b timedLearnBackend) LearnStats() learn.Stats { return b.lb.LearnStats() }

func (t *tracer) served(text string, start, end time.Time) {
	d := end.Sub(start)
	t.backend.record(d)
	var req uint64
	if i, ok := t.poolIndex[text]; ok {
		req = t.inflight[i].Load()
		t.backendSpan[i].Store(int64(d))
	}
	t.rec.add(spanBackend, start, end, req, req)
}

// runtimeSample is one reading of the Go runtime's scheduler and GC
// metrics plus the process CPU time.
type runtimeSample struct {
	samples []metrics.Sample
	cpu     time.Duration
	wall    time.Time
}

const (
	metricSched    = "/sched/latencies:seconds"
	metricGCPause  = "/sched/pauses/total/gc:seconds"
	metricGCCycles = "/gc/cycles/total:gc-cycles"
)

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: metricSched}, {Name: metricGCPause}, {Name: metricGCCycles}}
	metrics.Read(s)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{samples: s, cpu: cpu, wall: time.Now()}
}

// runtimeDelta accumulates the runtime metrics over a set of intervals.
type runtimeDelta struct {
	sched, gcPause []uint64
	schedB, pauseB []float64
	gcCycles       uint64
	cpu, wall      time.Duration
}

func (d *runtimeDelta) add(a, b runtimeSample) {
	addHist := func(dst *[]uint64, bounds *[]float64, x, y *metrics.Float64Histogram) {
		if *dst == nil {
			*dst = make([]uint64, len(y.Counts))
			*bounds = y.Buckets
		}
		for i := range y.Counts {
			(*dst)[i] += y.Counts[i] - x.Counts[i]
		}
	}
	addHist(&d.sched, &d.schedB, a.samples[0].Value.Float64Histogram(), b.samples[0].Value.Float64Histogram())
	addHist(&d.gcPause, &d.pauseB, a.samples[1].Value.Float64Histogram(), b.samples[1].Value.Float64Histogram())
	d.gcCycles += b.samples[2].Value.Uint64() - a.samples[2].Value.Uint64()
	d.cpu += b.cpu - a.cpu
	d.wall += b.wall.Sub(a.wall)
}

// histQuantile returns the p-th percentile of a runtime/metrics histogram
// as its bucket's upper bound (lower bound for the open top bucket), in
// seconds, by the same rounded nearest-rank rule as hist.
func histQuantile(counts []uint64, bounds []float64, p float64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Round(p / 100 * float64(n-1)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > rank {
			if hi := bounds[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return bounds[i]
		}
	}
	return bounds[len(bounds)-2]
}
