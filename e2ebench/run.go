package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/core"
	"hdam/internal/hv"
	"hdam/internal/learn"
	"hdam/internal/netserve"
	"hdam/internal/textgen"
)

const (
	setupRuns      = 3                      // stacks booted per run; setup_s is their median
	warmup         = time.Second            // load before the window, so caches and lazy state fill
	traceSlice     = 500 * time.Millisecond // traced and untraced slices alternate at this period
	reconcileEvery = 2048                   // acknowledged examples between learn reconciles
	ingestRate     = 250                    // examples per second the learn writer offers
	learnBudget    = 5 * time.Second        // server-side backpressure bound per learn frame
	spanCapacity   = 1 << 17                // spans kept per traced run
	subWindows     = 10                     // the window's end-to-end figures are medians over these
)

const (
	phaseWarmup int32 = iota
	phaseWindow
	phaseStop
)

// ref is a reference answer: EncodeText then ClassMatrix.Nearest.
type ref struct{ index, distance, ngrams int }

// answer is one learn-workload search answer, checked after the window
// against the generation that served it.
type answer struct {
	query         int32
	gen           uint32
	index, ngrams int32
	distance      int32
}

// connStats is what one closed-loop connection saw. Each is owned by its
// connection's goroutine until the run stops.
type connStats struct {
	attempted, failed uint64 // whole run, warm-up included
	wrong             uint64 // answers that disagree with the reference
	okTraced, okBare  uint64 // traced run: correct window answers by slice kind
	answers           []answer
	frames, accepted  uint64 // learn frames sent, examples acknowledged
	acceptedWindow    uint64
	partial           []partialAck // learn frames not wholly acknowledged
	errSample         error
}

type partialAck struct{ frame, accepted uint64 }

// subWindow is one slice of the window, shared by the connections.
type subWindow struct {
	lat hist
	ok  atomic.Uint64
}

// runner runs one workload against one booted stack.
type runner struct {
	w      workload
	in     *inputs
	st     *stack
	t      *tracer
	refs   []ref
	labels []string
	phase  atomic.Int32

	// The window is cut into subWindows equal slices; each search request
	// lands in the slice it completed in. The machine's speed drifts in
	// states lasting a second or two, so a median over slices repeats from
	// run to run where a whole-window mean or percentile does not.
	windowStart time.Time // set before phase turns to phaseWindow
	subLen      time.Duration
	sub         [subWindows]subWindow

	reconcileSig chan struct{}
	reconcileErr error // written by the reconciling goroutine only
}

func (d *runner) newConnStats() *connStats {
	cs := &connStats{}
	if d.w.learn {
		// Preallocated so the recorded answers do not grow the heap
		// mid-window (about 6k searches/s on two cores).
		cs.answers = make([]answer, 0, 1<<18)
	}
	return cs
}

// searchLoop sends one query at a time and waits for its answer, drawing
// from the pool slots this connection owns.
func (d *runner) searchLoop(c *netserve.Client, slots []int, cs *connStats) {
	for k := 0; ; k++ {
		ph := d.phase.Load()
		if ph == phaseStop {
			return
		}
		idx := slots[k%len(slots)]
		traced := d.t != nil && d.t.on.Load()
		var id uint64
		if traced {
			id = d.t.rec.reserve()
			d.t.inflight[idx].Store(id)
			d.t.backendSpan[idx].Store(0)
		}
		start := time.Now()
		ans, err := c.Ask([]string{d.in.queries[idx]}, 0)
		end := time.Now()
		cs.attempted++
		ok := err == nil && len(ans) == 1 && ans[0].Status == netserve.StatusOK
		if !ok {
			if err == nil && len(ans) == 1 {
				err = netserve.AnswerError(ans[0])
			}
			if cs.errSample == nil {
				cs.errSample = err
			}
		} else if !d.accept(idx, ans[0], cs) {
			ok = false
			cs.wrong++
		}
		if !ok {
			cs.failed++
		}
		if ph == phaseWindow {
			if i := int(end.Sub(d.windowStart) / d.subLen); i < subWindows {
				d.sub[i].lat.record(end.Sub(start))
				if ok {
					d.sub[i].ok.Add(1)
				}
			}
			if ok && traced {
				cs.okTraced++
			} else if ok {
				cs.okBare++
			}
		}
		if traced {
			d.t.requestDone(id, idx, start, end)
		}
	}
}

// accept checks an answer against the reference. Learn-workload answers
// are recorded instead and checked after the window, once every
// generation that served them is known.
func (d *runner) accept(idx int, a netserve.WireAnswer, cs *connStats) bool {
	if d.w.learn {
		cs.answers = append(cs.answers, answer{
			query: int32(idx), gen: uint32(a.Gen),
			index: int32(a.Index), distance: int32(a.Distance), ngrams: int32(a.NGrams),
		})
		return true
	}
	r := d.refs[idx]
	return int(a.Index) == r.index && int(a.Distance) == r.distance &&
		int(a.NGrams) == r.ngrams && a.Label == d.labels[r.index]
}

// ingestLoop streams the labelled example frames, one frame in flight, and
// asks for a reconcile after every reconcileEvery acknowledged examples.
// Frame k is sent no earlier than k·frameExamples/ingestRate after the
// first, so the writer offers ingestRate and never builds a backlog. With
// unpaced ingest the stripes saturate both CPUs, and the search tail flips
// between ~6 ms and ~20 ms with the machine's speed.
func (d *runner) ingestLoop(c *netserve.Client, cs *connStats) {
	begin := time.Now()
	for k := uint64(0); ; k++ {
		time.Sleep(time.Until(begin.Add(time.Duration(k) * frameExamples * time.Second / ingestRate)))
		ph := d.phase.Load()
		if ph == phaseStop {
			return
		}
		f := d.in.frames[k%uint64(len(d.in.frames))]
		traced := d.t != nil && d.t.on.Load()
		start := time.Now()
		n, err := c.Learn(f.label, f.texts, learnBudget)
		end := time.Now()
		cs.frames++
		cs.attempted += frameExamples
		if n < frameExamples {
			cs.failed += uint64(frameExamples - n)
			cs.partial = append(cs.partial, partialAck{frame: k, accepted: uint64(n)})
			if cs.errSample == nil {
				cs.errSample = err
			}
		}
		before := cs.accepted
		cs.accepted += uint64(n)
		if ph == phaseWindow {
			cs.acceptedWindow += uint64(n)
		}
		if before/reconcileEvery != cs.accepted/reconcileEvery {
			select {
			case d.reconcileSig <- struct{}{}:
			default: // a reconcile is already pending; it will fold these too
			}
		}
		if traced {
			d.t.learnAck.record(end.Sub(start))
			d.t.rec.add(spanLearn, start, end, 0, 0)
		}
	}
}

func (d *runner) reconcile() {
	start := time.Now()
	if d.t != nil {
		d.t.beginReconcile()
	}
	_, err := d.st.lr.Reconcile()
	if d.t != nil {
		d.t.reconciled(start, time.Now())
	}
	if err != nil && d.reconcileErr == nil {
		d.reconcileErr = err
	}
}

// measurement is what the window produced.
type measurement struct {
	conns                []*connStats
	window               time.Duration
	tracedTime, bareTime time.Duration
	rt                   runtimeDelta
	heapMB               float64
}

// drive runs the warm-up and the measured window. In a traced run the
// window alternates traced and untraced slices, so the two halves see the
// same machine and their throughput ratio is the tracing overhead.
func (d *runner) drive(seconds int) *measurement {
	m := &measurement{}
	var wg sync.WaitGroup
	d.reconcileSig = make(chan struct{}, 1)
	stopReconcile := make(chan struct{})
	var recWG sync.WaitGroup
	if d.w.learn {
		recWG.Add(1)
		go func() {
			defer recWG.Done()
			for {
				select {
				case <-d.reconcileSig:
					d.reconcile()
				case <-stopReconcile:
					return
				}
			}
		}()
	}
	for i, c := range d.st.clients {
		cs := d.newConnStats()
		m.conns = append(m.conns, cs)
		wg.Add(1)
		switch {
		case d.w.learn && i == 0:
			go func() { defer wg.Done(); d.searchLoop(c, d.in.order, cs) }()
		case d.w.learn:
			go func() { defer wg.Done(); d.ingestLoop(c, cs) }()
		default:
			var slots []int
			for _, idx := range d.in.order {
				if idx%len(d.st.clients) == i {
					slots = append(slots, idx)
				}
			}
			go func() { defer wg.Done(); d.searchLoop(c, slots, cs) }()
		}
	}

	time.Sleep(warmup)
	start := time.Now()
	end := start.Add(time.Duration(seconds) * time.Second)
	d.windowStart, d.subLen = start, end.Sub(start)/subWindows
	d.phase.Store(phaseWindow)
	if d.t == nil {
		time.Sleep(time.Until(end))
	} else {
		for traced := false; time.Now().Before(end); traced = !traced {
			sliceEnd := time.Now().Add(traceSlice)
			if sliceEnd.After(end) {
				sliceEnd = end
			}
			d.t.on.Store(traced)
			a := readRuntime()
			time.Sleep(time.Until(sliceEnd))
			if traced {
				m.rt.add(a, readRuntime())
				m.tracedTime += time.Since(a.wall)
			} else {
				m.bareTime += time.Since(a.wall)
			}
		}
		d.t.on.Store(false)
	}
	d.phase.Store(phaseStop)
	m.window = time.Since(start)
	wg.Wait()
	close(stopReconcile)
	recWG.Wait()
	if d.w.learn {
		d.reconcile() // fold the tail, so every acknowledged example is served
	}

	// The second collection empties the sync.Pool victim caches (pooled
	// encoders), which would otherwise make the figure depend on how many
	// were in use when the window ended.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return m
}

// references computes the reference answer for every query, in parallel.
func references(mem *core.Memory, queries []string, seed uint64) []ref {
	refs := make([]ref, len(queries))
	vecs := encodeAll(queries, seed)
	for i, v := range vecs {
		idx, dist := mem.ClassMatrix().Nearest(v.vec)
		refs[i] = ref{index: idx, distance: dist, ngrams: v.ngrams}
	}
	return refs
}

type encoded struct {
	vec    *hv.Vector
	ngrams int
}

// encodeAll encodes texts with fresh pipeline encoders, one per CPU.
func encodeAll(texts []string, seed uint64) []encoded {
	out := make([]encoded, len(texts))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			enc := learn.EncoderFactory(hv.Dim, 3, pipeSeed)()
			for i := w; i < len(texts); i += workers {
				v, n := enc.EncodeText(texts[i], seed)
				out[i] = encoded{v, n}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// learnCheck is the learn workload's oracle, run after the window: every
// search answer against the generation that served it, and the final
// generation against learn.TrainOffline over the acknowledged examples.
type learnCheck struct {
	wrong     uint64
	identical bool
	folded    uint64
	accuracy  float64 // held-out accuracy on the languages the base lacked
	snapKB    float64
	err       error
}

func (d *runner) checkLearn(m *measurement) learnCheck {
	var lc learnCheck
	search, ingest := m.conns[0], m.conns[1]

	// Rebuild the acknowledged example sequence; drive folded its tail.
	if d.reconcileErr != nil {
		lc.err = fmt.Errorf("reconcile: %w", d.reconcileErr)
		return lc
	}
	var examples []learn.Example
	partial := ingest.partial
	for k := uint64(0); k < ingest.frames; k++ {
		f := d.in.frames[k%uint64(len(d.in.frames))]
		n := uint64(frameExamples)
		if len(partial) > 0 && partial[0].frame == k {
			n, partial = partial[0].accepted, partial[1:]
		}
		for _, t := range f.texts[:n] {
			examples = append(examples, learn.Example{Label: f.label, Text: t})
		}
	}
	lc.folded = d.st.lr.Stats().Examples

	finalGen := d.st.eng.Gen()
	path, ok := d.st.snapshotOf(finalGen)
	if !ok {
		lc.err = fmt.Errorf("engine generation %d was not swapped in from a snapshot", finalGen)
		return lc
	}
	final, err := loadSnapshot(path)
	if err != nil {
		lc.err = err
		return lc
	}
	if st, err := os.Stat(path); err == nil {
		lc.snapKB = float64(st.Size()) / 1024
	}
	want, err := offlineReference(d.st.tr.Memory, examples, d.st.lcfg)
	if err != nil {
		lc.err = fmt.Errorf("offline reference: %w", err)
		return lc
	}
	lc.identical = sameMemory(final, want) && lc.folded == uint64(len(examples))

	// Every search answer against its generation.
	vecs := encodeAll(d.in.queries, pipeSeed)
	mems := map[uint32]*core.Memory{1: d.st.tr.Memory}
	for _, a := range search.answers {
		mem, ok := mems[a.gen]
		if !ok {
			p, found := d.st.snapshotOf(uint64(a.gen))
			if found {
				mem, err = loadSnapshot(p)
			}
			if !found || err != nil {
				lc.wrong++
				continue
			}
			mems[a.gen] = mem
		}
		v := vecs[a.query]
		idx, dist := mem.ClassMatrix().Nearest(v.vec)
		if int(a.index) != idx || int(a.distance) != dist || int(a.ngrams) != v.ngrams {
			lc.wrong++
		}
	}

	held := make([]string, len(d.in.heldOut))
	for i, ex := range d.in.heldOut {
		held[i] = ex.Text
	}
	right := 0
	for i, v := range encodeAll(held, pipeSeed) {
		idx, _ := final.ClassMatrix().Nearest(v.vec)
		if final.Label(idx) == d.in.heldOut[i].Label {
			right++
		}
	}
	lc.accuracy = float64(right) / float64(len(held))
	return lc
}

// offlineReference is learn.TrainOffline over examples, run as one
// TrainOffline call per group of labels on every CPU and merged. A class
// row depends only on the base row and the examples carrying its label, so
// the merge is bit-identical to a single call; it only saves wall time,
// since a 20-second window acknowledges about 150k examples.
func offlineReference(base *core.Memory, examples []learn.Example, cfg learn.Config) (*core.Memory, error) {
	groups := runtime.GOMAXPROCS(0)
	var labels []string
	byLabel := map[string][]learn.Example{}
	for _, ex := range examples {
		if byLabel[ex.Label] == nil {
			labels = append(labels, ex.Label)
		}
		byLabel[ex.Label] = append(byLabel[ex.Label], ex)
	}
	sort.Strings(labels)
	// Deal labels to groups, largest first, each to the lightest group.
	sort.SliceStable(labels, func(i, j int) bool { return len(byLabel[labels[i]]) > len(byLabel[labels[j]]) })
	part := make([][]learn.Example, groups)
	owner := map[string]int{}
	for _, l := range labels {
		g := 0
		for i := range part {
			if len(part[i]) < len(part[g]) {
				g = i
			}
		}
		part[g] = append(part[g], byLabel[l]...)
		owner[l] = g
	}
	mems := make([]*core.Memory, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := range part {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mems[g], errs[g] = learn.TrainOffline(base, part[g], cfg)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The learner's row order: base labels in base order, then new labels
	// sorted.
	order := base.Labels()
	var fresh []string
	for _, l := range labels {
		if labelIndex(base, l) < 0 {
			fresh = append(fresh, l)
		}
	}
	sort.Strings(fresh)
	order = append(order, fresh...)
	rows := make([]*hv.Vector, len(order))
	for i, l := range order {
		m := mems[owner[l]] // a base label with no examples is its base row in every group
		j := labelIndex(m, l)
		if j < 0 {
			return nil, fmt.Errorf("offline group lacks label %q", l)
		}
		rows[i] = m.Class(j)
	}
	return core.NewMemory(rows, order)
}

func labelIndex(m *core.Memory, label string) int {
	for i, l := range m.Labels() {
		if l == label {
			return i
		}
	}
	return -1
}

// sameMemory reports whether two memories hold the same labels and
// bit-identical class rows in the same order.
func sameMemory(a, b *core.Memory) bool {
	if a.Classes() != b.Classes() || a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Classes(); i++ {
		if a.Label(i) != b.Label(i) || hv.Hamming(a.Class(i), b.Class(i)) != 0 {
			return false
		}
	}
	return true
}

// window is the end-to-end view of the measured window: per sub-window
// throughput and latency percentiles, in window order.
type window struct {
	rps      []float64
	p50, p99 []time.Duration
	samples  uint64
}

func (d *runner) window() window {
	var w window
	for i := range d.sub {
		s := &d.sub[i]
		w.rps = append(w.rps, float64(s.ok.Load())/d.subLen.Seconds())
		w.p50 = append(w.p50, s.lat.quantile(50))
		w.p99 = append(w.p99, s.lat.quantile(99))
		w.samples += s.lat.count()
	}
	return w
}

// median returns the middle value of xs (the mean of the middle two for an
// even count).
func median[T ~int64 | ~float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func catalog() []*textgen.Language { return textgen.Catalog(textgen.DefaultConfig()) }
