// Package learn implements train-while-serve: a subsystem that accepts
// labeled examples concurrently with search traffic and periodically folds
// them into a new packed class-matrix generation, published through the
// existing snapshot writer → store.Registry → serve.Engine.Swap path so
// learning never stops the engine.
//
// The HD bundling operation is naturally incremental — a class vector is
// just the majority over per-class counters — so the write side is a set of
// striped per-worker hv.Accumulator groups: every ingest worker bundles into
// its own counters and the read hot path is never touched (the split-counter
// plan Doppel applies to contended aggregates). A reconciliation coordinator
// then runs a phased merge:
//
//	freeze   — a barrier message through each stripe's ordered queue cuts a
//	           clean epoch: everything accepted before the barrier is in the
//	           frozen counters, everything after lands in the next epoch, and
//	           ingest never stops.
//	merge    — frozen stripe counters ripple into the master accumulators.
//	           Counter addition is commutative, so stripe count, assignment
//	           and merge order are all irrelevant to the result.
//	fold     — each master accumulator majority-folds to one packed binary
//	           row (the binarized-bundling step the hardware-optimization
//	           literature shows costs no accuracy).
//	write    — the rows become a snapshot written by the atomic store writer
//	           under a generation-numbered name.
//	publish  — the OnSnapshot hook (typically store.Registry.Check) swaps the
//	           generation into the engine with zero downtime.
//
// Determinism: the majority tie-break seed of every class is derived from
// its label (not its arrival order), and rows are emitted base-labels-first
// then new-labels-sorted, so a reconciled model is a pure function of the
// base model and the ingested example multiset. TrainOffline is the
// single-accumulator reference implementation of exactly that function; in
// single-centroid mode a Reconcile is bit-identical to it.
//
// Multi-centroid mode (Config.Centroids = k > 1) keeps k accumulators per
// class, MEMHD-style: each example is assigned to its nearest centroid from
// the last published generation (round-robin spread before a class has one),
// and search takes the min distance over a class's centroids. The snapshot
// stores C·k rows class-major with "<label>#<j>" row labels and the centroid
// count in META.
package learn

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/hv"
	"hdam/internal/itemmem"
	"hdam/internal/store"
)

// Typed failures. Match with errors.Is.
var (
	// ErrClosed is returned by Ingest and Reconcile after Close.
	ErrClosed = errors.New("learn: learner closed")
	// ErrOverloaded is returned by Ingest when every stripe queue is full
	// and the learner is not configured to block (admission control).
	ErrOverloaded = errors.New("learn: ingest overloaded")
	// ErrInvalidExample rejects an example the learner will not accept: an
	// empty or oversized label, a label containing the centroid separator,
	// or empty text.
	ErrInvalidExample = errors.New("learn: invalid example")
)

// centroidSep separates the class label from the centroid index in the row
// labels of a multi-centroid snapshot ("spanish#2"). Ingested labels may not
// contain it.
const centroidSep = "#"

// maxIngestLabel bounds ingested label length to what the wire protocol's
// answer labels can carry, so a learned class is always announceable.
const maxIngestLabel = 255

// Example is one labeled training example.
type Example struct {
	Label string
	Text  string
}

// Config tunes a Learner.
type Config struct {
	// Dim is the hypervector dimensionality (must match the base model).
	Dim int
	// NGram is the n-gram order of the text encoder.
	NGram int
	// Seed is the item-memory / pipeline seed shared with serving.
	Seed uint64
	// Centroids is the per-class centroid count k (default 1). With k > 1
	// the learner runs MEMHD-style multi-centroid classes.
	Centroids int
	// Stripes is the number of ingest workers, each owning a private
	// accumulator set (default GOMAXPROCS).
	Stripes int
	// Queue is the per-stripe pending-example capacity before admission
	// control engages (default 256).
	Queue int
	// Block selects the admission policy on full queues: true applies
	// backpressure bounded by the Ingest context, false (default) fails
	// fast with ErrOverloaded.
	Block bool
	// BaseWeight is the bundling weight the base model's class rows carry
	// as a prior in their accumulators (default 1: with no new examples a
	// class folds back to exactly its base row). It is also the number of
	// examples the prior outweighs before drifting.
	BaseWeight int
	// Dir is the snapshot output directory (required); generations are
	// written as Prefix-%06d.hds so the registry's name tiebreak orders
	// them even within one mtime granule.
	Dir string
	// Prefix is the generation file prefix (default "learn").
	Prefix string
	// Interval is Run's auto-reconcile period (default 2s).
	Interval time.Duration
	// Trainer is the provenance trainer string (default "learn").
	Trainer string
	// OnSnapshot, when set, observes every published generation path —
	// typically a closure poking store.Registry.Check so the swap happens
	// immediately instead of on the next poll.
	OnSnapshot func(path string)
	// Now supplies provenance timestamps (default time.Now).
	Now func() time.Time
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Centroids <= 0 {
		c.Centroids = 1
	}
	if c.Stripes <= 0 {
		c.Stripes = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.BaseWeight <= 0 {
		c.BaseWeight = 1
	}
	if c.Prefix == "" {
		c.Prefix = "learn"
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Trainer == "" {
		c.Trainer = "learn"
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// check validates the resolved configuration.
func (c Config) check() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("learn: dim %d", c.Dim)
	case c.NGram < 1:
		return fmt.Errorf("learn: n-gram %d", c.NGram)
	case c.Dir == "":
		return errors.New("learn: snapshot directory required")
	}
	return nil
}

// EncoderFactory returns a factory producing fresh deterministic encoders
// for the given pipeline parameters — the same construction serving uses, so
// learner and engine encode bit-identically. Every encoder shares the
// process-wide symbol table of (dim, seed, ngram), so a fresh one costs only
// its scratch; its item memory is not preloaded, since encoding reads only
// the memory's seed.
func EncoderFactory(dim, ngram int, seed uint64) func() *encoder.Encoder {
	return func() *encoder.Encoder {
		return encoder.New(itemmem.New(dim, seed), ngram)
	}
}

// tieSeed derives the majority tie-break seed for class centroid (label, j).
// Deriving it from the label (FNV-1a) rather than any arrival-order index is
// what makes a reconciled fold independent of ingest interleaving and stripe
// assignment — the determinism TrainOffline is checked against.
func tieSeed(seed uint64, label string, j int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return seed ^ h ^ (uint64(j) * 0x9e3779b97f4a7c15)
}

// checkExample validates one ingested example.
func checkExample(label, text string) error {
	switch {
	case label == "":
		return fmt.Errorf("%w: empty label", ErrInvalidExample)
	case len(label) > maxIngestLabel:
		return fmt.Errorf("%w: %d-byte label (limit %d)", ErrInvalidExample, len(label), maxIngestLabel)
	case strings.Contains(label, centroidSep):
		return fmt.Errorf("%w: label %q contains %q", ErrInvalidExample, label, centroidSep)
	case text == "":
		return fmt.Errorf("%w: empty text", ErrInvalidExample)
	}
	return nil
}

// classAccs is one class's k centroid accumulators with their example
// counts; slots stay nil until first touched (stripe side).
type classAccs struct {
	accs []*hv.Accumulator
	n    []uint64
}

func newClassAccs(k int) *classAccs {
	return &classAccs{accs: make([]*hv.Accumulator, k), n: make([]uint64, k)}
}

// stripeEpoch is the unit the freeze barrier cuts: one stripe's accumulated
// counters since the last reconcile.
type stripeEpoch struct {
	classes  map[string]*classAccs
	examples uint64
}

func newEpoch() *stripeEpoch { return &stripeEpoch{classes: make(map[string]*classAccs)} }

// stripeMsg is one queue entry: an example, or (freeze != nil) the epoch
// barrier, answered with the stripe's frozen epoch.
type stripeMsg struct {
	ex     Example
	freeze chan *stripeEpoch
}

type stripe struct {
	ch   chan stripeMsg
	done chan struct{} // closed when the worker exits
}

// centroidView is the published fold of the last reconcile, read by ingest
// workers for assign-to-nearest.
type centroidView struct {
	byLabel map[string][]*hv.Vector
}

// Stats is a snapshot of the learner's counters.
type Stats struct {
	Ingested   uint64        // examples accepted into stripe queues
	Rejected   uint64        // examples refused by admission control
	Invalid    uint64        // examples refused by validation
	Empty      uint64        // accepted examples that encoded to zero n-grams
	Pending    int           // examples queued, not yet bundled
	Reconciles uint64        // completed reconcile→snapshot cycles
	Skipped    uint64        // reconcile ticks with nothing new to fold
	Gen        uint64        // latest published generation (0 before the first)
	Examples   uint64        // examples folded into the model so far
	Classes    int           // classes in the latest generation
	Centroids  int           // centroids per class
	LastFold   time.Duration // duration of the latest reconcile
}

// Learner is the train-while-serve coordinator. Construct with New; feed it
// with Ingest (concurrently, from any number of goroutines); fold and
// publish with Reconcile or the Run loop; stop with Close.
type Learner struct {
	cfg  Config
	k    int
	base *core.Memory

	mu      sync.RWMutex // guards closed vs. stripe sends
	closed  bool
	stripes []*stripe
	rr      atomic.Uint64

	recMu      sync.Mutex // serializes reconciles; guards master
	master     map[string]*classAccs
	baseLabels []string

	view atomic.Pointer[centroidView]

	ingested, rejected, invalid, empty atomic.Uint64
	reconciles, skips                  atomic.Uint64
	gen, total                         atomic.Uint64
	classes                            atomic.Int64
	lastFoldNs                         atomic.Int64
}

// New builds a learner, optionally seeded with a base model: each base class
// starts with its packed row as a weight-BaseWeight prior in centroid 0, so
// an untouched class folds back to exactly its base row and the base order
// is preserved in every generation. base may be nil (cold start). The base
// memory must be one row per class (for a multi-centroid snapshot, pass the
// class-level memory returned by Model; only the representative rows seed
// the prior, since packed rows cannot recover their counters).
func New(base *core.Memory, cfg Config) (*Learner, error) {
	cfg = cfg.withDefaults()
	if base != nil && cfg.Dim == 0 {
		cfg.Dim = base.Dim()
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if base != nil && base.Dim() != cfg.Dim {
		return nil, fmt.Errorf("learn: base dim %d, config dim %d", base.Dim(), cfg.Dim)
	}
	l := &Learner{cfg: cfg, k: cfg.Centroids, base: base, master: make(map[string]*classAccs)}
	if base != nil {
		l.baseLabels = base.Labels()
		for i, label := range l.baseLabels {
			if strings.Contains(label, centroidSep) {
				return nil, fmt.Errorf("learn: base label %q contains the centroid separator %q", label, centroidSep)
			}
			mc := l.newMasterClass(label)
			mc.accs[0].AddWeighted(base.Class(i), cfg.BaseWeight)
			mc.n[0] = uint64(cfg.BaseWeight)
			l.master[label] = mc
		}
	}
	l.stripes = make([]*stripe, cfg.Stripes)
	for i := range l.stripes {
		s := &stripe{ch: make(chan stripeMsg, cfg.Queue), done: make(chan struct{})}
		l.stripes[i] = s
		go l.stripeLoop(s)
	}
	return l, nil
}

// newMasterClass allocates one class's master accumulators, every centroid
// seeded by (label, j) so folds are arrival-order independent.
func (l *Learner) newMasterClass(label string) *classAccs {
	mc := newClassAccs(l.k)
	for j := 0; j < l.k; j++ {
		mc.accs[j] = hv.NewAccumulator(l.cfg.Dim, tieSeed(l.cfg.Seed, label, j))
	}
	return mc
}

// Config returns the resolved configuration.
func (l *Learner) Config() Config { return l.cfg }

// Gen returns the latest published generation number (0 before the first).
func (l *Learner) Gen() uint64 { return l.gen.Load() }

// Ingest accepts one labeled example for the next reconcile. It is safe for
// concurrent use and never touches the search hot path: the example goes to
// a stripe queue (round-robin, skipping full stripes) and is bundled by that
// stripe's worker. On all-full queues the admission policy decides: Block
// waits (bounded by ctx), else ErrOverloaded.
func (l *Learner) Ingest(ctx context.Context, label, text string) error {
	if err := checkExample(label, text); err != nil {
		l.invalid.Add(1)
		return err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return ErrClosed
	}
	msg := stripeMsg{ex: Example{Label: label, Text: text}}
	n := len(l.stripes)
	start := int(l.rr.Add(1)) % n
	for t := 0; t < n; t++ {
		select {
		case l.stripes[(start+t)%n].ch <- msg:
			l.ingested.Add(1)
			return nil
		default:
		}
	}
	if !l.cfg.Block {
		l.rejected.Add(1)
		return ErrOverloaded
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case l.stripes[start].ch <- msg:
		l.ingested.Add(1)
		return nil
	case <-ctx.Done():
		l.rejected.Add(1)
		return ctx.Err()
	}
}

// stripeLoop is one ingest worker: it owns a private encoder and a private
// epoch of class accumulators, so bundling requires no locks and no sharing.
// A freeze message swaps in a fresh epoch and hands the old one — a clean
// cut of everything accepted before the barrier — to the coordinator.
func (l *Learner) stripeLoop(s *stripe) {
	defer close(s.done)
	enc := EncoderFactory(l.cfg.Dim, l.cfg.NGram, l.cfg.Seed)()
	epoch := newEpoch()
	for msg := range s.ch {
		if msg.freeze != nil {
			msg.freeze <- epoch
			epoch = newEpoch()
			continue
		}
		ca := epoch.classes[msg.ex.Label]
		if ca == nil {
			ca = newClassAccs(l.k)
			epoch.classes[msg.ex.Label] = ca
		}
		j := 0
		if l.k > 1 {
			j = l.assign(enc, ca, msg.ex)
		}
		if ca.accs[j] == nil {
			// Stripe accumulators never fold, so their seed is irrelevant.
			ca.accs[j] = hv.NewAccumulator(l.cfg.Dim, 0)
		}
		if n := enc.AccumulateText(ca.accs[j], msg.ex.Text); n == 0 {
			l.empty.Add(1)
			continue
		}
		ca.n[j]++
		epoch.examples++
	}
}

// assign picks the centroid slot for one example in multi-centroid mode:
// the nearest centroid of the last published generation when the class has
// one, else the stripe-locally least-loaded slot (a round-robin spread that
// seeds diversity for classes the model has not folded yet).
func (l *Learner) assign(enc *encoder.Encoder, ca *classAccs, ex Example) int {
	if view := l.view.Load(); view != nil {
		if cents := view.byLabel[ex.Label]; len(cents) > 0 {
			if q, n := enc.EncodeText(ex.Text, l.cfg.Seed); n > 0 {
				best, bestD := 0, hv.Hamming(q, cents[0])
				for j := 1; j < len(cents); j++ {
					if d := hv.Hamming(q, cents[j]); d < bestD {
						best, bestD = j, d
					}
				}
				return best
			}
		}
	}
	best := 0
	for j := 1; j < l.k; j++ {
		if ca.n[j] < ca.n[best] {
			best = j
		}
	}
	return best
}

// Report describes one reconcile.
type Report struct {
	Gen         uint64        // generation published (unchanged when skipped)
	Path        string        // snapshot file written ("" when skipped)
	Classes     int           // classes in the generation
	Rows        int           // matrix rows (Classes × Centroids)
	NewExamples uint64        // examples folded by this reconcile
	Examples    uint64        // cumulative examples in the model
	Duration    time.Duration // freeze→publish wall time
	Skipped     bool          // nothing new: no snapshot written
}

// Reconcile runs one phased merge: freeze every stripe's epoch, merge the
// frozen counters into the master accumulators, majority-fold to packed
// rows, write a generation snapshot via the atomic store writer, and invoke
// the publish hook. Ingest keeps running throughout — only the barrier
// message itself passes through each stripe queue. A reconcile with nothing
// new to fold is skipped (no snapshot) once a first generation exists.
// Reconciles are serialized.
func (l *Learner) Reconcile() (Report, error) {
	l.recMu.Lock()
	defer l.recMu.Unlock()
	start := time.Now()

	// Phase 1: freeze. The barrier rides each stripe's ordered queue, so the
	// epoch cut is exact without ever pausing ingest.
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return Report{}, ErrClosed
	}
	epochs := make([]*stripeEpoch, len(l.stripes))
	var wg sync.WaitGroup
	for i, s := range l.stripes {
		wg.Add(1)
		go func(i int, s *stripe) {
			defer wg.Done()
			fz := make(chan *stripeEpoch, 1)
			s.ch <- stripeMsg{freeze: fz}
			epochs[i] = <-fz
		}(i, s)
	}
	wg.Wait()
	l.mu.RUnlock()

	// Phase 2: merge. Commutative counter addition makes stripe order,
	// assignment and interleaving all irrelevant here.
	var newEx uint64
	for _, ep := range epochs {
		newEx += ep.examples
		for label, ca := range ep.classes {
			mc := l.master[label]
			if mc == nil {
				mc = l.newMasterClass(label)
				l.master[label] = mc
			}
			for j := 0; j < l.k; j++ {
				if ca.accs[j] != nil && ca.accs[j].Count() > 0 {
					mc.accs[j].Merge(ca.accs[j])
					mc.n[j] += ca.n[j]
				}
			}
		}
	}
	if newEx == 0 && l.gen.Load() > 0 {
		l.skips.Add(1)
		return Report{Gen: l.gen.Load(), Examples: l.total.Load(), Skipped: true, Duration: time.Since(start)}, nil
	}
	total := l.total.Add(newEx)

	// Phase 3: fold.
	mem, rowLabels, view, err := l.fold()
	if err != nil {
		return Report{}, err
	}

	// Phase 4: write the generation snapshot atomically.
	gen := l.gen.Load() + 1
	storeCfg := store.Config{Dim: l.cfg.Dim, NGram: l.cfg.NGram, Seed: l.cfg.Seed}
	if l.k > 1 {
		storeCfg.Centroids = l.k
	}
	prov := store.Provenance{
		Trainer:       l.cfg.Trainer,
		CreatedAt:     l.cfg.Now(),
		Note:          fmt.Sprintf("learn generation %d", gen),
		LearnExamples: total,
	}
	snap, err := store.Capture(mem, storeCfg, prov)
	if err != nil {
		return Report{}, err
	}
	path := filepath.Join(l.cfg.Dir, fmt.Sprintf("%s-%06d.hds", l.cfg.Prefix, gen))
	if err := store.Save(path, snap); err != nil {
		return Report{}, err
	}

	// Phase 5: publish — the new centroids for assign-to-nearest, then the
	// path for the registry to swap in.
	l.view.Store(view)
	l.gen.Store(gen)
	classes := len(rowLabels) / l.k
	l.classes.Store(int64(classes))
	l.reconciles.Add(1)
	d := time.Since(start)
	l.lastFoldNs.Store(int64(d))
	if l.cfg.OnSnapshot != nil {
		l.cfg.OnSnapshot(path)
	}
	return Report{
		Gen: gen, Path: path, Classes: classes, Rows: len(rowLabels),
		NewExamples: newEx, Examples: total, Duration: d,
	}, nil
}

// orderLabels returns the deterministic class order every generation uses:
// base labels in base order, then learned labels sorted.
func orderLabels[V any](baseLabels []string, master map[string]V) []string {
	labels := make([]string, 0, len(master))
	inBase := make(map[string]bool, len(baseLabels))
	for _, lab := range baseLabels {
		if _, ok := master[lab]; ok {
			labels = append(labels, lab)
			inBase[lab] = true
		}
	}
	var rest []string
	for lab := range master {
		if !inBase[lab] {
			rest = append(rest, lab)
		}
	}
	sort.Strings(rest)
	return append(labels, rest...)
}

// fold majority-folds the master accumulators into the generation's memory.
// Classes whose every centroid is still empty (all their examples encoded to
// zero n-grams) are left out entirely; within a kept class, empty centroid
// slots are padded with the class's first folded centroid so the layout
// stays a uniform C×k (a duplicate row never changes a min-distance search).
func (l *Learner) fold() (*core.Memory, []string, *centroidView, error) {
	labels := orderLabels(l.baseLabels, l.master)
	rows := make([]*hv.Vector, 0, len(labels)*l.k)
	rowLabels := make([]string, 0, len(labels)*l.k)
	view := &centroidView{byLabel: make(map[string][]*hv.Vector, len(labels))}
	for _, label := range labels {
		mc := l.master[label]
		folded := make([]*hv.Vector, l.k)
		var first *hv.Vector
		for j := 0; j < l.k; j++ {
			if mc.n[j] > 0 {
				folded[j] = mc.accs[j].Majority()
				if first == nil {
					first = folded[j]
				}
			}
		}
		if first == nil {
			continue
		}
		for j := 0; j < l.k; j++ {
			if folded[j] == nil {
				folded[j] = first
			}
			rows = append(rows, folded[j])
			if l.k > 1 {
				rowLabels = append(rowLabels, fmt.Sprintf("%s%s%d", label, centroidSep, j))
			} else {
				rowLabels = append(rowLabels, label)
			}
		}
		view.byLabel[label] = folded
	}
	if len(rows) == 0 {
		return nil, nil, nil, errors.New("learn: nothing to fold (no base model and no encodable examples)")
	}
	mem, err := core.NewMemory(rows, rowLabels)
	if err != nil {
		return nil, nil, nil, err
	}
	return mem, rowLabels, view, nil
}

// Run reconciles on a ticker until ctx ends, returning ctx's error (or nil
// if the learner is Closed underneath it).
func (l *Learner) Run(ctx context.Context) error {
	t := time.NewTicker(l.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if _, err := l.Reconcile(); err != nil {
				if errors.Is(err, ErrClosed) {
					return nil
				}
				return err
			}
		}
	}
}

// Stats returns a snapshot of the learner's counters.
func (l *Learner) Stats() Stats {
	pending := 0
	l.mu.RLock()
	for _, s := range l.stripes {
		pending += len(s.ch)
	}
	l.mu.RUnlock()
	return Stats{
		Ingested:   l.ingested.Load(),
		Rejected:   l.rejected.Load(),
		Invalid:    l.invalid.Load(),
		Empty:      l.empty.Load(),
		Pending:    pending,
		Reconciles: l.reconciles.Load(),
		Skipped:    l.skips.Load(),
		Gen:        l.gen.Load(),
		Examples:   l.total.Load(),
		Classes:    int(l.classes.Load()),
		Centroids:  l.k,
		LastFold:   time.Duration(l.lastFoldNs.Load()),
	}
}

// Close stops intake and the stripe workers. Examples already queued are
// bundled into the (now unreachable) next epoch; call Reconcile before
// Close to fold and publish everything accepted. Idempotent.
func (l *Learner) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	for _, s := range l.stripes {
		close(s.ch)
	}
	l.mu.Unlock()
	for _, s := range l.stripes {
		<-s.done
	}
}
