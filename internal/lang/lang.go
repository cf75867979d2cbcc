// Package lang implements the paper's end-to-end language-recognition
// application (§II-A): training one hypervector per language by bundling
// letter-trigram hypervectors over megabytes of text, encoding unseen test
// sentences the same way, and classifying them with an associative search.
// It also provides the evaluation harness (microaveraged accuracy over
// 21,000 test sentences, confusion matrices) used by every accuracy
// experiment in the reproduction.
package lang

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/hv"
	"hdam/internal/itemmem"
	"hdam/internal/textgen"
)

// Params configures the language-recognition pipeline.
type Params struct {
	// Dim is the hypervector dimensionality (paper default 10,000).
	Dim int
	// NGram is the n-gram order (paper uses trigrams, n = 3).
	NGram int
	// TrainChars is the number of training characters generated per
	// language (paper: ~1 MB per language).
	TrainChars int
	// TestPerLang is the number of test sentences per language (paper:
	// 1,000 single-sentence samples).
	TestPerLang int
	// SentenceLen is the approximate test sentence length in characters.
	SentenceLen int
	// Seed drives every random choice (corpora, item memory, tie breaks).
	Seed uint64
}

// DefaultParams returns the paper's configuration: D = 10,000 trigram
// encoding, ~1 MB training text and 1,000 test sentences per language.
func DefaultParams() Params {
	return Params{
		Dim:         hv.Dim,
		NGram:       3,
		TrainChars:  1_000_000,
		TestPerLang: 1000,
		SentenceLen: 150,
		Seed:        2017,
	}
}

// check validates parameters.
func (p Params) check() error {
	switch {
	case p.Dim <= 0:
		return fmt.Errorf("lang: dim %d", p.Dim)
	case p.NGram < 1:
		return fmt.Errorf("lang: n-gram %d", p.NGram)
	case p.TrainChars < p.NGram:
		return fmt.Errorf("lang: train chars %d below n-gram size", p.TrainChars)
	case p.TestPerLang < 1:
		return fmt.Errorf("lang: test per lang %d", p.TestPerLang)
	case p.SentenceLen < p.NGram:
		return fmt.Errorf("lang: sentence length %d below n-gram size", p.SentenceLen)
	}
	return nil
}

// Trained bundles everything the training phase produces: the associative
// memory of learned language hypervectors and the encoder (item memory)
// shared by training and inference.
type Trained struct {
	Memory  *core.Memory
	Encoder *encoder.Encoder
	Params  Params
}

// Train builds one language hypervector per language: it generates
// TrainChars of synthetic text per language, slides the n-gram encoder over
// it and bundles every n-gram hypervector by majority (the paper's learned
// language hypervectors). Languages are trained concurrently.
func Train(langs []*textgen.Language, p Params) (*Trained, error) {
	return TrainOn(langs, nil, p)
}

// TrainTexts generates the per-language training corpora Train would use:
// texts[i] is exactly what language i's training goroutine draws from its
// RNG stream. The corpora depend only on (Seed, TrainChars) — not on the
// dimensionality — so sweeps over D can generate them once and pass them to
// TrainOn instead of regenerating megabytes of text per dimensionality.
func TrainTexts(langs []*textgen.Language, p Params) []string {
	texts := make([]string, len(langs))
	for i, l := range langs {
		rng := rand.New(rand.NewPCG(p.Seed, uint64(i)*0x51_7cc1b7+11))
		texts[i] = l.GenerateText(p.TrainChars, rng)
	}
	return texts
}

// TrainOn is Train with optional pre-generated training corpora: if texts is
// non-nil it must be TrainTexts(langs, p), and generation is skipped. A nil
// texts trains exactly like Train (each goroutine generates its own corpus).
func TrainOn(langs []*textgen.Language, texts []string, p Params) (*Trained, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	if len(langs) == 0 {
		return nil, fmt.Errorf("lang: no languages")
	}
	if texts != nil && len(texts) != len(langs) {
		return nil, fmt.Errorf("lang: %d texts for %d languages", len(texts), len(langs))
	}
	// Encoders derive their symbol table from the memory's seed, so it
	// needs no preloaded symbols.
	im := itemmem.New(p.Dim, p.Seed)

	classes := make([]*hv.Vector, len(langs))
	labels := make([]string, len(langs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, l := range langs {
		labels[i] = l.Name
		wg.Add(1)
		go func(i int, l *textgen.Language) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each language gets its own encoder for its symbol-id scratch;
			// all of them share the process-wide symbol table.
			enc := encoder.New(im, p.NGram)
			var text string
			if texts != nil {
				text = texts[i]
			} else {
				rng := rand.New(rand.NewPCG(p.Seed, uint64(i)*0x51_7cc1b7+11))
				text = l.GenerateText(p.TrainChars, rng)
			}
			acc := hv.NewAccumulator(p.Dim, p.Seed+uint64(i))
			enc.AccumulateText(acc, text)
			classes[i] = acc.Majority()
		}(i, l)
	}
	wg.Wait()

	mem, err := core.NewMemory(classes, labels)
	if err != nil {
		return nil, err
	}
	return &Trained{Memory: mem, Encoder: encoder.New(im, p.NGram), Params: p}, nil
}

// Sample is one labeled test sentence.
type Sample struct {
	Text  string
	Label int // index into the language catalog
}

// TestSet is a labeled evaluation set, plus the encoded query hypervectors
// once Encode has run.
type TestSet struct {
	Samples []Sample
	Queries []*hv.Vector
}

// MakeTestSet draws TestPerLang sentences per language from an independent
// stream (the paper uses Europarl, disjoint from the Wortschatz training
// data; here a disjoint RNG stream of the same models).
func MakeTestSet(langs []*textgen.Language, p Params) *TestSet {
	ts := &TestSet{}
	for i, l := range langs {
		// The 0x7e57 xor keeps the test stream disjoint from training RNG.
		rng := rand.New(rand.NewPCG(p.Seed^0x7e57_0000_0000, uint64(i)))
		for k := 0; k < p.TestPerLang; k++ {
			ts.Samples = append(ts.Samples, Sample{
				Text:  l.GenerateSentence(p.SentenceLen, rng),
				Label: i,
			})
		}
	}
	return ts
}

// Encode computes the query hypervector for every sample, in parallel.
func (ts *TestSet) Encode(t *Trained) {
	ts.Queries = make([]*hv.Vector, len(ts.Samples))
	im := itemmem.New(t.Params.Dim, t.Params.Seed)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(ts.Samples) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(ts.Samples) {
			hi = len(ts.Samples)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			enc := encoder.New(im, t.Params.NGram)
			for i := lo; i < hi; i++ {
				q, _ := enc.EncodeText(ts.Samples[i].Text, t.Params.Seed+uint64(i))
				ts.Queries[i] = q
			}
		}(lo, hi)
	}
	wg.Wait()
}

// DistanceMatrix computes, for every encoded query, the exact Hamming
// distance to every class. Experiments that sweep approximation knobs
// (error bits, Δ, sampling) reuse this matrix instead of re-searching.
// The rows share one flat backing array, and each worker runs the blocked
// batch kernel over its query chunk: the packed class matrix is streamed
// once per query block rather than once per query row.
func (ts *TestSet) DistanceMatrix(mem *core.Memory) [][]int {
	if ts.Queries == nil {
		panic("lang: Encode must run before DistanceMatrix")
	}
	c := mem.Classes()
	flat := make([]int, len(ts.Queries)*c)
	dm := make([][]int, len(ts.Queries))
	for i := range dm {
		dm[i] = flat[i*c : (i+1)*c : (i+1)*c]
	}
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(ts.Queries) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(ts.Queries) {
			hi = len(ts.Queries)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mem.DistancesBatchInto(flat[lo*c:hi*c], ts.Queries[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	return dm
}

// Report summarizes one evaluation run.
type Report struct {
	Correct   int
	Total     int
	Confusion [][]int // Confusion[true][predicted]
	Labels    []string
}

// Accuracy is the microaveraged accuracy: every per-sentence decision gets
// equal weight, exactly as the paper measures it (§IV-A).
func (r Report) Accuracy() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Total)
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%d/%d correct (%.2f%%)", r.Correct, r.Total, 100*r.Accuracy())
}

// Evaluate classifies every encoded query with the given searcher and
// scores it against the true labels. Classification runs sequentially in
// input order — the safe mode for searchers carrying non-forkable
// randomness; deterministic or forkable searchers can use EvaluateParallel.
func Evaluate(s core.Searcher, mem *core.Memory, ts *TestSet) Report {
	return EvaluateParallel(s, mem, ts, 1)
}

// EvaluateParallel is Evaluate fanned out over the given worker count via
// core.SearchAllWorkers (workers <= 1 runs sequentially, 0 is resolved to
// GOMAXPROCS by SearchAll's rule at the call site). The sequential-fallback
// rule of core.SearchAll applies: randomized searchers need to be forkable
// for workers > 1; forked results follow the per-worker-stream determinism
// contract.
func EvaluateParallel(s core.Searcher, mem *core.Memory, ts *TestSet, workers int) Report {
	if ts.Queries == nil {
		panic("lang: Encode must run before Evaluate")
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := core.SearchAllWorkers(s, ts.Queries, workers)
	winners := make([]int, len(results))
	for i, res := range results {
		winners[i] = res.Index
	}
	return EvaluateWinners(winners, mem, ts)
}

// EvaluateWinners scores a precomputed winner per sample (used by the
// distance-matrix sweeps).
func EvaluateWinners(winners []int, mem *core.Memory, ts *TestSet) Report {
	if len(winners) != len(ts.Samples) {
		panic(fmt.Sprintf("lang: %d winners for %d samples", len(winners), len(ts.Samples)))
	}
	r := Report{Total: len(winners), Labels: mem.Labels()}
	c := mem.Classes()
	r.Confusion = make([][]int, c)
	for i := range r.Confusion {
		r.Confusion[i] = make([]int, c)
	}
	for i, got := range winners {
		want := ts.Samples[i].Label
		r.Confusion[want][got]++
		if got == want {
			r.Correct++
		}
	}
	return r
}

// MacroAccuracy is the per-class (macroaveraged) accuracy: the mean of the
// per-language recalls. The paper deliberately reports the microaverage
// instead ("equal weight to each per-sentence classification decision,
// rather than per-class", §IV-A); both are provided so the choice is
// visible. With equal per-class test counts the two coincide.
func (r Report) MacroAccuracy() float64 {
	if len(r.Confusion) == 0 {
		return 0
	}
	var sum float64
	classes := 0
	for i, row := range r.Confusion {
		total := 0
		for _, n := range row {
			total += n
		}
		if total == 0 {
			continue
		}
		sum += float64(row[i]) / float64(total)
		classes++
	}
	if classes == 0 {
		return 0
	}
	return sum / float64(classes)
}

// PerClassRecall returns each class's recall (diagonal over row sum), with
// NaN-free zeros for classes without test samples.
func (r Report) PerClassRecall() []float64 {
	out := make([]float64, len(r.Confusion))
	for i, row := range r.Confusion {
		total := 0
		for _, n := range row {
			total += n
		}
		if total > 0 {
			out[i] = float64(row[i]) / float64(total)
		}
	}
	return out
}
