// Command langid is the paper's language-recognition CLI: it trains the
// 21-language recognizer (or loads a saved model), classifies text from
// stdin (one sample per line) through one HAM design, and reports the
// predicted language per line and, when lines carry a "<language>\t<text>"
// prefix, the overall accuracy.
//
// Usage:
//
//	echo "the quick brown fox" | langid
//	langid -design aham -dim 10000 -train 200000 < samples.txt
//	langid -train 200000 -save model.hds < /dev/null
//	langid -load model.hds -demo
//	langid -server 127.0.0.1:7401 < samples.txt
//
// Flags:
//
//	-dim N, -train N, -seed N  dimensionality, training characters per
//	             language and pipeline seed (defaults 10,000, 200,000, 2017)
//	-design S    search hardware: exact | dham | rham | aham | cascade
//	-cascade     shorthand for -design cascade: the two-stage d-sampled
//	             searcher, bit-identical to exact search (snapshot loads
//	             reuse the slice recorded at training time)
//	-resilient   classify through the confidence-gated escalation -chain
//	             (default aham,rham,dham,exact), escalating answers whose
//	             Hamming-distance margin over the runner-up is below -margin
//	-demo        classify generated demo sentences instead of stdin
//	-save F      write the trained model as a versioned snapshot file
//	-load F      load a snapshot (or legacy memory file) instead of training
//	-server A    thin client: classify stdin through the hamserve at binary-
//	             protocol address A, printing the same lines and accuracy
//	             plus the model generation(s) that answered; takes no other
//	             flag
//
// Serving is hamserve's job: sockets, replica fleets, remote replicas,
// online learning, and hot-swapping the newest snapshot of a watched
// directory (hamserve -load DIR).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"hdam"
)

// remoteBatch is how many stdin lines -server sends per query frame.
const remoteBatch = 64

// designs names the searchers -design and -chain select.
var designs = map[string]bool{"exact": true, "dham": true, "rham": true, "aham": true, "cascade": true}

func main() {
	dim := flag.Int("dim", hdam.Dim, "hypervector dimensionality")
	train := flag.Int("train", 200_000, "training characters per language")
	design := flag.String("design", "exact", "search hardware: exact | dham | rham | aham | cascade")
	cascade := flag.Bool("cascade", false, "classify through the cascaded d-sampled searcher (shorthand for -design cascade)")
	seed := flag.Uint64("seed", 2017, "pipeline seed")
	demo := flag.Bool("demo", false, "classify generated demo sentences")
	saveTo := flag.String("save", "", "write the trained model as a snapshot to this file after training")
	loadFrom := flag.String("load", "", "load a trained model (snapshot or legacy format) instead of training")
	resilient := flag.Bool("resilient", false, "classify through the confidence-gated escalation chain")
	chain := flag.String("chain", "aham,rham,dham,exact", "comma-separated escalation chain for -resilient")
	margin := flag.Int("margin", 32, "confidence threshold (Hamming-distance margin) for -resilient")
	server := flag.String("server", "", "classify stdin through the hamserve at this binary-protocol address (thin client)")
	flag.Parse()

	if *server != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "server" {
				usage("-server classifies with the server's model and cannot combine with -%s", f.Name)
			}
		})
		if err := classifyRemote(*server); err != nil {
			fatal(err)
		}
		return
	}

	// Validate the hardware selection before spending minutes on training.
	if *cascade {
		*design = "cascade"
	}
	if !designs[*design] {
		usage("unknown design %q (want exact, dham, rham, aham or cascade)", *design)
	}
	if *resilient && *design == "cascade" {
		usage("-cascade is already margin-gated and cannot combine with -resilient")
	}
	var stages []string
	if *resilient {
		stages = strings.Split(*chain, ",")
		for _, st := range stages {
			if d := strings.TrimSpace(st); !designs[d] || d == "cascade" {
				usage("unknown design %q in -chain %q (want exact, dham, rham or aham)", st, *chain)
			}
		}
		if *margin < 0 {
			usage("negative -margin %d", *margin)
		}
	}

	langs := hdam.Languages()
	p := hdam.DefaultLanguageParams()
	p.Dim = *dim
	p.TrainChars = *train
	p.Seed = *seed
	p.TestPerLang = 1 // the test set is not used in CLI mode

	var tr *hdam.Trained
	var loaded hdam.Searcher // the snapshot's own exact searcher, nil when trained
	var err error
	casc := hdam.CascadeConfig{SliceOffset: -1}
	if *loadFrom != "" {
		tr, loaded, casc, err = loadModel(*loadFrom, p, *design == "exact" && !*resilient)
	} else {
		fmt.Fprintf(os.Stderr, "training %d languages at D=%d on %d chars each...\n",
			len(langs), p.Dim, p.TrainChars)
		start := time.Now()
		if tr, err = hdam.TrainLanguages(langs, p); err == nil {
			fmt.Fprintf(os.Stderr, "trained in %s\n", time.Since(start).Round(time.Millisecond))
			if *saveTo != "" {
				casc, err = save(*saveTo, tr, len(langs))
			}
		}
	}
	if err != nil {
		fatal(err)
	}

	var searcher hdam.Searcher
	var res *hdam.Resilient
	switch {
	case *resilient:
		res, err = buildChain(stages, *margin, tr)
		searcher = res
	case *design == "exact" && loaded != nil:
		searcher = loaded
	default:
		searcher, err = buildSearcher(*design, tr.Memory, casc)
	}
	if err != nil {
		fatal(err)
	}

	if *demo {
		runDemo(tr, searcher, langs, *seed)
	} else {
		classified := 0
		err := classifyStdin(1, func(texts []string) ([]string, error) {
			q, n := tr.Encoder.EncodeText(texts[0], *seed+uint64(classified))
			if n == 0 {
				return []string{""}, nil
			}
			classified++
			return []string{tr.Memory.Label(searcher.Search(q).Index)}, nil
		})
		if err != nil {
			fatal(err)
		}
	}
	reportStages(res)
	reportCascade(searcher)
}

// fatal reports a runtime error and exits 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "langid: %v\n", err)
	os.Exit(1)
}

// usage reports a flag error with the flag summary and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "langid: "+format+"\n\n", args...)
	flag.Usage()
	os.Exit(2)
}

// classifyStdin classifies the non-blank stdin lines, size at a time,
// through classify, which returns one label per text ("" for none). It
// prints "label\ttext" ("?" for no label) in input order and, when lines
// carry a "<language>\t" prefix, the accuracy over the labeled answers.
func classifyStdin(size int, classify func(texts []string) ([]string, error)) error {
	correct, labeled := 0, 0
	var wants, texts []string
	flush := func() error {
		if len(texts) == 0 {
			return nil
		}
		got, err := classify(texts)
		if err != nil {
			return err
		}
		for i, text := range texts {
			if got[i] == "" {
				fmt.Printf("?\t%s\n", text)
				continue
			}
			fmt.Printf("%s\t%s\n", got[i], text)
			if wants[i] != "" {
				labeled++
				if got[i] == wants[i] {
					correct++
				}
			}
		}
		wants, texts = wants[:0], texts[:0]
		return nil
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		want, text := "", line
		if i := strings.IndexByte(line, '\t'); i >= 0 {
			want, text = line[:i], line[i+1:]
		}
		wants, texts = append(wants, want), append(texts, text)
		if len(texts) == size {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stdin: %w", err)
	}
	if err := flush(); err != nil {
		return err
	}
	if labeled > 0 {
		fmt.Fprintf(os.Stderr, "accuracy: %d/%d (%.1f%%)\n",
			correct, labeled, 100*float64(correct)/float64(labeled))
	}
	return nil
}

// classifyRemote classifies stdin through a running hamserve over one
// binary-protocol connection, remoteBatch lines per query frame. It reports
// how many answers each model generation gave, so a hot swap on the server
// is visible from the client.
func classifyRemote(addr string) error {
	c, err := hdam.DialNet(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	var gens []uint64 // generations in the order they first answered
	perGen := map[uint64]int{}
	err = classifyStdin(remoteBatch, func(texts []string) ([]string, error) {
		answers, err := c.Ask(texts, 0)
		if err != nil {
			return nil, err
		}
		if len(answers) != len(texts) {
			return nil, fmt.Errorf("server sent %d answers for %d lines", len(answers), len(texts))
		}
		labels := make([]string, len(answers))
		for i, a := range answers {
			if err := hdam.NetAnswerError(a); err != nil {
				fmt.Fprintf(os.Stderr, "langid: %q: %v\n", clip(texts[i], 48), err)
				continue
			}
			labels[i] = a.Label
			if perGen[a.Gen]++; perGen[a.Gen] == 1 {
				gens = append(gens, a.Gen)
			}
		}
		return labels, nil
	})
	for _, g := range gens {
		fmt.Fprintf(os.Stderr, "generation %d: %d answers\n", g, perGen[g])
	}
	return err
}

// save writes the trained model as a snapshot. It selects and records the
// cascade slice at save time, so a reloaded model cascades over the exact
// components this one would, and returns that slice.
func save(path string, tr *hdam.Trained, langs int) (hdam.CascadeConfig, error) {
	p := tr.Params
	casc := hdam.CascadeConfig{SliceOffset: -1}
	cfg := hdam.SnapshotConfig{Dim: p.Dim, NGram: p.NGram, Seed: p.Seed}
	if cas, err := hdam.NewCascadeSearcher(tr.Memory, casc); err == nil {
		cfg.SliceOffset, cfg.SliceWords = cas.SliceOffset(), cas.SliceWords()
		casc = hdam.CascadeConfig{SliceOffset: cas.SliceOffset(), SliceWords: cas.SliceWords()}
	}
	snap, err := hdam.CaptureSnapshot(tr.Memory, cfg, hdam.SnapshotProvenance{
		Trainer:    "langid",
		CorpusSeed: p.Seed,
		CreatedAt:  time.Now().UTC(),
		Note:       fmt.Sprintf("%d languages, %d chars each", langs, p.TrainChars),
	})
	if err == nil {
		err = hdam.SaveSnapshot(path, snap)
	}
	if err != nil {
		return casc, fmt.Errorf("saving snapshot: %w", err)
	}
	fmt.Fprintf(os.Stderr, "saved model snapshot to %s\n", path)
	return casc, nil
}

// loadModel loads a snapshot file, falling back to the legacy SaveMemory
// format. A snapshot brings its recorded dim, n-gram order, seed and cascade
// slice, plus its own exact searcher (min-over-centroids with clean labels
// for a multi-centroid snapshot, which only the exact design may search). A
// legacy file recovers only the dimensionality; its searcher is nil.
func loadModel(path string, p hdam.LanguageParams, exact bool) (*hdam.Trained, hdam.Searcher, hdam.CascadeConfig, error) {
	casc := hdam.CascadeConfig{SliceOffset: -1}
	snap, err := hdam.OpenSnapshot(path)
	if err == nil {
		// The snapshot stays open for the process lifetime: on linux the
		// model serves zero-copy from the file mapping.
		cfg := snap.Config()
		tr, s, err := hdam.SnapshotModel(snap)
		if err != nil {
			return nil, nil, casc, fmt.Errorf("loading snapshot %s: %w", path, err)
		}
		if cfg.Centroids > 1 && !exact {
			return nil, nil, casc, fmt.Errorf("%s holds %d centroids per class; only -design exact searches them", path, cfg.Centroids)
		}
		if cfg.SliceWords > 0 {
			casc = hdam.CascadeConfig{SliceOffset: cfg.SliceOffset, SliceWords: cfg.SliceWords}
		}
		fmt.Fprintf(os.Stderr, "loaded snapshot %s: %d classes at D=%d (ngram=%d seed=%d centroids=%d trainer=%q zero-copy=%v)\n",
			path, tr.Memory.Classes(), cfg.Dim, cfg.NGram, cfg.Seed, max(cfg.Centroids, 1), snap.Provenance().Trainer, snap.ZeroCopy())
		return tr, s, casc, nil
	}
	if !errors.Is(err, hdam.ErrNotSnapshot) {
		return nil, nil, casc, fmt.Errorf("loading snapshot %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, casc, err
	}
	defer f.Close()
	mem, err := hdam.LoadMemory(f)
	if err != nil {
		return nil, nil, casc, fmt.Errorf("loading legacy memory %s: %w", path, err)
	}
	p.Dim = mem.Dim()
	fmt.Fprintf(os.Stderr, "loaded legacy memory %s: %d classes at D=%d\n", path, mem.Classes(), mem.Dim())
	return &hdam.Trained{Memory: mem, Encoder: hdam.PipelineEncoderFactory(p)(), Params: p}, nil, casc, nil
}

// buildChain assembles the resilient escalation pipeline.
func buildChain(designs []string, margin int, tr *hdam.Trained) (*hdam.Resilient, error) {
	stages := make([]hdam.ResilientStage, len(designs))
	for i, d := range designs {
		s, err := buildSearcher(strings.TrimSpace(d), tr.Memory, hdam.CascadeConfig{})
		if err != nil {
			return nil, err
		}
		stages[i] = hdam.ResilientStage{Searcher: s}
	}
	return hdam.NewResilient(stages, hdam.ResilientConfig{MinMargin: margin})
}

// reportStages prints the escalation pipeline's health counters.
func reportStages(res *hdam.Resilient) {
	if res == nil || res.Searches() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "resilient chain over %d searches:\n", res.Searches())
	for _, st := range res.Stats() {
		state := "closed"
		if st.BreakerOpen {
			state = "OPEN"
		}
		fmt.Fprintf(os.Stderr, "  %-28s accepted %4d  escalated %4d  skipped %4d  err %.3f  breaker %s\n",
			st.Name, st.Accepted, st.Escalated, st.Skipped, st.ErrEWMA, state)
	}
}

// buildSearcher builds the selected design over a memory, taking its shape
// from the memory itself. casc only applies to the cascade design (a
// negative offset means build-time slice selection).
func buildSearcher(design string, mem *hdam.Memory, casc hdam.CascadeConfig) (hdam.Searcher, error) {
	d, c := mem.Dim(), mem.Classes()
	switch design {
	case "exact":
		return hdam.NewExactSearcher(mem), nil
	case "dham":
		return hdam.NewDHAM(hdam.DHAMConfig{D: d, C: c}, mem)
	case "rham":
		return hdam.NewRHAM(hdam.RHAMConfig{D: d, C: c}, mem)
	case "aham":
		return hdam.NewAHAM(hdam.AHAMConfig{D: d, C: c}, mem)
	case "cascade":
		return hdam.NewCascadeSearcher(mem, casc)
	default:
		return nil, fmt.Errorf("unknown design %q (exact|dham|rham|aham|cascade)", design)
	}
}

// reportCascade prints the cascaded searcher's stage counters.
func reportCascade(s hdam.Searcher) {
	c, ok := s.(*hdam.CascadeSearcher)
	if !ok {
		return
	}
	st := c.Stats()
	if st.Queries == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s over slice [%d,+%d): %d searches, avg shortlist %.1f, widened %.2f%%\n",
		c.Name(), c.SliceOffset(), c.SliceWords(), st.Queries, st.AvgShortlist(), 100*st.WidenRate())
}

func runDemo(tr *hdam.Trained, searcher hdam.Searcher, langs []*hdam.Language, seed uint64) {
	rng := rand.New(rand.NewPCG(seed^0xde30, 0))
	correct, total := 0, 0
	for _, l := range langs {
		for k := 0; k < 3; k++ {
			s := l.GenerateSentence(120, rng)
			q, _ := tr.Encoder.EncodeText(s, seed+uint64(total))
			got := tr.Memory.Label(searcher.Search(q).Index)
			mark := "✗"
			if got == l.Name {
				mark = "✓"
				correct++
			}
			total++
			fmt.Printf("%s true=%-11s pred=%-11s %q\n", mark, l.Name, got, clip(s, 48))
		}
	}
	fmt.Printf("demo accuracy: %d/%d (%.1f%%) using %s\n",
		correct, total, 100*float64(correct)/float64(total), searcher.Name())
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
