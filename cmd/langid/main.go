// Command langid trains the paper's 21-language recognizer and classifies
// text from stdin (one sample per line), reporting the predicted language
// per line and, when lines carry a "<language>\t<text>" prefix, the overall
// accuracy.
//
// Usage:
//
//	echo "the quick brown fox" | langid
//	langid -design aham -dim 10000 -train 200000 < samples.txt
//
// Flags:
//
//	-dim N       hypervector dimensionality (default 10,000)
//	-train N     training characters per language (default 200,000)
//	-design S    search hardware: exact | dham | rham | aham | cascade
//	             (default exact)
//	-cascade     shorthand for -design cascade: the two-stage d-sampled
//	             searcher, bit-identical to exact search (snapshot loads
//	             reuse the slice recorded at training time)
//	-seed N      pipeline seed
//	-demo        classify generated demo sentences instead of stdin
//	-resilient   serve through the confidence-gated escalation chain
//	-chain S     comma-separated escalation chain (default aham,rham,dham,exact)
//	-margin N    confidence threshold: escalate answers whose Hamming-distance
//	             margin over the runner-up is below N
//	-workers N   serve stdin through the micro-batching engine with N
//	             encode→search workers (0 = GOMAXPROCS, 1 = serial; designs
//	             with non-forkable randomness — rham, aham — are forced to 1;
//	             negative is rejected)
//	-batch N     micro-batch size for the serving engine (default 32; must be
//	             at least 1)
//	-shards N    word-range shards for the parallel distance kernel
//	             (0 = serial kernel, -1 = GOMAXPROCS; other negatives are
//	             rejected)
//	-save F      write the trained model as a versioned snapshot file
//	-load F      load a model snapshot (or legacy memory file) instead of
//	             training
//	-watch DIR   serve stdin from the newest snapshot in DIR, hot-swapping
//	             the model as new snapshots are published there
//	-fleet N     serve stdin through a scatter-gather fleet of N replica
//	             engines over a partitioned class matrix: exact answers when
//	             healthy, degraded-but-correct answers (erasures scored,
//	             coverage reported) when replicas fail; combines with -watch
//	             (snapshots roll through the whole fleet atomically)
//	-fleet-scheme S  fleet partition scheme: words (lost partition degrades
//	             to a d-sampled answer) or classes (lost partition excludes
//	             its classes); default words
//	-connect A1,A2,...  classify through a remote replica fleet: each
//	             address is a hamserve -replica process, address i serving
//	             partition i mod -partitions; the local model copy (-load
//	             the replicas' shared snapshot) provides the partition
//	             geometry, labels and the gather reduce
//	-partitions N  partition count for -connect (0 = one per address)
//	-listen A    serve the model over TCP on address A with the binary wire
//	             protocol instead of classifying stdin; combines with
//	             -load, -watch, -fleet, -workers and -batch. SIGINT/SIGTERM
//	             drains: every accepted request is answered before exit
//	-listen-http A  also (or instead) serve HTTP/JSON on address A
//	             (/classify, /statsz, /healthz)
//	-learn DIR   with -listen/-listen-http: also accept labeled examples
//	             (binary learn frames, POST /learn) while serving, folding
//	             them into new snapshot generations in DIR that hot-swap
//	             into the engine; exact search only, exclusive with -fleet,
//	             -connect, -watch, -resilient and -demo
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hdam"
)

func main() {
	dim := flag.Int("dim", hdam.Dim, "hypervector dimensionality")
	train := flag.Int("train", 200_000, "training characters per language")
	design := flag.String("design", "exact", "search hardware: exact | dham | rham | aham | cascade")
	cascade := flag.Bool("cascade", false, "serve through the cascaded d-sampled searcher (shorthand for -design cascade)")
	seed := flag.Uint64("seed", 2017, "pipeline seed")
	demo := flag.Bool("demo", false, "classify generated demo sentences")
	saveTo := flag.String("save", "", "write the trained model as a snapshot to this file after training")
	loadFrom := flag.String("load", "", "load a trained model (snapshot or legacy format) instead of training")
	watchDir := flag.String("watch", "", "serve stdin from the newest snapshot in this directory, hot-swapping as new ones appear")
	resilient := flag.Bool("resilient", false, "serve through the confidence-gated escalation chain")
	chain := flag.String("chain", "aham,rham,dham,exact", "comma-separated escalation chain for -resilient")
	margin := flag.Int("margin", 32, "confidence threshold (Hamming-distance margin) for -resilient")
	workers := flag.Int("workers", 1, "micro-batching engine workers (0 = GOMAXPROCS, 1 = serial loop)")
	batch := flag.Int("batch", 32, "micro-batch size for the serving engine (>= 1)")
	shards := flag.Int("shards", 0, "word-range shards for the distance kernel (0 = serial, -1 = GOMAXPROCS)")
	fleetN := flag.Int("fleet", 0, "serve stdin through a scatter-gather fleet of N replica engines (0 = off)")
	fleetScheme := flag.String("fleet-scheme", "words", "fleet partition scheme: words | classes")
	connect := flag.String("connect", "", "classify through a remote replica fleet: comma-separated hamserve -replica addresses, address i serving partition i mod -partitions")
	connectParts := flag.Int("partitions", 0, "partition count for -connect (0 = one per address)")
	listen := flag.String("listen", "", "serve over TCP with the binary wire protocol on this address instead of classifying stdin")
	listenHTTP := flag.String("listen-http", "", "serve HTTP/JSON (/classify, /statsz, /healthz) on this address")
	learnDir := flag.String("learn", "", "accept labeled examples while serving and fold new model generations into this directory (requires -listen or -listen-http)")
	flag.Parse()

	// Validate the hardware selection and engine shape before spending
	// minutes on training.
	if *cascade {
		*design = "cascade"
	}
	if !knownDesign(*design) {
		fmt.Fprintf(os.Stderr, "langid: unknown design %q (want exact, dham, rham, aham or cascade)\n\n", *design)
		flag.Usage()
		os.Exit(2)
	}
	if *resilient && *design == "cascade" {
		fmt.Fprintln(os.Stderr, "langid: -cascade is already margin-gated and cannot combine with -resilient")
		fmt.Fprintln(os.Stderr)
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "langid: negative -workers %d (0 = GOMAXPROCS, 1 = serial)\n\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "langid: -batch %d below 1 (a micro-batch carries at least one request)\n\n", *batch)
		flag.Usage()
		os.Exit(2)
	}
	if *shards < -1 {
		fmt.Fprintf(os.Stderr, "langid: -shards %d (0 = serial kernel, -1 = GOMAXPROCS, positive = shard count)\n\n", *shards)
		flag.Usage()
		os.Exit(2)
	}
	if (*listen != "" || *listenHTTP != "") && *demo {
		fmt.Fprintln(os.Stderr, "langid: -listen serves sockets and cannot combine with -demo")
		fmt.Fprintln(os.Stderr)
		flag.Usage()
		os.Exit(2)
	}
	netCfg := hdam.NetConfig{BinaryAddr: *listen, HTTPAddr: *listenHTTP}
	serveNet := *listen != "" || *listenHTTP != ""
	if *learnDir != "" {
		if !serveNet {
			fmt.Fprintln(os.Stderr, "langid: -learn ingests over the network and needs -listen or -listen-http")
			fmt.Fprintln(os.Stderr)
			flag.Usage()
			os.Exit(2)
		}
		if *fleetN != 0 || *connect != "" || *watchDir != "" || *resilient || *demo || *design != "exact" {
			fmt.Fprintln(os.Stderr, "langid: -learn serves a whole-model exact engine and cannot combine with -fleet, -connect, -watch, -resilient, -demo or -design")
			fmt.Fprintln(os.Stderr)
			flag.Usage()
			os.Exit(2)
		}
	}
	var scheme hdam.FleetScheme
	if *fleetN != 0 {
		if *fleetN < 0 {
			fmt.Fprintf(os.Stderr, "langid: negative -fleet %d\n\n", *fleetN)
			flag.Usage()
			os.Exit(2)
		}
		switch *fleetScheme {
		case "words":
			scheme = hdam.FleetByWords
		case "classes":
			scheme = hdam.FleetByClasses
		default:
			fmt.Fprintf(os.Stderr, "langid: unknown -fleet-scheme %q (want words or classes)\n\n", *fleetScheme)
			flag.Usage()
			os.Exit(2)
		}
		if *design != "exact" || *resilient || *demo || *workers != 1 || *shards != 0 {
			fmt.Fprintln(os.Stderr, "langid: -fleet partitions the exact scan across replica engines and cannot combine with -design, -resilient, -demo, -workers or -shards")
			fmt.Fprintln(os.Stderr)
			flag.Usage()
			os.Exit(2)
		}
	}
	if *connect != "" {
		if *fleetN != 0 || *design != "exact" || *resilient || *demo || *workers != 1 || *shards != 0 || *watchDir != "" {
			fmt.Fprintln(os.Stderr, "langid: -connect scatter-gathers the exact scan over remote replicas and cannot combine with -fleet, -design, -resilient, -demo, -workers, -shards or -watch")
			fmt.Fprintln(os.Stderr)
			flag.Usage()
			os.Exit(2)
		}
		switch *fleetScheme {
		case "words":
			scheme = hdam.FleetByWords
		case "classes":
			scheme = hdam.FleetByClasses
		default:
			fmt.Fprintf(os.Stderr, "langid: unknown -fleet-scheme %q (want words or classes)\n\n", *fleetScheme)
			flag.Usage()
			os.Exit(2)
		}
	}
	var stages []string
	if *resilient {
		stages = strings.Split(*chain, ",")
		for _, st := range stages {
			if !knownDesign(strings.TrimSpace(st)) || strings.TrimSpace(st) == "cascade" {
				fmt.Fprintf(os.Stderr, "langid: unknown design %q in -chain %q (want exact, dham, rham or aham)\n\n", st, *chain)
				flag.Usage()
				os.Exit(2)
			}
		}
		if *margin < 0 {
			fmt.Fprintf(os.Stderr, "langid: negative -margin %d\n\n", *margin)
			flag.Usage()
			os.Exit(2)
		}
	}

	langs := hdam.Languages()
	p := hdam.DefaultLanguageParams()
	p.Dim = *dim
	p.TrainChars = *train
	p.Seed = *seed
	p.TestPerLang = 1 // the test set is not used in CLI mode

	if *watchDir != "" {
		if *fleetN > 0 {
			if err := serveFleetWatch(*watchDir, *fleetN, scheme, serveNet, netCfg); err != nil {
				fmt.Fprintf(os.Stderr, "langid: %v\n", err)
				os.Exit(1)
			}
			return
		}
		w := *workers
		if serialOnly(*design, false, nil) {
			fmt.Fprintln(os.Stderr, "langid: searcher carries non-forkable randomness; forcing -workers=1 (micro-batching stays on)")
			w = 1
		}
		if err := serveWatch(*watchDir, *design, w, *batch, *seed, serveNet, netCfg); err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var tr *hdam.Trained
	casc := hdam.CascadeConfig{SliceOffset: -1}
	if *loadFrom != "" {
		var err error
		tr, p, casc, err = loadModel(*loadFrom, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Fprintf(os.Stderr, "training %d languages at D=%d on %d chars each...\n",
			len(langs), p.Dim, p.TrainChars)
		start := time.Now()
		var err error
		tr, err = hdam.TrainLanguages(langs, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trained in %s\n", time.Since(start).Round(time.Millisecond))
		if *saveTo != "" {
			// Select and record the cascade slice at save time: a reloaded
			// model then cascades over the exact components this one would.
			cfg := hdam.SnapshotConfig{Dim: p.Dim, NGram: p.NGram, Seed: p.Seed}
			if cas, err := hdam.NewCascadeSearcher(tr.Memory, casc); err == nil {
				cfg.SliceOffset, cfg.SliceWords = cas.SliceOffset(), cas.SliceWords()
				casc = hdam.CascadeConfig{SliceOffset: cas.SliceOffset(), SliceWords: cas.SliceWords()}
			}
			snap, err := hdam.CaptureSnapshot(tr.Memory, cfg,
				hdam.SnapshotProvenance{
					Trainer:    "langid",
					CorpusSeed: p.Seed,
					CreatedAt:  time.Now().UTC(),
					Note:       fmt.Sprintf("%d languages, %d chars each", len(langs), p.TrainChars),
				})
			if err == nil {
				err = hdam.SaveSnapshot(*saveTo, snap)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "langid: saving snapshot: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "saved model snapshot to %s\n", *saveTo)
		}
	}

	if *connect != "" {
		addrs := strings.Split(*connect, ",")
		parts := *connectParts
		if parts <= 0 {
			parts = len(addrs)
		}
		transports := make([]hdam.ReplicaTransport, len(addrs))
		for i, addr := range addrs {
			transports[i] = hdam.NewRemoteTransport(hdam.RemoteConfig{
				Addr: strings.TrimSpace(addr),
				Seed: *seed,
				Link: uint64(i),
			})
		}
		fl, err := hdam.NewRemoteFleet(tr.Memory, hdam.PipelineEncoderFactory(tr.Params), transports, hdam.FleetConfig{
			Partitions: parts, Scheme: scheme, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		defer fl.Close()
		fmt.Fprintf(os.Stderr, "connected to %d remote replicas over %d partitions\n", len(addrs), parts)
		if serveNet {
			srv, err := hdam.ServeFleet(fl, netCfg)
			if err == nil {
				err = runNetServer(srv)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "langid: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if err := pumpStdinFleet(fl); err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *fleetN > 0 {
		fl, err := hdam.NewFleet(tr, hdam.FleetConfig{Replicas: *fleetN, Scheme: scheme, Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		defer fl.Close()
		if serveNet {
			srv, err := hdam.ServeFleet(fl, netCfg)
			if err == nil {
				err = runNetServer(srv)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "langid: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if err := pumpStdinFleet(fl); err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *shards != 0 {
		// Route every searcher's distance kernel through the sharded
		// parallel matrix; outputs are bit-identical to the serial kernel.
		tr.Memory = tr.Memory.WithSharding(*shards)
		defer tr.Memory.Sharding().Close()
	}

	var searcher hdam.Searcher
	var res *hdam.Resilient
	var err error
	if *resilient {
		res, err = buildChain(stages, *margin, tr)
		searcher = res
	} else {
		searcher, err = buildSearcherMem(*design, tr.Memory, casc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "langid: %v\n", err)
		os.Exit(1)
	}

	if serveNet {
		w := *workers
		if w != 1 && serialOnly(*design, *resilient, stages) {
			fmt.Fprintln(os.Stderr, "langid: searcher carries non-forkable randomness; forcing -workers=1 (micro-batching stays on)")
			w = 1
		}
		eng, err := hdam.NewEngine(tr, searcher, hdam.ServeConfig{
			Workers: w, MaxBatch: *batch, Seed: *seed,
		})
		if err == nil {
			if *learnDir != "" {
				err = serveLearn(eng, tr, *learnDir, netCfg)
			} else {
				var srv *hdam.NetServer
				srv, err = hdam.ServeEngine(eng, netCfg)
				if err == nil {
					err = runNetServer(srv)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *demo {
		runDemo(tr, searcher, langs, *seed)
		reportStages(res)
		reportCascade(searcher)
		return
	}

	if *workers != 1 {
		w := *workers
		if w != 1 && serialOnly(*design, *resilient, stages) {
			fmt.Fprintln(os.Stderr, "langid: searcher carries non-forkable randomness; forcing -workers=1 (micro-batching stays on)")
			w = 1
		}
		if err := serveStdin(tr, searcher, w, *batch, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		reportStages(res)
		reportCascade(searcher)
		return
	}

	classified, correct, labeled := 0, 0, 0
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
		q, n := tr.Encoder.EncodeText(text, *seed+uint64(classified))
		if n == 0 {
			fmt.Printf("?\t%s\n", text)
			continue
		}
		got := tr.Memory.Label(searcher.Search(q).Index)
		fmt.Printf("%s\t%s\n", got, text)
		classified++
		if want != "" {
			labeled++
			if got == want {
				correct++
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "langid: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if labeled > 0 {
		fmt.Fprintf(os.Stderr, "accuracy: %d/%d (%.1f%%)\n",
			correct, labeled, 100*float64(correct)/float64(labeled))
	}
	reportStages(res)
	reportCascade(searcher)
}

// serialOnly reports whether the selected searcher carries per-search
// randomness that cannot fork into per-worker streams (the sequential-
// fallback rule of SearchAll): R-HAM's VOS injection and A-HAM's comparator
// offsets draw from one internal RNG.
func serialOnly(design string, resilient bool, stages []string) bool {
	randomized := func(d string) bool { return d == "rham" || d == "aham" }
	if !resilient {
		return randomized(design)
	}
	for _, st := range stages {
		if randomized(strings.TrimSpace(st)) {
			return true
		}
	}
	return false
}

// cascadeConfigFor derives the cascade configuration from a snapshot's
// recorded slice, falling back to build-time slice selection when the
// snapshot predates the slice fields.
func cascadeConfigFor(cfg hdam.SnapshotConfig) hdam.CascadeConfig {
	if cfg.SliceWords > 0 {
		return hdam.CascadeConfig{SliceOffset: cfg.SliceOffset, SliceWords: cfg.SliceWords}
	}
	return hdam.CascadeConfig{SliceOffset: -1}
}

// loadModel loads a trained model from a snapshot file, falling back to the
// legacy SaveMemory stream format, and returns the pipeline rebuilt around
// it plus the cascade configuration the model was saved with. Snapshot loads
// take dim, n-gram order and seed from the file's own recorded config (flag
// values are overridden); legacy loads can only recover the dimensionality
// and trust the flags for the rest.
func loadModel(path string, p hdam.LanguageParams) (*hdam.Trained, hdam.LanguageParams, hdam.CascadeConfig, error) {
	casc := hdam.CascadeConfig{SliceOffset: -1}
	snap, err := hdam.OpenSnapshot(path)
	if err == nil {
		// The snapshot stays open for the process lifetime: on linux the
		// model serves zero-copy from the file mapping.
		cfg := snap.Config()
		p.Dim, p.NGram, p.Seed = cfg.Dim, cfg.NGram, cfg.Seed
		mem := snap.Memory()
		prov := snap.Provenance()
		fmt.Fprintf(os.Stderr, "loaded snapshot %s: %d classes at D=%d (ngram=%d seed=%d trainer=%q zero-copy=%v)\n",
			path, mem.Classes(), mem.Dim(), cfg.NGram, cfg.Seed, prov.Trainer, snap.ZeroCopy())
		return rebuildTrained(mem, p), p, cascadeConfigFor(cfg), nil
	}
	if !errors.Is(err, hdam.ErrNotSnapshot) {
		return nil, p, casc, fmt.Errorf("loading snapshot %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, p, casc, err
	}
	defer f.Close()
	mem, err := hdam.LoadMemory(f)
	if err != nil {
		return nil, p, casc, fmt.Errorf("loading legacy memory %s: %w", path, err)
	}
	p.Dim = mem.Dim()
	fmt.Fprintf(os.Stderr, "loaded legacy memory %s: %d classes at D=%d\n", path, mem.Classes(), mem.Dim())
	return rebuildTrained(mem, p), p, casc, nil
}

// serveWatch serves stdin from the newest snapshot in dir, hot-swapping the
// engine as new snapshots are published (atomic rename makes partial files
// invisible). It blocks until a first model appears.
func serveWatch(dir, design string, workers, batch int, seed uint64, serveNet bool, netCfg hdam.NetConfig) error {
	var eng *hdam.Engine
	reg, err := hdam.NewModelRegistry(hdam.ModelRegistryConfig{
		Dir:      dir,
		Interval: time.Second,
		Swap: func(snap *hdam.Snapshot) error {
			mem := snap.Memory()
			searcher, err := buildSearcherMem(design, mem, cascadeConfigFor(snap.Config()))
			if err != nil {
				return err
			}
			if eng == nil {
				e, err := hdam.NewSnapshotEngine(snap, searcher, hdam.ServeConfig{
					Workers: workers, MaxBatch: batch, Seed: seed,
				})
				if err != nil {
					return err
				}
				eng = e
				return nil
			}
			_, err = eng.Swap(mem, searcher, hdam.SnapshotEncoderFactory(snap.Config()))
			return err
		},
		OnEvent: func(ev hdam.RegistryEvent) {
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "langid: %s %s: %v\n", ev.Kind, ev.Path, ev.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "langid: serving %s\n", ev.Path)
		},
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	for eng == nil {
		if _, err := reg.Check(); err != nil {
			return err
		}
		if eng != nil {
			break
		}
		fmt.Fprintf(os.Stderr, "langid: waiting for a snapshot in %s...\n", dir)
		time.Sleep(time.Second)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reg.Run(ctx)
	if serveNet {
		srv, err := hdam.ServeEngine(eng, netCfg)
		if err != nil {
			return err
		}
		if err := runNetServer(srv); err != nil {
			return err
		}
	} else if err := pumpStdin(eng); err != nil {
		return err
	}
	if st := eng.Stats(); st.Swaps > 0 {
		fmt.Fprintf(os.Stderr, "hot-swapped models %d times (serving generation %d)\n", st.Swaps, eng.Gen())
	}
	return nil
}

// serveFleetWatch serves stdin through a scatter-gather replica fleet fed
// from the newest snapshot in dir: the first valid snapshot builds the
// fleet, later ones roll through every replica as one generation (no answer
// mixes generations). It blocks until a first model appears.
func serveFleetWatch(dir string, replicas int, scheme hdam.FleetScheme, serveNet bool, netCfg hdam.NetConfig) error {
	var fl *hdam.Fleet
	reg, err := hdam.NewModelRegistry(hdam.ModelRegistryConfig{
		Dir:      dir,
		Interval: time.Second,
		Swap: func(snap *hdam.Snapshot) error {
			if fl == nil {
				f, err := hdam.NewSnapshotFleet(snap, hdam.FleetConfig{
					Replicas: replicas, Scheme: scheme, Seed: snap.Config().Seed,
				})
				if err != nil {
					return err
				}
				fl = f
				return nil
			}
			_, err := fl.Swap(snap.Memory())
			return err
		},
		OnEvent: func(ev hdam.RegistryEvent) {
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "langid: %s %s: %v\n", ev.Kind, ev.Path, ev.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "langid: serving %s\n", ev.Path)
		},
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	for fl == nil {
		if _, err := reg.Check(); err != nil {
			return err
		}
		if fl != nil {
			break
		}
		fmt.Fprintf(os.Stderr, "langid: waiting for a snapshot in %s...\n", dir)
		time.Sleep(time.Second)
	}
	defer fl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reg.Run(ctx)
	if serveNet {
		srv, err := hdam.ServeFleet(fl, netCfg)
		if err != nil {
			return err
		}
		if err := runNetServer(srv); err != nil {
			return err
		}
	} else if err := pumpStdinFleet(fl); err != nil {
		return err
	}
	if st := fl.Stats(); st.Swaps > 0 {
		fmt.Fprintf(os.Stderr, "rolled the fleet %d times (serving generation %d)\n", st.Swaps, fl.Gen())
	}
	return nil
}

// pumpStdinFleet classifies stdin lines through the fleet, annotating
// degraded answers with their coverage fraction.
func pumpStdinFleet(fl *hdam.Fleet) error {
	classified, correct, labeled, degraded := 0, 0, 0, 0
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
		ans, err := fl.Ask(context.Background(), text)
		if err != nil {
			fmt.Printf("?\t%s\n", text)
			continue
		}
		if ans.Degraded {
			degraded++
			fmt.Printf("%s\t%s\t(degraded, coverage %.2f)\n", ans.Label, text, ans.Coverage)
		} else {
			fmt.Printf("%s\t%s\n", ans.Label, text)
		}
		classified++
		if want != "" {
			labeled++
			if ans.Label == want {
				correct++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stdin: %v", err)
	}
	st := fl.Stats()
	fmt.Fprintf(os.Stderr, "fleet of %d replicas over %d partitions (%v): %d answered, %d degraded (%.1f%%), %d erasures, %d retried, %d hedged\n",
		fl.Replicas(), fl.Partitions(), fl.Scheme(), st.Answered, degraded, 100*st.DegradedRate(), st.Erasures, st.Retried, st.Hedged)
	if labeled > 0 {
		fmt.Fprintf(os.Stderr, "accuracy: %d/%d (%.1f%%)\n",
			correct, labeled, 100*float64(correct)/float64(labeled))
	}
	return nil
}

// serveStdin classifies stdin through the micro-batching engine: lines are
// submitted asynchronously and printed in input order by a reorder queue, so
// output is byte-compatible with the serial loop (modulo the engine's fixed
// tie-break seed).
func serveStdin(tr *hdam.Trained, searcher hdam.Searcher, workers, batch int, seed uint64) error {
	eng, err := hdam.NewEngine(tr, searcher, hdam.ServeConfig{
		Workers:  workers,
		MaxBatch: batch,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	return pumpStdin(eng)
}

// pumpStdin reads stdin lines into the engine and prints responses in input
// order.
func pumpStdin(eng *hdam.Engine) error {
	type pending struct {
		text, want string
		ch         <-chan hdam.ServeResponse
	}
	queue := make(chan pending, 4*eng.Config().MaxBatch)
	classified, correct, labeled := 0, 0, 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range queue {
			r := <-p.ch
			if r.Err != nil {
				fmt.Printf("?\t%s\n", p.text)
				continue
			}
			fmt.Printf("%s\t%s\n", r.Label, p.text)
			classified++
			if p.want != "" {
				labeled++
				if r.Label == p.want {
					correct++
				}
			}
		}
	}()

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
		ch, err := eng.Go(context.Background(), text)
		if err != nil {
			close(queue)
			<-done
			return err
		}
		queue <- pending{text: text, want: want, ch: ch}
	}
	close(queue)
	<-done
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stdin: %v", err)
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "served %d requests in %d micro-batches (avg %.1f/batch, %d workers)\n",
		st.Submitted, st.Batches, st.AvgBatch(), eng.Config().Workers)
	if labeled > 0 {
		fmt.Fprintf(os.Stderr, "accuracy: %d/%d (%.1f%%)\n",
			correct, labeled, 100*float64(correct)/float64(labeled))
	}
	return nil
}

// knownDesign reports whether a -design / -chain entry names a searcher.
func knownDesign(d string) bool {
	switch d {
	case "exact", "dham", "rham", "aham", "cascade":
		return true
	}
	return false
}

// buildChain assembles the resilient escalation pipeline.
func buildChain(designs []string, margin int, tr *hdam.Trained) (*hdam.Resilient, error) {
	stages := make([]hdam.ResilientStage, len(designs))
	for i, d := range designs {
		s, err := buildSearcherMem(strings.TrimSpace(d), tr.Memory, hdam.CascadeConfig{})
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
	total := res.Searches()
	fmt.Fprintf(os.Stderr, "resilient chain over %d searches:\n", total)
	for _, st := range res.Stats() {
		state := "closed"
		if st.BreakerOpen {
			state = "OPEN"
		}
		fmt.Fprintf(os.Stderr, "  %-28s accepted %4d  escalated %4d  skipped %4d  err %.3f  breaker %s\n",
			st.Name, st.Accepted, st.Escalated, st.Skipped, st.ErrEWMA, state)
	}
}

// buildSearcherMem builds the selected design over an arbitrary memory,
// taking its shape from the memory itself — the form hot-swapping needs,
// where each snapshot brings its own model. casc only applies to the
// cascade design (the zero value selects error-model defaults with a
// negative offset meaning build-time slice selection).
func buildSearcherMem(design string, mem *hdam.Memory, casc hdam.CascadeConfig) (hdam.Searcher, error) {
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

// rebuildTrained reconstructs the encoder half of a pipeline around a
// loaded memory; item memories are deterministic in the seed, so the
// encoder matches the one that produced the saved prototypes.
func rebuildTrained(mem *hdam.Memory, p hdam.LanguageParams) *hdam.Trained {
	im := hdam.NewItemMemory(p.Dim, p.Seed)
	im.Preload(hdam.LatinAlphabet)
	return &hdam.Trained{Memory: mem, Encoder: hdam.NewEncoder(im, p.NGram), Params: p}
}

// serveLearn serves the engine with an attached online learner: learn
// frames and POST /learn ingest labeled examples, a background reconcile
// loop folds them into snapshot generations in dir, and the model registry
// hot-swaps each generation into the engine while queries keep flowing.
func serveLearn(eng *hdam.Engine, tr *hdam.Trained, dir string, netCfg hdam.NetConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reg, err := hdam.NewModelRegistry(hdam.ModelRegistryConfig{
		Dir: dir,
		Swap: func(snap *hdam.Snapshot) error {
			m, s, err := hdam.SnapshotModel(snap)
			if err != nil {
				return err
			}
			_, err = eng.Swap(m, s, hdam.SnapshotEncoderFactory(snap.Config()))
			return err
		},
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	p := tr.Params
	lr, err := hdam.NewLearner(tr.Memory, hdam.LearnConfig{
		Dim:     p.Dim,
		NGram:   p.NGram,
		Seed:    p.Seed,
		Dir:     dir,
		Trainer: "langid",
		OnSnapshot: func(string) {
			if _, err := reg.Check(); err != nil {
				fmt.Fprintf(os.Stderr, "langid: registry: %v\n", err)
			}
		},
	})
	if err != nil {
		return err
	}
	defer lr.Close()
	go lr.Run(context.Background())
	srv, err := hdam.ServeLearningEngine(eng, lr, netCfg)
	if err != nil {
		return err
	}
	if err := runNetServer(srv); err != nil {
		return err
	}
	// The drain finished, so no more ingest can arrive: fold the tail.
	if rep, err := lr.Reconcile(); err != nil {
		fmt.Fprintf(os.Stderr, "langid: final reconcile: %v\n", err)
	} else if !rep.Skipped {
		fmt.Fprintf(os.Stderr, "langid: final reconcile: gen %d (%d classes, %d new examples) at %s\n",
			rep.Gen, rep.Classes, rep.NewExamples, rep.Path)
	}
	st := lr.Stats()
	fmt.Fprintf(os.Stderr, "langid: learned %d examples over %d reconciles (%d classes served)\n",
		st.Examples, st.Reconciles, st.Classes)
	return nil
}

// runNetServer announces the resolved listener addresses and serves until
// SIGINT/SIGTERM, then drains: listeners close, connected clients are told
// to stop submitting, and every accepted request is answered before exit.
func runNetServer(srv *hdam.NetServer) error {
	if a := srv.BinaryAddr(); a != nil {
		fmt.Printf("listening binary=%s\n", a)
	}
	if a := srv.HTTPAddr(); a != nil {
		fmt.Printf("listening http=%s\n", a)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "langid: %v, draining...\n", s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		srv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "langid: drained clean: %d queries answered over %d connections (%d http requests)\n",
		st.Answered, st.Accepted, st.HTTPRequests)
	return nil
}
