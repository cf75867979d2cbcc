// Command hamserve serves a hyperdimensional associative-memory model over
// TCP: the length-prefixed binary protocol for throughput and HTTP/JSON
// for debuggability (/classify, /statsz, /healthz). It is the repository's
// one server; langid -server is its thin stdin client. The model is loaded
// from a snapshot (-load) or trained fresh from the synthetic language
// corpus; requests flow through the micro-batching serve engine (or a
// scatter-gather fleet with -fleet). A multi-centroid snapshot (written by
// -learn -learn-centroids k>1) answers with its class labels; only the
// engine serves one — -fleet, -replica, -remote and -learn refuse it.
//
// When -load names a directory, hamserve serves the newest valid *.hds
// snapshot in it and hot-swaps each newer one as it is published, polling
// every second (Engine.Swap, or Fleet.Swap under -fleet: no request is
// dropped and no answer mixes generations). The directory must hold a
// valid snapshot at start-up (else exit 1), and -load DIR cannot combine
// with -learn, -replica or -remote (exit 2). A fleet coordinator keeps
// encoding with its start-up model's item memory, so it refuses a snapshot
// with another dimensionality, n-gram order or seed; the registry
// remembers a refused file as bad.
//
// On SIGINT/SIGTERM the server drains: listeners close, connected clients
// are told to stop submitting, and every accepted request is answered —
// classified within the drain deadline, failed fast as drained after.
//
// Usage:
//
//	hamserve                              # train, serve on the default ports
//	hamserve -load model.ham              # serve a snapshot
//	hamserve -load models/                # serve models/, hot-swapping new snapshots
//	hamserve -listen :0 -http :0          # ephemeral ports (printed on stdout)
//	hamserve -fleet 4 -scheme by-classes  # serve through a replica fleet
//	hamserve -learn -learn-dir models/    # accept labeled examples while serving
//
// With -learn the server also accepts labeled training examples (binary
// learn frames and POST /learn) while answering queries. Examples stream
// into striped accumulators; a background reconcile loop folds them into a
// new snapshot generation in -learn-dir, which the model registry validates
// and hot-swaps into the serving engine with zero downtime. Learning is an
// engine-only mode: it is mutually exclusive with -fleet, -replica and
// -remote (fleet coordinators refuse learn traffic by design — see
// internal/fleet).
//
// Distributed deployment splits the fleet across processes: each replica
// serves one partition of a shared snapshot and answers partial queries
// (per-class distances) over the binary protocol, and a coordinator
// scatter-gathers across them with self-healing connections. The
// coordinator encodes every query once and ships each replica only the
// packed query words its partition scores. Replicas hold no encoder, so a
// replica's -seed picks no tie-breaks (they are the coordinator's); with
// -replica -load it is ignored entirely:
//
//	hamserve -replica -partition 0 -partitions 2 -load model.ham -listen :7411
//	hamserve -replica -partition 1 -partitions 2 -load model.ham -listen :7412
//	hamserve -remote 127.0.0.1:7411,127.0.0.1:7412 -partitions 2 -load model.ham
//
// The resolved addresses are printed to stdout as "listening proto=addr"
// lines, so scripts can scrape ephemeral ports.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hdam"
)

// watchInterval is how often -load DIR polls its directory for a newer
// snapshot.
const watchInterval = time.Second

func main() {
	listen := flag.String("listen", "127.0.0.1:7401", "binary-protocol listen address (empty to disable)")
	httpAddr := flag.String("http", "127.0.0.1:7402", "HTTP/JSON listen address (empty to disable)")
	load := flag.String("load", "", "serve this model snapshot instead of training; a directory serves its newest snapshot and hot-swaps newer ones")
	dim := flag.Int("dim", hdam.Dim, "hypervector dimensionality (training only)")
	train := flag.Int("train", 50_000, "training characters per language (training only)")
	seed := flag.Uint64("seed", 2017, "pipeline seed (a -replica never encodes: it uses the seed only to train without -load)")
	workers := flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	batch := flag.Int("batch", 64, "engine micro-batch size")
	queue := flag.Int("queue", 512, "engine pending-request queue")
	policy := flag.String("policy", "reject", "admission policy when the queue fills: block | reject | shed")
	fleetN := flag.Int("fleet", 0, "serve through a scatter-gather fleet of N replicas (0 = engine)")
	replica := flag.Bool("replica", false, "serve one partition of the model as a remote-fleet replica (answers partial queries with per-class distances)")
	partition := flag.Int("partition", 0, "this replica's partition index (with -replica)")
	partitions := flag.Int("partitions", 1, "total partitions in the fleet (with -replica)")
	scheme := flag.String("scheme", "by-words", "partition scheme: by-words | by-classes (with -fleet, -replica or -remote)")
	remote := flag.String("remote", "", "serve through a remote fleet: comma-separated replica addresses, address i serving partition i mod -partitions")
	maxConns := flag.Int("max-conns", 256, "binary connection limit")
	maxInflight := flag.Int("max-inflight", 256, "in-flight frames per binary connection")
	maxHTTPInflight := flag.Int("max-http-inflight", 256, "concurrent /classify requests before 503 shedding")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline on SIGTERM")
	learnOn := flag.Bool("learn", false, "accept labeled examples while serving and fold them into new model generations")
	learnDir := flag.String("learn-dir", "", "directory for reconciled snapshot generations (default: a fresh temp dir)")
	learnInterval := flag.Duration("learn-interval", 2*time.Second, "auto-reconcile period (with -learn)")
	learnCentroids := flag.Int("learn-centroids", 1, "accumulators per class, MEMHD-style multi-centroid mode when >1 (with -learn)")
	learnStripes := flag.Int("learn-stripes", 0, "ingest stripes (0 = GOMAXPROCS; with -learn)")
	learnBaseWeight := flag.Int("learn-base-weight", 1, "majority-vote weight of the base model's rows (with -learn)")
	flag.Parse()

	if *learnOn && (*fleetN > 0 || *replica || *remote != "") {
		usage("-learn serves a whole-model engine; it cannot combine with -fleet, -replica or -remote (fleet coordinators refuse learn traffic)")
	}
	if *replica && *remote != "" {
		usage("-replica and -remote are mutually exclusive")
	}
	watchDir := ""
	if st, err := os.Stat(*load); err == nil && st.IsDir() {
		if *learnOn || *replica || *remote != "" {
			usage("-load DIR hot-swaps snapshots into an engine or in-process fleet; it cannot combine with -learn, -replica or -remote")
		}
		watchDir = *load
	}

	var pol hdam.ServePolicy
	switch *policy {
	case "block":
		pol = hdam.ServeBlock
	case "reject":
		pol = hdam.ServeReject
	case "shed":
		pol = hdam.ServeShedOldest
	default:
		usage("unknown -policy %q (want block, reject or shed)", *policy)
	}
	sc, err := hdam.ParseFleetScheme(*scheme)
	if err != nil {
		usage("%v", err)
	}

	b := &backend{fleet: *fleetN > 0}
	var reg *hdam.ModelRegistry // swaps -load DIR or -learn generations into b
	if watchDir != "" {
		if reg, err = newRegistry(watchDir, b); err != nil {
			fatal(err)
		}
		if ok, err := reg.Check(); err != nil {
			fatal(err)
		} else if !ok {
			fatal(fmt.Errorf("no servable snapshot in %s", watchDir))
		}
	} else {
		k := 0
		if b.tr, b.s, k, err = model(*load, *dim, *train, *seed); err != nil {
			fatal(err)
		}
		if k > 1 && (*fleetN > 0 || *replica || *remote != "" || *learnOn) {
			usage("%s holds %d centroids per class; only the engine serves it (-fleet, -replica, -remote and -learn need one row per class)", *load, k)
		}
	}
	tr := b.tr

	netCfg := hdam.NetConfig{
		BinaryAddr:      *listen,
		HTTPAddr:        *httpAddr,
		MaxConns:        *maxConns,
		MaxInflight:     *maxInflight,
		MaxHTTPInflight: *maxHTTPInflight,
	}
	serveCfg := hdam.ServeConfig{Workers: *workers, MaxBatch: *batch, Queue: *queue, Policy: pol, Seed: *seed}
	var srv *hdam.NetServer
	var learner *hdam.Learner
	switch {
	case *replica:
		var rep *hdam.ReplicaEngine
		if rep, err = hdam.NewReplicaEngine(tr, sc, *partition, *partitions, serveCfg); err != nil {
			fatal(err)
		}
		b.eng = rep.Engine
		fmt.Fprintf(os.Stderr, "hamserve: replica for partition %d of %d (%s)\n", *partition, *partitions, sc)
		srv, err = hdam.ServeReplica(rep, netCfg)
	case *remote != "":
		addrs := strings.Split(*remote, ",")
		transports := make([]hdam.ReplicaTransport, len(addrs))
		for i, addr := range addrs {
			transports[i] = hdam.NewRemoteTransport(hdam.RemoteConfig{
				Addr: strings.TrimSpace(addr),
				Seed: *seed,
				Link: uint64(i),
			})
		}
		var fl *hdam.Fleet
		fl, err = hdam.NewRemoteFleet(tr.Memory, hdam.PipelineEncoderFactory(tr.Params), transports, hdam.FleetConfig{
			Partitions: *partitions,
			Scheme:     sc,
			Seed:       *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hamserve: remote fleet over %d replicas, %d partitions (%s)\n",
			len(addrs), *partitions, sc)
		srv, err = hdam.ServeFleet(fl, netCfg)
	case *fleetN > 0:
		if b.fl, err = hdam.NewFleet(tr, hdam.FleetConfig{Replicas: *fleetN, Scheme: sc, Seed: *seed}); err != nil {
			fatal(err)
		}
		srv, err = hdam.ServeFleet(b.fl, netCfg)
	default:
		if b.eng, err = hdam.NewEngine(tr, b.s, serveCfg); err != nil {
			fatal(err)
		}
		if !*learnOn {
			srv, err = hdam.ServeEngine(b.eng, netCfg)
			break
		}
		dir := *learnDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "hamserve-learn-*")
		} else {
			err = os.MkdirAll(dir, 0o755)
		}
		if err == nil {
			reg, err = newRegistry(dir, b)
		}
		if err != nil {
			fatal(err)
		}
		p := tr.Params
		learner, err = hdam.NewLearner(tr.Memory, hdam.LearnConfig{
			Dim:        p.Dim,
			NGram:      p.NGram,
			Seed:       p.Seed,
			Dir:        dir,
			Interval:   *learnInterval,
			Centroids:  *learnCentroids,
			Stripes:    *learnStripes,
			BaseWeight: *learnBaseWeight,
			Trainer:    "hamserve",
			OnSnapshot: func(string) {
				if _, err := reg.Check(); err != nil {
					fmt.Fprintf(os.Stderr, "hamserve: registry: %v\n", err)
				}
			},
		})
		if err != nil {
			fatal(err)
		}
		go learner.Run(context.Background())
		fmt.Fprintf(os.Stderr, "hamserve: learning into %s (interval %s, %d centroid(s)/class)\n",
			dir, *learnInterval, *learnCentroids)
		srv, err = hdam.ServeLearningEngine(b.eng, learner, netCfg)
	}
	if err != nil {
		fatal(err)
	}
	stopWatch := func() {}
	if watchDir != "" {
		ctx, cancel := context.WithCancel(context.Background())
		go reg.Run(ctx)
		stopWatch = cancel
		fmt.Fprintf(os.Stderr, "hamserve: watching %s for new snapshots every %s\n", watchDir, watchInterval)
	}

	if a := srv.BinaryAddr(); a != nil {
		fmt.Printf("listening binary=%s\n", a)
	}
	if a := srv.HTTPAddr(); a != nil {
		fmt.Printf("listening http=%s\n", a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "hamserve: %v, draining (deadline %s)...\n", s, *drainTimeout)
	stopWatch()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hamserve: drain: %v\n", err)
		srv.Close()
		os.Exit(1)
	}
	if learner != nil {
		// No ingest can arrive after the drain; fold the tail so nothing
		// accepted is lost, then retire the learner.
		if rep, err := learner.Reconcile(); err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: final reconcile: %v\n", err)
		} else if !rep.Skipped {
			fmt.Fprintf(os.Stderr, "hamserve: final reconcile: gen %d (%d classes, %d new examples) at %s\n",
				rep.Gen, rep.Classes, rep.NewExamples, rep.Path)
		}
		learner.Close()
	}
	if reg != nil {
		reg.Close()
	}
	// The shed counts name the layer that turned load away: the binary
	// per-connection in-flight cap, the HTTP in-flight cap, or the engine's
	// admission policy.
	st := srv.Stats()
	line := fmt.Sprintf("hamserve: drained clean: %d conns accepted (%d rejected), %d frames, %d queries, %d answered, %d http requests, %d inflight shed, %d http shed",
		st.Accepted, st.RejectedConns, st.Frames, st.Queries, st.Answered, st.HTTPRequests, st.InflightShed, st.HTTPShed)
	if b.eng != nil {
		es := b.eng.Stats()
		line += fmt.Sprintf(", engine %d rejected, %d shed", es.Rejected, es.Shed)
	}
	fmt.Fprintln(os.Stderr, line)
}

// fatal reports a runtime error and exits 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
	os.Exit(1)
}

// usage reports a flag error and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hamserve: "+format+"\n", args...)
	os.Exit(2)
}

// model loads a snapshot file through hdam.SnapshotModel, or trains the
// language pipeline fresh. k is the snapshot's centroids per class (1 when
// trained).
func model(load string, dim, train int, seed uint64) (*hdam.Trained, hdam.Searcher, int, error) {
	if load != "" {
		snap, err := hdam.OpenSnapshot(load)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("loading %s: %w", load, err)
		}
		tr, s, err := hdam.SnapshotModel(snap)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("loading %s: %w", load, err)
		}
		cfg := snap.Config()
		fmt.Fprintf(os.Stderr, "hamserve: loaded %s: %d classes at D=%d (zero-copy=%v)\n",
			load, tr.Memory.Classes(), cfg.Dim, snap.ZeroCopy())
		return tr, s, max(cfg.Centroids, 1), nil
	}
	p := hdam.DefaultLanguageParams()
	p.Dim = dim
	p.TrainChars = train
	p.Seed = seed
	p.TestPerLang = 1
	langs := hdam.Languages()
	fmt.Fprintf(os.Stderr, "hamserve: training %d languages at D=%d on %d chars each (%d workers)...\n",
		len(langs), p.Dim, p.TrainChars, runtime.GOMAXPROCS(0))
	start := time.Now()
	tr, err := hdam.TrainLanguages(langs, p)
	if err != nil {
		return nil, nil, 0, err
	}
	fmt.Fprintf(os.Stderr, "hamserve: trained in %s\n", time.Since(start).Round(time.Millisecond))
	return tr, hdam.NewExactSearcher(tr.Memory), 1, nil
}

// backend is what a model registry swaps snapshots into: the engine, or the
// in-process fleet under -fleet. Until either exists, the first snapshot
// accepted becomes the start-up model (tr, s).
type backend struct {
	fleet bool // serving through an in-process fleet
	tr    *hdam.Trained
	s     hdam.Searcher
	eng   *hdam.Engine
	fl    *hdam.Fleet
}

// swap installs a validated snapshot: the one registry Swap hook of both
// -load DIR and -learn. A fleet refuses a multi-centroid snapshot (its
// partitions would serve the raw "<class>#<j>" rows), and Fleet.Swap
// refuses one whose encoder differs from the start-up model's (the
// coordinator keeps encoding with that item memory).
func (b *backend) swap(snap *hdam.Snapshot) error {
	tr, s, err := hdam.SnapshotModel(snap)
	if err != nil {
		return err
	}
	cfg := snap.Config()
	if b.fleet && cfg.Centroids > 1 {
		return fmt.Errorf("a fleet serves one row per class; snapshot holds %d centroids per class", cfg.Centroids)
	}
	switch {
	case b.eng != nil:
		_, err = b.eng.Swap(tr.Memory, s, hdam.PipelineEncoderFactory(tr.Params))
	case b.fl != nil:
		_, err = b.fl.Swap(tr.Memory, hdam.PipelineEncoderFactory(tr.Params))
	default:
		b.tr, b.s = tr, s
	}
	return err
}

// newRegistry watches dir for snapshots and swaps each new one into b.
func newRegistry(dir string, b *backend) (*hdam.ModelRegistry, error) {
	return hdam.NewModelRegistry(hdam.ModelRegistryConfig{
		Dir:      dir,
		Interval: watchInterval,
		Swap:     b.swap,
		OnEvent: func(ev hdam.RegistryEvent) {
			switch {
			case errors.Is(ev.Err, hdam.ErrEngineClosed):
				// A generation reconciled during the drain stays on disk
				// for the next start; the closed engine cannot serve it.
			case ev.Err != nil:
				fmt.Fprintf(os.Stderr, "hamserve: %s %s: %v\n", ev.Kind, ev.Path, ev.Err)
			default:
				fmt.Fprintf(os.Stderr, "hamserve: serving %s\n", ev.Path)
			}
		},
	})
}
