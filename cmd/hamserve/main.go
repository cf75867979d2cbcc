// Command hamserve serves a hyperdimensional associative-memory model over
// TCP: the length-prefixed binary protocol for throughput and HTTP/JSON
// for debuggability (/classify, /statsz, /healthz). The model is loaded
// from a snapshot (-load) or trained fresh from the synthetic language
// corpus; requests flow through the micro-batching serve engine (or a
// scatter-gather fleet with -fleet).
//
// On SIGINT/SIGTERM the server drains: listeners close, connected clients
// are told to stop submitting, and every accepted request is answered —
// classified within the drain deadline, failed fast as drained after.
//
// Usage:
//
//	hamserve                              # train, serve on the default ports
//	hamserve -load model.ham              # serve a snapshot
//	hamserve -listen :0 -http :0          # ephemeral ports (printed on stdout)
//	hamserve -fleet 4                     # serve through a replica fleet
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

func main() {
	listen := flag.String("listen", "127.0.0.1:7401", "binary-protocol listen address (empty to disable)")
	httpAddr := flag.String("http", "127.0.0.1:7402", "HTTP/JSON listen address (empty to disable)")
	load := flag.String("load", "", "serve this model snapshot instead of training")
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
	scheme := flag.String("scheme", "by-words", "partition scheme: by-words | by-classes (with -replica or -remote)")
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
		fmt.Fprintln(os.Stderr, "hamserve: -learn serves a whole-model engine; it cannot combine with -fleet, -replica or -remote (fleet coordinators refuse learn traffic)")
		os.Exit(2)
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
		fmt.Fprintf(os.Stderr, "hamserve: unknown -policy %q (want block, reject or shed)\n", *policy)
		os.Exit(2)
	}

	tr, err := model(*load, *dim, *train, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
		os.Exit(1)
	}

	netCfg := hdam.NetConfig{
		BinaryAddr:      *listen,
		HTTPAddr:        *httpAddr,
		MaxConns:        *maxConns,
		MaxInflight:     *maxInflight,
		MaxHTTPInflight: *maxHTTPInflight,
	}
	var srv *hdam.NetServer
	var learner *hdam.Learner
	var learnReg *hdam.ModelRegistry
	switch {
	case *replica && *remote != "":
		fmt.Fprintln(os.Stderr, "hamserve: -replica and -remote are mutually exclusive")
		os.Exit(2)
	case *replica:
		sc, err := hdam.ParseFleetScheme(*scheme)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(2)
		}
		rep, err := hdam.NewReplicaEngine(tr, sc, *partition, *partitions, hdam.ServeConfig{
			Workers:  *workers,
			MaxBatch: *batch,
			Queue:    *queue,
			Policy:   pol,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hamserve: replica for partition %d of %d (%s)\n", *partition, *partitions, sc)
		srv, err = hdam.ServeReplica(rep, netCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(1)
		}
	case *remote != "":
		sc, err := hdam.ParseFleetScheme(*scheme)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(2)
		}
		addrs := strings.Split(*remote, ",")
		transports := make([]hdam.ReplicaTransport, len(addrs))
		for i, addr := range addrs {
			transports[i] = hdam.NewRemoteTransport(hdam.RemoteConfig{
				Addr: strings.TrimSpace(addr),
				Seed: *seed,
				Link: uint64(i),
			})
		}
		fl, err := hdam.NewRemoteFleet(tr.Memory, hdam.PipelineEncoderFactory(tr.Params), transports, hdam.FleetConfig{
			Partitions: *partitions,
			Scheme:     sc,
			Seed:       *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hamserve: remote fleet over %d replicas, %d partitions (%s)\n",
			len(addrs), *partitions, sc)
		srv, err = hdam.ServeFleet(fl, netCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(1)
		}
	case *fleetN > 0:
		fl, err := hdam.NewFleet(tr, hdam.FleetConfig{Replicas: *fleetN, Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(1)
		}
		srv, err = hdam.ServeFleet(fl, netCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(1)
		}
	default:
		eng, err := hdam.NewEngine(tr, hdam.NewExactSearcher(tr.Memory), hdam.ServeConfig{
			Workers:  *workers,
			MaxBatch: *batch,
			Queue:    *queue,
			Policy:   pol,
			Seed:     *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(1)
		}
		if *learnOn {
			dir := *learnDir
			if dir == "" {
				dir, err = os.MkdirTemp("", "hamserve-learn-*")
			} else {
				err = os.MkdirAll(dir, 0o755)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
				os.Exit(1)
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
				fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
				os.Exit(1)
			}
			p := tr.Params
			lr, err := hdam.NewLearner(tr.Memory, hdam.LearnConfig{
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
				fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
				os.Exit(1)
			}
			go lr.Run(context.Background())
			fmt.Fprintf(os.Stderr, "hamserve: learning into %s (interval %s, %d centroid(s)/class)\n",
				dir, *learnInterval, *learnCentroids)
			learner, learnReg = lr, reg
			srv, err = hdam.ServeLearningEngine(eng, lr, netCfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
				os.Exit(1)
			}
			break
		}
		srv, err = hdam.ServeEngine(eng, netCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: %v\n", err)
			os.Exit(1)
		}
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
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hamserve: drain: %v\n", err)
		srv.Close()
		os.Exit(1)
	}
	if learner != nil {
		// No ingest can arrive after the drain; fold the tail so nothing
		// accepted is lost, then retire the learner and its registry.
		if rep, err := learner.Reconcile(); err != nil {
			fmt.Fprintf(os.Stderr, "hamserve: final reconcile: %v\n", err)
		} else if !rep.Skipped {
			fmt.Fprintf(os.Stderr, "hamserve: final reconcile: gen %d (%d classes, %d new examples) at %s\n",
				rep.Gen, rep.Classes, rep.NewExamples, rep.Path)
		}
		learner.Close()
		learnReg.Close()
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"hamserve: drained clean: %d conns accepted (%d rejected), %d frames, %d queries, %d answered, %d http requests\n",
		st.Accepted, st.RejectedConns, st.Frames, st.Queries, st.Answered, st.HTTPRequests)
}

// model loads a snapshot or trains the language pipeline fresh.
func model(load string, dim, train int, seed uint64) (*hdam.Trained, error) {
	if load != "" {
		snap, err := hdam.OpenSnapshot(load)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", load, err)
		}
		cfg := snap.Config()
		fmt.Fprintf(os.Stderr, "hamserve: loaded %s: %d classes at D=%d (zero-copy=%v)\n",
			load, snap.Memory().Classes(), cfg.Dim, snap.ZeroCopy())
		p := hdam.DefaultLanguageParams()
		p.Dim, p.NGram, p.Seed = cfg.Dim, cfg.NGram, cfg.Seed
		p.TestPerLang = 1
		return rebuildTrained(snap.Memory(), p), nil
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
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "hamserve: trained in %s\n", time.Since(start).Round(time.Millisecond))
	return tr, nil
}

// rebuildTrained reconstructs the encoder half of a pipeline around a
// loaded memory; item memories are deterministic in the seed, so the
// encoder matches the one that produced the saved prototypes.
func rebuildTrained(mem *hdam.Memory, p hdam.LanguageParams) *hdam.Trained {
	im := hdam.NewItemMemory(p.Dim, p.Seed)
	im.Preload(hdam.LatinAlphabet)
	return &hdam.Trained{Memory: mem, Encoder: hdam.NewEncoder(im, p.NGram), Params: p}
}
