package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/fleet"
	"hdam/internal/lang"
	"hdam/internal/learn"
	"hdam/internal/netserve"
	"hdam/internal/serve"
	"hdam/internal/store"
	"hdam/internal/textgen"
)

// Serving configuration, as hamserve runs by default.
const (
	trainChars  = 50_000
	pipeSeed    = 2017
	engineBatch = 64
	engineQueue = 512
	dialTimeout = 5 * time.Second
)

// stack is one booted serving stack: the trained model, its backend, the
// network server and the benchmark's client connections.
type stack struct {
	tr      *lang.Trained
	eng     *serve.Engine  // nil for the fleet workload
	fl      *fleet.Fleet   // fleet workload only
	lr      *learn.Learner // learn workload only
	reg     *store.Registry
	lcfg    learn.Config
	srv     *netserve.Server
	clients []*netserve.Client

	trainTime, listenTime time.Duration

	// swaps maps an engine generation to the snapshot it serves (learn
	// workload; written by the registry's swap closure).
	mu    sync.Mutex
	swaps map[uint64]string
}

// buildStack boots the stack the way hamserve does: train, build the
// backend, listen, and dial the benchmark's connections. A non-nil tracer
// wraps the served searcher and backend. dir is the learn workload's
// snapshot directory.
func buildStack(w workload, langs []*textgen.Language, t *tracer, dir string) (*stack, error) {
	p := lang.DefaultParams()
	p.TrainChars = trainChars
	p.Seed = pipeSeed
	p.TestPerLang = 1
	if w.learn {
		langs = langs[:learnBaseLang]
	}
	s := &stack{swaps: make(map[uint64]string)}
	start := time.Now()
	tr, err := lang.Train(langs, p)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	s.tr = tr
	s.trainTime = time.Since(start)

	newEnc := learn.EncoderFactory(p.Dim, p.NGram, p.Seed)
	var backend netserve.Backend
	if w.fleet {
		s.fl, err = fleet.New(tr.Memory, newEnc, fleet.Config{Seed: p.Seed})
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		backend = netserve.FleetBackend(s.fl)
	} else {
		var searcher core.Searcher = assoc.NewExact(tr.Memory)
		if t != nil {
			searcher = wrapSearcher(searcher, t)
		}
		s.eng, err = serve.New(tr.Memory, searcher, newEnc, serve.Config{
			MaxBatch: engineBatch,
			Queue:    engineQueue,
			Policy:   serve.Reject,
			Seed:     p.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		backend = netserve.EngineBackend(s.eng)
	}
	if w.learn {
		if err := s.startLearner(dir, t); err != nil {
			s.eng.Close()
			return nil, err
		}
		backend = netserve.LearnEngineBackend(s.eng, s.lr)
	}
	if t != nil {
		backend = wrapBackend(backend, t)
	}

	start = time.Now()
	s.srv, err = netserve.New(backend, netserve.Config{BinaryAddr: "127.0.0.1:0"})
	s.listenTime = time.Since(start)
	if err != nil {
		backend.Close()
		s.closeLearner()
		return nil, err
	}
	for i := 0; i < conns; i++ {
		c, err := netserve.Dial(s.srv.BinaryAddr().String(), dialTimeout)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// startLearner wires the train-while-serve path as hamserve -learn does:
// the learner publishes generations into dir, and its snapshot hook makes
// the registry validate the newest one and hot-swap it into the engine.
// Ingest applies backpressure (Block) instead of refusing, so a closed-loop
// writer is slowed, never failed.
func (s *stack) startLearner(dir string, t *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := s.tr.Params
	var err error
	s.reg, err = store.NewRegistry(store.RegistryConfig{
		Dir: dir,
		Swap: func(snap *store.Snapshot) error {
			m, srch, err := learn.Model(snap)
			if err != nil {
				return err
			}
			if t != nil {
				srch = wrapSearcher(srch, t)
			}
			start := time.Now()
			gen, err := s.eng.Swap(m, srch, learn.EncoderFactory(snap.Config().Dim, snap.Config().NGram, snap.Config().Seed))
			if t != nil {
				t.swapped(start, time.Now())
			}
			if err != nil {
				return err
			}
			s.mu.Lock()
			s.swaps[gen] = snap.Path()
			s.mu.Unlock()
			return nil
		},
	})
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	s.lcfg = learn.Config{
		Dim:     p.Dim,
		NGram:   p.NGram,
		Seed:    p.Seed,
		Dir:     dir,
		Block:   true,
		Trainer: "hamserve",
		OnSnapshot: func(string) {
			if t != nil {
				t.beginCheck()
			}
			start := time.Now()
			if _, err := s.reg.Check(); err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: registry: %v\n", err)
			}
			if t != nil {
				t.checked(start, time.Now())
			}
		},
	}
	s.lr, err = learn.New(s.tr.Memory, s.lcfg)
	if err != nil {
		s.reg.Close()
		return fmt.Errorf("learner: %w", err)
	}
	return nil
}

func (s *stack) snapshotOf(gen uint64) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.swaps[gen]
	return p, ok
}

func (s *stack) closeLearner() {
	if s.lr != nil {
		s.lr.Close()
		s.reg.Close()
	}
}

// close stops the clients, the server (which closes the backend) and the
// learner.
func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.closeLearner()
}
