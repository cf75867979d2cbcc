package perf

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/fault"
	"hdam/internal/serve"
)

// ChaosConfig tunes the chaos soak: a closed-loop load against the serve
// engine while seeded engine-level faults (worker panics, latency spikes, a
// slow shard) strike the search path. The fault schedule is a pure function
// of Seed (see internal/fault's chaos determinism contract).
type ChaosConfig struct {
	Requests   int           // total requests across all clients
	Clients    int           // concurrent closed-loop clients
	Workers    int           // engine workers
	MaxBatch   int           // micro-batch cap
	PanicRate  float64       // per-search injected panic probability
	SpikeRate  float64       // per-search latency-spike probability
	Spike      time.Duration // latency-spike length
	StallEvery int           // every StallEvery-th search stalls (0 = off)
	Stall      time.Duration // slow-shard stall length
	Policy     serve.Policy  // admission policy under the soak
	Seed       uint64        // fault-schedule seed
	P99Bound   time.Duration // acceptance bound on p99 latency
}

// DefaultChaosConfig is the soak protocol of EXPERIMENTS §18: enough
// injected failure to force many supervised restarts, at a load that keeps
// every worker busy.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Requests:   2048,
		Clients:    16,
		Workers:    4,
		MaxBatch:   16,
		PanicRate:  0.02,
		SpikeRate:  0.05,
		Spike:      2 * time.Millisecond,
		StallEvery: 64,
		Stall:      5 * time.Millisecond,
		Policy:     serve.Block,
		Seed:       benchSeed,
		P99Bound:   250 * time.Millisecond,
	}
}

// ChaosResult is one chaos-soak measurement with its acceptance evidence.
type ChaosResult struct {
	Name       string  `json:"name"`
	Requests   int     `json:"requests"`   // requests submitted
	Answered   int     `json:"answered"`   // requests that got a Response or typed error
	Classified int     `json:"classified"` // requests answered with a classification
	Faulted    int     `json:"faulted"`    // requests failed by an injected panic (ErrWorkerPanic)
	Mismatches int     `json:"mismatches"` // classified answers differing from the serial reference
	Panics     uint64  `json:"panics"`     // engine panic counter
	Restarts   uint64  `json:"restarts"`   // supervised worker restarts
	Shed       uint64  `json:"shed"`       // requests shed by admission control
	QPS        float64 `json:"qps"`
	P50Us      float64 `json:"p50_us"`
	P99Us      float64 `json:"p99_us"`
	Leaked     int     `json:"leaked_goroutines"` // goroutines alive above the pre-engine baseline
}

// Violations checks the soak's acceptance criteria and returns a line per
// violated one (empty means the soak passed): every request answered, no
// silent result corruption on non-faulted requests, supervised restarts
// actually exercised, bounded p99, zero goroutine leaks.
func (r ChaosResult) Violations(cfg ChaosConfig) []string {
	var v []string
	if r.Answered != r.Requests {
		v = append(v, fmt.Sprintf("answered %d of %d requests", r.Answered, r.Requests))
	}
	if r.Mismatches != 0 {
		v = append(v, fmt.Sprintf("%d non-faulted answers differ from the serial loop", r.Mismatches))
	}
	if cfg.PanicRate > 0 && r.Panics == 0 {
		v = append(v, "panic injection configured but no panic struck (soak too small?)")
	}
	if r.Panics > 0 && r.Restarts == 0 {
		v = append(v, fmt.Sprintf("%d panics but no supervised restart", r.Panics))
	}
	if cfg.P99Bound > 0 && r.P99Us > float64(cfg.P99Bound)/1e3 {
		v = append(v, fmt.Sprintf("p99 %.1fµs above bound %s", r.P99Us, cfg.P99Bound))
	}
	if r.Leaked > 0 {
		v = append(v, fmt.Sprintf("%d goroutines leaked", r.Leaked))
	}
	return v
}

// RunChaos drives the serve engine under injected failure: Clients
// closed-loop clients submit Requests texts while the chaos injectors
// panic and stall searches on the seeded schedule. Every request must come
// back as either a classification or a typed error; classifications are
// checked bit-for-bit against a serial fault-free reference; the engine
// must restart panicked workers and leak nothing.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	w, err := newSoakWorkload()
	if err != nil {
		return ChaosResult{}, err
	}

	injs := []fault.ChaosInjector{
		&fault.WorkerPanic{Rate: cfg.PanicRate, Seed: cfg.Seed},
		&fault.LatencySpike{Rate: cfg.SpikeRate, Spike: cfg.Spike, Seed: cfg.Seed},
	}
	if cfg.StallEvery > 0 && cfg.Stall > 0 {
		injs = append(injs, &fault.ShardStall{Shards: cfg.StallEvery, Slow: 0, Delay: cfg.Stall})
	}
	chaotic := fault.Chaos(assoc.NewExact(w.f.mem), injs...)

	baseline := runtime.NumGoroutine()
	eng, err := serve.New(w.f.mem, chaotic, benchEncoderFactory(), serve.Config{
		Workers:  cfg.Workers,
		MaxBatch: cfg.MaxBatch,
		Policy:   cfg.Policy,
		Seed:     benchSeed,
	})
	if err != nil {
		return ChaosResult{}, err
	}
	outs, elapsed := closedLoop(w, cfg.Clients, perClient(cfg.Requests, cfg.Clients), nil, func(text string) (serve.Response, error) {
		return eng.Submit(context.Background(), text)
	})
	eng.Close()

	res := ChaosResult{
		Name:     fmt.Sprintf("chaos/w%d-c%d-p%g", cfg.Workers, cfg.Clients, cfg.PanicRate),
		Requests: len(outs),
	}
	for _, o := range outs {
		switch {
		case o.err == nil:
			res.Answered++
			res.Classified++
			if o.ans.Result.Index != w.refIdx[o.text] {
				res.Mismatches++
			}
		case errors.Is(o.err, serve.ErrWorkerPanic):
			res.Answered++
			res.Faulted++
		case errors.Is(o.err, serve.ErrOverloaded),
			errors.Is(o.err, serve.ErrDrained),
			errors.Is(o.err, serve.ErrNoNGrams),
			errors.Is(o.err, context.DeadlineExceeded),
			errors.Is(o.err, context.Canceled):
			res.Answered++ // a typed answer, just not a classification
		}
	}
	st := eng.Stats()
	res.Panics = st.Panics
	res.Restarts = st.Restarts
	res.Shed = st.Shed
	lat := summarize(outs, elapsed)
	res.QPS, res.P50Us, res.P99Us = lat.QPS, lat.P50Us, lat.P99Us
	res.Leaked = excess(runtime.NumGoroutine, baseline, 2*time.Second)
	return res, nil
}
