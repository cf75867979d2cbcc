package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdam/internal/encoder"
	"hdam/internal/fault"
	"hdam/internal/hv"
	"hdam/internal/serve"
)

// countingFactory wraps an encoder factory and counts the encoders it
// builds.
func countingFactory(newEnc func() *encoder.Encoder) (func() *encoder.Encoder, *atomic.Int64) {
	var n atomic.Int64
	return func() *encoder.Encoder {
		n.Add(1)
		return newEnc()
	}, &n
}

// recorder wraps every replica transport of a fleet and records the query
// vector each dispatch that reaches a transport carried.
type recorder struct {
	mu    sync.Mutex
	vecs  map[*hv.Vector]int // dispatches per distinct query vector
	total int
}

type recordingTransport struct {
	ReplicaTransport
	rec *recorder
}

func (t recordingTransport) Ask(ctx context.Context, q Query) (Partial, error) {
	t.rec.mu.Lock()
	t.rec.vecs[q.Vec]++
	t.rec.total++
	t.rec.mu.Unlock()
	return t.ReplicaTransport.Ask(ctx, q)
}

func record(fl *Fleet) *recorder {
	rec := &recorder{vecs: map[*hv.Vector]int{}}
	for _, r := range fl.replicas {
		r.mu.Lock()
		r.tr = recordingTransport{r.tr, rec}
		r.mu.Unlock()
	}
	return rec
}

// TestReplicasBuildNoEncoders: New, Swap and StartReplica build no
// replica-side encoder — the only encoder a fleet ever builds up front is
// the coordinator's probe — and every replica engine refuses text with
// serve.ErrNoEncoder.
func TestReplicasBuildNoEncoders(t *testing.T) {
	f := buildFixture(t, 6, 4)
	newEnc, built := countingFactory(f.newEnc)
	for _, sc := range []Scheme{ByWords, ByClasses} {
		built.Store(0)
		fl, err := New(f.mem, newEnc, Config{Replicas: 4, Partitions: 2, Scheme: sc})
		if err != nil {
			t.Fatal(err)
		}
		if got := built.Load(); got != 1 {
			t.Fatalf("%v: New built %d encoders, want 1 (the coordinator's)", sc, got)
		}
		before := built.Load()
		if _, err := fl.Swap(altMemory(t, f.mem)); err != nil {
			t.Fatal(err)
		}
		if err := fl.StopReplica(1); err != nil {
			t.Fatal(err)
		}
		if err := fl.StartReplica(1); err != nil {
			t.Fatal(err)
		}
		if got := built.Load() - before; got != 0 {
			t.Fatalf("%v: Swap and StartReplica built %d encoders, want 0", sc, got)
		}
		for _, r := range fl.replicas {
			if _, err := r.engine().Submit(context.Background(), f.texts[0]); !errors.Is(err, serve.ErrNoEncoder) {
				t.Fatalf("%v: replica %d answered text with %v, want serve.ErrNoEncoder", sc, r.id, err)
			}
		}
		fl.Close()
	}
}

// TestCoordinatorEncodesOncePerAsk: every dispatch of one ask — to every
// partition, and the extra dispatches hedging (a stalled primary) and
// retries (a corrupt partial) add — carries the one vector the coordinator
// encoded for it, and answers stay exact.
func TestCoordinatorEncodesOncePerAsk(t *testing.T) {
	f := buildFixture(t, 6, 12)
	ref := reference(f, f.mem)
	for _, c := range []struct {
		name  string
		cfg   Config
		extra func(Stats) uint64
	}{
		{"hedge", Config{
			Replicas: 4, Partitions: 2, Hedge: true, HedgeAfter: time.Millisecond, Deadline: 200 * time.Millisecond,
			Chaos: []fault.ReplicaInjector{&fault.ReplicaStall{Replica: 0, Stall: 20 * time.Millisecond}},
		}, func(s Stats) uint64 { return s.Hedged }},
		{"retry", Config{
			Replicas: 4, Partitions: 2, Backoff: time.Microsecond,
			Chaos: []fault.ReplicaInjector{&fault.CorruptPartial{Replica: 0, Rate: 1, Seed: 5}},
		}, func(s Stats) uint64 { return s.Retried }},
	} {
		t.Run(c.name, func(t *testing.T) {
			fl, err := New(f.mem, f.newEnc, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			rec := record(fl)
			for i, text := range f.texts {
				ans, err := fl.Ask(context.Background(), text)
				if err != nil {
					t.Fatalf("ask %d: %v", i, err)
				}
				if ans.Result != ref[i] || ans.Degraded {
					t.Fatalf("ask %d: %+v (degraded=%v), want exact %+v", i, ans.Result, ans.Degraded, ref[i])
				}
			}
			extra := c.extra(fl.Stats())
			if extra == 0 {
				t.Fatalf("chaos never forced an extra dispatch: %+v", fl.Stats())
			}
			// Every first attempt and every hedge or retry reaches a
			// transport; a stalled primary gets there late, after its ask.
			want := len(f.texts)*fl.Partitions() + int(extra)
			deadline := time.Now().Add(5 * time.Second)
			for {
				rec.mu.Lock()
				total, distinct := rec.total, len(rec.vecs)
				rec.mu.Unlock()
				if distinct != len(f.texts) {
					t.Fatalf("%d asks dispatched %d distinct query vectors, want one each", len(f.texts), distinct)
				}
				if total == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d dispatches reached transports, want %d", total, want)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
