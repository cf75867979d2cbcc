package serve

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/hv"
	"hdam/internal/itemmem"
	"hdam/internal/textgen"
)

const (
	testDim  = 1000
	testSeed = 2017
)

// fixture builds a small memory plus the encoder factory and texts every
// engine test shares.
type fixture struct {
	mem    *core.Memory
	newEnc func() *encoder.Encoder
	texts  []string
}

func buildFixture(t testing.TB, classes, texts int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewPCG(testSeed, 0xf157))
	cs := make([]*hv.Vector, classes)
	ls := make([]string, classes)
	for i := range cs {
		cs[i] = hv.Random(testDim, rng)
		ls[i] = string(rune('a' + i))
	}
	mem, err := core.NewMemory(cs, ls)
	if err != nil {
		t.Fatal(err)
	}
	cfg := textgen.DefaultConfig()
	cfg.Seed = testSeed
	langs := textgen.Catalog(cfg)
	ts := make([]string, texts)
	for i := range ts {
		ts[i] = langs[i%len(langs)].GenerateSentence(120, rng)
	}
	return &fixture{
		mem: mem,
		newEnc: func() *encoder.Encoder {
			im := itemmem.New(testDim, testSeed)
			return encoder.New(im, 3)
		},
		texts: ts,
	}
}

// serialResponses is the single-threaded reference the engine must match
// bit-for-bit: one encoder, one searcher, same tie-break seed.
func serialResponses(f *fixture, s core.Searcher, seed uint64) []Response {
	enc := f.newEnc()
	out := make([]Response, len(f.texts))
	for i, text := range f.texts {
		q, n := enc.EncodeText(text, seed)
		if n == 0 {
			out[i] = Response{Err: ErrNoNGrams}
			continue
		}
		res := s.Search(q)
		out[i] = Response{Result: res, Label: f.mem.Label(res.Index), NGrams: n}
	}
	return out
}

func TestEngineMatchesSerial(t *testing.T) {
	f := buildFixture(t, 8, 64)
	want := serialResponses(f, assoc.NewExact(f.mem), testSeed)
	for _, workers := range []int{1, 4} {
		eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{
			Workers: workers, MaxBatch: 8, Seed: testSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Response, len(f.texts))
		var wg sync.WaitGroup
		for i, text := range f.texts {
			wg.Add(1)
			go func(i int, text string) {
				defer wg.Done()
				resp, err := eng.Submit(context.Background(), text)
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				got[i] = resp
			}(i, text)
		}
		wg.Wait()
		eng.Close()
		for i := range want {
			if got[i].Result != want[i].Result || got[i].Label != want[i].Label || got[i].NGrams != want[i].NGrams {
				t.Fatalf("workers=%d text %d: engine %+v, serial %+v", workers, i, got[i], want[i])
			}
		}
		st := eng.Stats()
		if st.Completed != uint64(len(f.texts)) || st.Batched != uint64(len(f.texts)) {
			t.Fatalf("workers=%d stats %+v", workers, st)
		}
	}
}

// TestGoFuncDeliversOnWorker submits through the completion-func path:
// every accepted request's func runs exactly once, on a worker, with the
// serial reference's answer, and a nil func is refused at submit.
func TestGoFuncDeliversOnWorker(t *testing.T) {
	f := buildFixture(t, 8, 64)
	want := serialResponses(f, assoc.NewExact(f.mem), testSeed)
	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{Workers: 2, MaxBatch: 8, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Response, len(f.texts))
	calls := make([]atomic.Int32, len(f.texts))
	var wg sync.WaitGroup
	wg.Add(len(f.texts))
	for i, text := range f.texts {
		err := eng.GoFunc(context.Background(), text, func(r Response) {
			got[i] = r
			calls[i].Add(1)
			wg.Done()
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	if err := eng.GoFunc(context.Background(), f.texts[0], nil); err == nil {
		t.Fatal("nil completion func admitted")
	}
	eng.Close()
	for i := range want {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("text %d: completion func ran %d times", i, n)
		}
		if got[i].Result != want[i].Result || got[i].Label != want[i].Label || got[i].NGrams != want[i].NGrams || got[i].Batch == 0 {
			t.Fatalf("text %d: engine %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// TestEngineShardedMemoryMatchesSerial drives the engine over a sharded
// memory view: the full socket-shaped path (batching + worker pool + sharded
// distance kernel) must still be bit-identical to the serial loop.
func TestEngineShardedMemoryMatchesSerial(t *testing.T) {
	f := buildFixture(t, 8, 32)
	want := serialResponses(f, assoc.NewExact(f.mem), testSeed)
	shmem := f.mem.WithSharding(4)
	defer shmem.Sharding().Close()
	eng, err := New(shmem, assoc.NewExact(shmem), f.newEnc, Config{
		Workers: 2, MaxBatch: 4, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i, text := range f.texts {
		resp, err := eng.Submit(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result != want[i].Result {
			t.Fatalf("text %d: sharded engine %+v, serial %+v", i, resp.Result, want[i].Result)
		}
	}
}

func TestEngineMicroBatches(t *testing.T) {
	f := buildFixture(t, 8, 16)
	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{
		Workers: 1, MaxBatch: 4, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan Response, len(f.texts))
	for i, text := range f.texts {
		ch, err := eng.Go(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}
	eng.Close()
	st := eng.Stats()
	if st.Batched != uint64(len(f.texts)) {
		t.Fatalf("batched %d of %d requests", st.Batched, len(f.texts))
	}
	// 16 back-to-back requests queued faster than one worker serves them
	// must coalesce into far fewer than 16 one-request batches.
	if st.Batches > 8 {
		t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, st.Batched)
	}
	if st.AvgBatch() < 2 {
		t.Fatalf("average batch %.2f below 2", st.AvgBatch())
	}
}

func TestSubmitHonorsCancellation(t *testing.T) {
	f := buildFixture(t, 4, 4)
	before := runtime.NumGoroutine()
	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{
		Workers: 1, MaxBatch: 2, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Submit(ctx, f.texts[0]); err != context.Canceled {
		t.Fatalf("pre-canceled submit: err = %v, want context.Canceled", err)
	}
	// A live request still classifies after canceled ones.
	if resp, err := eng.Submit(context.Background(), f.texts[1]); err != nil || resp.Label == "" {
		t.Fatalf("live submit after cancellation: %+v, %v", resp, err)
	}
	eng.Close()
	if _, err := eng.Submit(context.Background(), f.texts[2]); err != ErrClosed {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
	// Drain check: Close must have torn down the workers; allow
	// the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before engine, %d after Close", before, after)
	}
}

func TestEngineEmptyText(t *testing.T) {
	f := buildFixture(t, 4, 1)
	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{Workers: 1, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Submit(context.Background(), "  "); err != ErrNoNGrams {
		t.Fatalf("empty text: err = %v, want ErrNoNGrams", err)
	}
	if st := eng.Stats(); st.Empty != 1 {
		t.Fatalf("empty counter %d", st.Empty)
	}
}

// BenchmarkServeEngine is the closed-loop throughput smoke run by make ci
// (-bench=Serve -benchtime=1x): clients submit concurrently against the
// default batching policy.
func BenchmarkServeEngine(b *testing.B) {
	f := buildFixture(b, 8, 64)
	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{Seed: testSeed})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := eng.Submit(context.Background(), f.texts[i%len(f.texts)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
