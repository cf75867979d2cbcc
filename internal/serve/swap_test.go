package serve

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/fault"
	"hdam/internal/hv"
	"hdam/internal/itemmem"
)

// taggedMemory builds a memory whose labels carry a generation tag, so a
// response proves which model answered it.
func taggedMemory(t testing.TB, tag string, classes int, seed uint64) *core.Memory {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5a5a))
	cs := make([]*hv.Vector, classes)
	ls := make([]string, classes)
	for i := range cs {
		cs[i] = hv.Random(testDim, rng)
		ls[i] = tag + string(rune('a'+i))
	}
	mem, err := core.NewMemory(cs, ls)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

func TestSwapBasic(t *testing.T) {
	f := buildFixture(t, 8, 4)
	memA := taggedMemory(t, "old:", 8, 1)
	memB := taggedMemory(t, "new:", 8, 2)
	eng, err := New(memA, assoc.NewExact(memA), f.newEnc, Config{Workers: 2, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Gen() != 1 {
		t.Fatalf("fresh engine generation %d, want 1", eng.Gen())
	}
	resp, err := eng.Submit(context.Background(), f.texts[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gen != 1 || !strings.HasPrefix(resp.Label, "old:") {
		t.Fatalf("pre-swap response %+v, want generation 1 with old: label", resp)
	}

	gen, err := eng.Swap(memB, assoc.NewExact(memB), f.newEnc)
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if gen != 2 || eng.Gen() != 2 {
		t.Fatalf("swap produced generation %d (engine says %d), want 2", gen, eng.Gen())
	}
	resp, err = eng.Submit(context.Background(), f.texts[1])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gen != 2 || !strings.HasPrefix(resp.Label, "new:") {
		t.Fatalf("post-swap response %+v, want generation 2 with new: label", resp)
	}
	if st := eng.Stats(); st.Swaps != 1 {
		t.Fatalf("stats report %d swaps, want 1", st.Swaps)
	}

	if _, err := eng.Swap(nil, assoc.NewExact(memA), f.newEnc); err == nil {
		t.Fatal("nil memory accepted")
	}
	badEnc := func() *encoder.Encoder {
		im := itemmem.New(testDim/2, testSeed)
		return encoder.New(im, 3)
	}
	if _, err := eng.Swap(memA, assoc.NewExact(memA), badEnc); err == nil {
		t.Fatal("encoder dim mismatch accepted")
	}
	eng.Close()
	if _, err := eng.Swap(memA, assoc.NewExact(memA), f.newEnc); !errors.Is(err, ErrClosed) {
		t.Fatalf("swap after close: %v, want ErrClosed", err)
	}
}

// stallSearcher blocks its first search on a gate, signalling entry, so the
// test can hold a batch in flight while a Swap races it.
type stallSearcher struct {
	inner   core.Searcher
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (s *stallSearcher) Name() string { return "stall" }

func (s *stallSearcher) Search(q *hv.Vector) core.Result {
	s.once.Do(func() {
		close(s.entered)
		<-s.gate
	})
	return s.inner.Search(q)
}

// TestSwapDrainsInFlight pins a batch inside the old model's search and
// checks Swap blocks until that batch finishes — and that the stalled
// request is still answered by the old generation.
func TestSwapDrainsInFlight(t *testing.T) {
	f := buildFixture(t, 8, 4)
	memA := taggedMemory(t, "old:", 8, 1)
	memB := taggedMemory(t, "new:", 8, 2)
	stall := &stallSearcher{
		inner:   assoc.NewExact(memA),
		gate:    make(chan struct{}),
		entered: make(chan struct{}),
	}
	eng, err := New(memA, stall, f.newEnc, Config{Workers: 1, MaxBatch: 1, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ch, err := eng.Go(context.Background(), f.texts[0])
	if err != nil {
		t.Fatal(err)
	}
	<-stall.entered // the batch is now inside the old model's search

	swapDone := make(chan uint64, 1)
	go func() {
		gen, err := eng.Swap(memB, assoc.NewExact(memB), f.newEnc)
		if err != nil {
			t.Errorf("swap: %v", err)
		}
		swapDone <- gen
	}()
	select {
	case <-swapDone:
		t.Fatal("swap returned while a batch was still in flight on the old model")
	case <-time.After(30 * time.Millisecond):
	}
	close(stall.gate)
	resp := <-ch
	if resp.Err != nil || resp.Gen != 1 || !strings.HasPrefix(resp.Label, "old:") {
		t.Fatalf("stalled request answered %+v, want generation 1 with old: label", resp)
	}
	if gen := <-swapDone; gen != 2 {
		t.Fatalf("swap produced generation %d, want 2", gen)
	}
}

// TestSwapUnderChaosLoad is the acceptance test for hot swapping: repeated
// swaps between two distinguishable models while concurrent submitters keep
// the engine saturated and chaos injectors panic and stall searches. Every
// request must be answered (zero drops), every response must come from a
// known generation whose labels it carries (no mixed models), and all
// responses sharing a micro-batch must report the same generation. Run
// under -race in CI.
func TestSwapUnderChaosLoad(t *testing.T) {
	const (
		submitters   = 6
		perSubmitter = 80
		swapCount    = 16
	)
	f := buildFixture(t, 8, 64)
	mems := [2]*core.Memory{taggedMemory(t, "g1:", 8, 11), taggedMemory(t, "g2:", 8, 22)}
	chaotic := func(mem *core.Memory, seed uint64) core.Searcher {
		return fault.Chaos(assoc.NewExact(mem),
			&fault.WorkerPanic{Rate: 0.02, Seed: seed},
			&fault.LatencySpike{Rate: 0.05, Spike: 200 * time.Microsecond, Seed: seed},
		)
	}
	eng, err := New(mems[0], chaotic(mems[0], 1), f.newEnc, Config{
		Workers: 4, MaxBatch: 8, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	genTag := map[uint64]string{1: "g1:"}
	var responses []Response

	swapsDone := make(chan struct{})
	go func() {
		defer close(swapsDone)
		for k := 0; k < swapCount; k++ {
			i := (k + 1) % 2
			gen, err := eng.Swap(mems[i], chaotic(mems[i], uint64(100+k)), f.newEnc)
			if err != nil {
				t.Errorf("swap %d: %v", k, err)
				return
			}
			mu.Lock()
			genTag[gen] = []string{"g1:", "g2:"}[i]
			mu.Unlock()
			time.Sleep(300 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				ch, err := eng.Go(context.Background(), f.texts[(s*perSubmitter+i)%len(f.texts)])
				if err != nil {
					t.Errorf("submitter %d request %d: %v", s, i, err)
					continue
				}
				resp := <-ch
				mu.Lock()
				responses = append(responses, resp)
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	<-swapsDone
	eng.Close()

	if len(responses) != submitters*perSubmitter {
		t.Fatalf("answered %d of %d requests", len(responses), submitters*perSubmitter)
	}
	batchGen := make(map[uint64]uint64)
	served := 0
	for _, r := range responses {
		switch {
		case r.Err == nil:
			served++
		case errors.Is(r.Err, ErrWorkerPanic):
			// Chaos faulted the request; it was still answered, and below we
			// still hold it to the one-generation-per-batch invariant.
		default:
			t.Fatalf("untyped response error %v", r.Err)
		}
		if r.Gen == 0 || r.Batch == 0 {
			t.Fatalf("response missing generation or batch: %+v", r)
		}
		if g, ok := batchGen[r.Batch]; ok && g != r.Gen {
			t.Fatalf("batch %d answered by generations %d and %d", r.Batch, g, r.Gen)
		}
		batchGen[r.Batch] = r.Gen
		if r.Err == nil {
			tag := genTag[r.Gen]
			if tag == "" {
				t.Fatalf("response from unknown generation %d", r.Gen)
			}
			if !strings.HasPrefix(r.Label, tag) {
				t.Fatalf("mixed model: generation %d answered with label %q", r.Gen, r.Label)
			}
		}
	}
	if served == 0 {
		t.Fatal("no request classified under chaos")
	}
	st := eng.Stats()
	if st.Swaps != swapCount {
		t.Fatalf("stats report %d swaps, want %d", st.Swaps, swapCount)
	}
	if want := uint64(1 + swapCount); eng.Gen() != want {
		t.Fatalf("final generation %d, want %d", eng.Gen(), want)
	}
}

// TestStatsAvgBatchNoBatches locks in the zero-batch behavior: a fresh
// engine's mean batch size is 0, never NaN.
func TestStatsAvgBatchNoBatches(t *testing.T) {
	var s Stats
	if got := s.AvgBatch(); got != 0 {
		t.Fatalf("AvgBatch with no batches = %v, want 0", got)
	}
	f := buildFixture(t, 4, 1)
	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if got := eng.Stats().AvgBatch(); got != 0 {
		t.Fatalf("idle engine AvgBatch = %v, want 0", got)
	}
}
