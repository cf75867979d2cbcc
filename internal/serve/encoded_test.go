package serve

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/hv"
)

// TestGoEncodedMatchesText: an encoder-less engine answers pre-encoded
// queries bit-identically to the text path of an engine that encodes them
// itself, refuses text with ErrNoEncoder, and keeps both properties across
// a Swap with no encoder factory.
func TestGoEncodedMatchesText(t *testing.T) {
	f := buildFixture(t, 7, 24)
	s := assoc.NewExact(f.mem)
	want := serialResponses(f, s, testSeed)
	am, err := New(f.mem, s, nil, Config{Workers: 2, ReportDistances: true})
	if err != nil {
		t.Fatal(err)
	}
	defer am.Close()
	enc := f.newEnc()
	check := func(gen uint64) {
		t.Helper()
		for i, text := range f.texts {
			q, n := enc.EncodeText(text, testSeed)
			ch, err := am.GoEncoded(context.Background(), q, n)
			if err != nil {
				t.Fatal(err)
			}
			got := <-ch
			if !errors.Is(got.Err, want[i].Err) || got.Result != want[i].Result || got.Label != want[i].Label ||
				got.NGrams != want[i].NGrams || (got.Err == nil && got.Gen != gen) {
				t.Fatalf("query %d: %+v, want %+v at gen %d", i, got, want[i], gen)
			}
		}
		if _, err := am.Submit(context.Background(), f.texts[0]); !errors.Is(err, ErrNoEncoder) {
			t.Fatalf("text to an encoder-less engine: %v, want ErrNoEncoder", err)
		}
	}
	check(1)
	if _, err := am.Swap(f.mem, s, nil); err != nil {
		t.Fatal(err)
	}
	check(2)
	st := am.Stats()
	if st.Completed != uint64(2*len(f.texts)) || st.Panics != 0 {
		t.Fatalf("stats %+v: want %d completed, no panics", st, 2*len(f.texts))
	}
}

// TestGoEncodedRejects: a query of the wrong dimension fails typed instead
// of panicking a worker, and a zero n-gram count answers ErrNoNGrams as an
// empty text would.
func TestGoEncodedRejects(t *testing.T) {
	f := buildFixture(t, 3, 1)
	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, c := range []struct {
		q    *hv.Vector
		n    int
		want error
	}{
		{hv.New(testDim + 64), 3, ErrQueryDim},
		{hv.New(testDim), 0, ErrNoNGrams},
	} {
		ch, err := eng.GoEncoded(context.Background(), c.q, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := <-ch; !errors.Is(got.Err, c.want) {
			t.Fatalf("dim %d, %d ngrams: %v, want %v", c.q.Dim(), c.n, got.Err, c.want)
		}
	}
	if st := eng.Stats(); st.Panics != 0 || st.Empty != 1 {
		t.Fatalf("stats %+v: want no panics and one empty", st)
	}
}

// TestAnswerEncodedMatchesQueue: answered on the caller's goroutine, an
// encoded query gets exactly the response the queue's workers give it —
// result, label, reported distances, generation, before and after a Swap —
// with the same typed refusals and the same counters.
func TestAnswerEncodedMatchesQueue(t *testing.T) {
	f := buildFixture(t, 7, 24)
	s := assoc.NewExact(f.mem)
	eng, err := New(f.mem, s, nil, Config{Workers: 2, ReportDistances: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enc := f.newEnc()
	check := func(gen uint64) {
		t.Helper()
		for i, text := range f.texts {
			q, n := enc.EncodeText(text, testSeed)
			ch, err := eng.GoEncoded(context.Background(), q, n)
			if err != nil {
				t.Fatal(err)
			}
			want := <-ch
			got, err := eng.AnswerEncoded(context.Background(), q, n)
			if !errors.Is(err, want.Err) || got.Result != want.Result || got.Label != want.Label ||
				got.NGrams != want.NGrams || !slices.Equal(got.Distances, want.Distances) || (err == nil && got.Gen != gen) {
				t.Fatalf("query %d: inline %+v (%v), queued %+v at gen %d", i, got, err, want, gen)
			}
		}
	}
	check(1)
	if _, err := eng.Swap(f.mem, s, nil); err != nil {
		t.Fatal(err)
	}
	check(2)
	for _, c := range []struct {
		q    *hv.Vector
		n    int
		want error
	}{
		{hv.New(testDim + 64), 3, ErrQueryDim},
		{hv.New(testDim), 0, ErrNoNGrams},
	} {
		if _, err := eng.AnswerEncoded(context.Background(), c.q, c.n); !errors.Is(err, c.want) {
			t.Fatalf("dim %d, %d ngrams: %v, want %v", c.q.Dim(), c.n, err, c.want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.AnswerEncoded(ctx, hv.New(testDim), 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v, want context.Canceled", err)
	}
	st := eng.Stats()
	if want := uint64(4*len(f.texts) + 3); st.Submitted != want || st.Completed != uint64(4*len(f.texts)) || st.Empty != 1 || st.Canceled != 1 {
		t.Fatalf("stats %+v: want %d submitted, %d completed, 1 empty, 1 canceled", st, want, 4*len(f.texts))
	}
}

// TestAnswerEncodedRefusals: a forkable searcher belongs to the queue's
// workers, a panic fails only its own call, and a call in flight pins its
// generation — Swap's drain gate and Close both wait for it — after which
// the closed engine refuses.
func TestAnswerEncodedRefusals(t *testing.T) {
	f := buildFixture(t, 4, 1)
	q, n := f.newEnc().EncodeText(f.texts[0], testSeed)

	noisy, err := New(f.mem, assoc.NewNoisySeeded(f.mem, 1, testSeed), nil, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer noisy.Close()
	if _, err := noisy.AnswerEncoded(context.Background(), q, n); !errors.Is(err, ErrNotInline) {
		t.Fatalf("forkable searcher: %v, want ErrNotInline", err)
	}

	panicky, err := New(f.mem, &panicEvery{inner: assoc.NewExact(f.mem), k: 2}, nil, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer panicky.Close()
	if _, err := panicky.AnswerEncoded(context.Background(), q, n); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("panicking search: %v, want ErrWorkerPanic", err)
	}
	if _, err := panicky.AnswerEncoded(context.Background(), q, n); err != nil {
		t.Fatalf("call after a recovered panic: %v", err)
	}

	gated := &gatedSearcher{inner: assoc.NewExact(f.mem), gate: make(chan struct{}), hold: func(n uint64) bool { return n == 0 }}
	eng, err := New(f.mem, gated, nil, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan Response, 1)
	go func() {
		resp, _ := eng.AnswerEncoded(context.Background(), q, n)
		answered <- resp
	}()
	for gated.n.Load() == 0 {
		runtime.Gosched() // wait for the call to enter the search
	}
	swapped := make(chan uint64, 1)
	go func() {
		gen, err := eng.Swap(f.mem, assoc.NewExact(f.mem), nil)
		if err != nil {
			t.Errorf("swap: %v", err)
		}
		swapped <- gen
	}()
	for eng.Gen() != 2 {
		runtime.Gosched() // wait for Swap to install generation 2 and block on the drain gate
	}
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	select {
	case <-swapped:
		t.Fatal("Swap returned while an inline call still searched the old generation")
	case <-closed:
		t.Fatal("Close returned while an inline call was still searching")
	case <-time.After(20 * time.Millisecond):
	}
	close(gated.gate)
	if resp := <-answered; resp.Err != nil || resp.Gen != 1 {
		t.Fatalf("in-flight call across Swap and Close: %+v, want generation 1", resp)
	}
	<-closed
	if gen := <-swapped; gen != 2 {
		t.Fatalf("swap produced generation %d, want 2", gen)
	}
	if _, err := eng.AnswerEncoded(context.Background(), q, n); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: %v, want ErrClosed", err)
	}
}
