package serve

import (
	"context"
	"errors"
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

// TestLatencyRingQuantile pins the rounded nearest-rank rule: the sample at
// round(q·(n-1)), never the truncated rank that biased tail thresholds low.
func TestLatencyRingQuantile(t *testing.T) {
	ring := func(n int) *LatencyRing {
		var l LatencyRing
		for i := n; i >= 1; i-- { // insertion order must not matter
			l.Add(time.Duration(i) * time.Millisecond)
		}
		return &l
	}
	for _, c := range []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{10, 0.95, 10 * time.Millisecond}, // rank 8.55 rounds to 9; truncation gave 9ms
		{10, 0.5, 6 * time.Millisecond},   // rank 4.5 rounds half away from zero
		{10, 0, time.Millisecond},
		{10, 1, 10 * time.Millisecond},
		{1, 0.95, time.Millisecond},
		{100, 0.99, 63 * time.Millisecond}, // the ring keeps the newest 64 samples, 1..64ms: rank 62.37
		{64, 0.95, 61 * time.Millisecond},  // rank 59.85 rounds to 60
	} {
		got, n := ring(c.n).Quantile(c.q)
		if got != c.want || n != min(c.n, 64) {
			t.Errorf("q%.2f of %d samples = %v (%d backing), want %v", c.q, c.n, got, n, c.want)
		}
	}
	if got, n := new(LatencyRing).Quantile(0.95); got != 0 || n != 0 {
		t.Errorf("empty ring: %v over %d samples, want 0 over 0", got, n)
	}
}
