package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

func TestBucketRangeCoversValue(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100_000; i++ {
		v := int64(rng.Uint64N(1 << uint(rng.IntN(40))))
		lo, w := bucketRange(bucketOf(v))
		if v < lo || v >= lo+w {
			t.Fatalf("value %d in bucket [%d,%d)", v, lo, lo+w)
		}
		if v >= subCount && float64(w) > float64(lo)/subCount {
			t.Fatalf("bucket [%d,+%d) wider than 1/%d of its lower bound", lo, w, subCount)
		}
	}
}

// TestQuantileWithinOneBucket checks the histogram against exact
// nearest-rank percentiles (rank rounded, as the repository's perf
// harnesses compute them) on latency-shaped samples.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 10, 101, 5000, 100_000} {
		h := &hist{}
		exact := make([]time.Duration, n)
		for i := range exact {
			// Log-normal around 200µs with a heavy tail.
			d := time.Duration(200e3 * math.Exp(rng.NormFloat64()))
			if rng.IntN(100) == 0 {
				d *= 50
			}
			exact[i] = d
			h.record(d)
		}
		sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
		for _, p := range []float64{0, 1, 25, 50, 90, 99, 99.9, 100} {
			want := exact[int(math.Round(p/100*float64(n-1)))]
			got := h.quantile(p)
			_, w := bucketRange(bucketOf(int64(want)))
			if diff := got - want; diff < -time.Duration(w) || diff > time.Duration(w) {
				t.Errorf("n=%d p%v: got %v, exact %v, bucket width %v", n, p, got, want, time.Duration(w))
			}
		}
		if h.count() != uint64(n) {
			t.Errorf("count %d, want %d", h.count(), n)
		}
	}
}
