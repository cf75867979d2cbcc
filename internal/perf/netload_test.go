package perf

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// TestRunNetSmoke drives a short low-rate point over each protocol
// end-to-end: the harness must account for every arrival and measure sane
// latencies without shedding at trivial load, and record how many runs
// each point's median-p50 result was chosen from.
func TestRunNetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real sockets")
	}
	points := []NetPoint{
		{Name: "binary/smoke", Protocol: "binary", OfferedQPS: 400, Duration: 400 * time.Millisecond, Conns: 2},
		{Name: "http/smoke", Protocol: "http", OfferedQPS: 200, Duration: 400 * time.Millisecond, Conns: 2},
		{Name: "binary/smoke-bursty-batch", Protocol: "binary", OfferedQPS: 400,
			Duration: 400 * time.Millisecond, Conns: 2, Batch: 4, Bursty: true},
	}
	results, err := RunNet(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(points) {
		t.Fatalf("%d results, want %d", len(results), len(points))
	}
	for _, r := range results {
		if r.Requests == 0 {
			t.Errorf("%s: no requests dispatched", r.Name)
		}
		if r.ErrorRate != 0 {
			t.Errorf("%s: error rate %.3f at trivial load", r.Name, r.ErrorRate)
		}
		if r.ShedRate != 0 {
			t.Errorf("%s: server shed rate %.3f at trivial load", r.Name, r.ShedRate)
		}
		if r.GeneratorShedRate != 0 {
			t.Errorf("%s: generator shed rate %.3f at trivial load", r.Name, r.GeneratorShedRate)
		}
		if r.Runs != netRuns {
			t.Errorf("%s: result taken from %d runs, want %d", r.Name, r.Runs, netRuns)
		}
		if r.QPS <= 0 || r.P50Us <= 0 || r.P999Us < r.P50Us {
			t.Errorf("%s: implausible measurements %+v", r.Name, r)
		}
	}
}

// TestArrivalScheduleShape checks the open-loop schedule: deterministic
// under a fixed seed, correct average rate, monotone, and silent during
// the off-half of bursty cycles.
func TestArrivalScheduleShape(t *testing.T) {
	p := NetPoint{OfferedQPS: 10_000, Duration: time.Second, Batch: 1}.withDefaults()
	mk := func() []time.Duration {
		return arrivalSchedule(p, rand.New(rand.NewPCG(benchSeed, 0x10ad)))
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("schedule length nondeterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs under the same seed", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d not monotone", i)
		}
		if a[i] >= p.Duration {
			t.Fatalf("arrival %d past the window", i)
		}
	}
	// Poisson count over 1s at 10k/s: ±5% is ~16 sigma, safe forever.
	if n := len(a); n < 9500 || n > 10500 {
		t.Fatalf("schedule carries %d arrivals, want ~10000", n)
	}

	bp := p
	bp.Bursty = true
	bs := arrivalSchedule(bp, rand.New(rand.NewPCG(benchSeed, 0x10ad)))
	if n := len(bs); n < 9000 || n > 11000 {
		t.Fatalf("bursty schedule carries %d arrivals, want ~10000", n)
	}
	for i, at := range bs {
		phase := math.Mod(at.Seconds(), 0.1)
		// A phase within float epsilon of the cycle boundary is the start of
		// the next on window, not the tail of the off window.
		if phase > 0.0501 && phase < 0.1-1e-9 {
			t.Fatalf("bursty arrival %d at %v lands in the off window (phase %.4f)", i, at, phase)
		}
	}
}
