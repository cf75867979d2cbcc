package perf

// soak.go: the closed-loop driver the two chaos soaks share (chaos.go
// drives the serve engine, remotefleet.go the remote replica fleet). It
// holds what both need and nothing either classifies: the exact-scan
// reference, the client loop, the latency summary and the leak census.
// Each soak keeps its own outcome classification and acceptance checks.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/assoc"
)

// soakWorkload is the fixture model, the request texts and the exact-scan
// answer every healthy request must reproduce.
type soakWorkload struct {
	f      *fixtures
	texts  []string
	refIdx []int
}

// newSoakWorkload builds the fixtures, 256 benchmark sentences and their
// serial fault-free exact-scan winners.
func newSoakWorkload() (*soakWorkload, error) {
	f := buildFixtures()
	texts := benchTexts(256)
	enc := benchEncoderFactory()()
	exact := assoc.NewExact(f.mem)
	refIdx := make([]int, len(texts))
	for i, text := range texts {
		q, n := enc.EncodeText(text, benchSeed)
		if n == 0 {
			return nil, fmt.Errorf("perf: empty soak text %d", i)
		}
		refIdx[i] = exact.Search(q).Index
	}
	return &soakWorkload{f: f, texts: texts, refIdx: refIdx}, nil
}

// soakOutcome is one request's answer, error and latency; text indexes the
// workload's texts (and refIdx).
type soakOutcome[A any] struct {
	text int
	ans  A
	err  error
	lat  time.Duration
}

// perClient splits requests over clients, rounding down but giving each
// client at least one.
func perClient(requests, clients int) int {
	if per := requests / clients; per > 0 {
		return per
	}
	return 1
}

// closedLoop runs clients closed-loop clients that issue per asks each,
// client c walking the texts from c·per. progress, when non-nil, counts
// completed asks so a fault controller can strike at fractions of the run.
// It returns every outcome and the wall time of the whole loop.
func closedLoop[A any](w *soakWorkload, clients, per int, progress *atomic.Int64,
	ask func(text string) (A, error)) ([]soakOutcome[A], time.Duration) {
	outs := make([]soakOutcome[A], clients*per)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ti := (c*per + i) % len(w.texts)
				t0 := time.Now()
				ans, err := ask(w.texts[ti])
				outs[c*per+i] = soakOutcome[A]{text: ti, ans: ans, err: err, lat: time.Since(t0)}
				if progress != nil {
					progress.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// loopLatency is a closed loop's throughput and latency percentiles over
// every ask, answered or not.
type loopLatency struct {
	QPS, P50Us, P95Us, P99Us float64
}

func summarize[A any](outs []soakOutcome[A], elapsed time.Duration) loopLatency {
	lats := make([]time.Duration, len(outs))
	for i, o := range outs {
		lats[i] = o.lat
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return loopLatency{
		QPS:   float64(len(lats)) / elapsed.Seconds(),
		P50Us: float64(percentile(lats, 50)) / 1e3,
		P95Us: float64(percentile(lats, 95)) / 1e3,
		P99Us: float64(percentile(lats, 99)) / 1e3,
	}
}

// waitUntil polls cond every 5ms for up to d and reports its last value.
func waitUntil(cond func() bool, d time.Duration) bool {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// excess is the leak census: it gives exiting goroutines (or closing file
// descriptors) up to wait to retire, then reports how far count still
// stands above baseline (0 at or below it).
func excess(count func() int, baseline int, wait time.Duration) int {
	waitUntil(func() bool { return count() <= baseline }, wait)
	if n := count(); n > baseline {
		return n - baseline
	}
	return 0
}
