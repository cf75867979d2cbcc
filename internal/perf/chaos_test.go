package perf

import (
	"testing"
	"time"
)

// TestChaosSoakShort runs a reduced chaos soak and enforces the same
// acceptance criteria as hambench -chaos: every request answered, zero
// result corruption, supervised restarts exercised, zero goroutine leaks.
// It is short-mode friendly so `make ci` can use it as the chaos smoke.
func TestChaosSoakShort(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Requests = 256
	cfg.Clients = 8
	cfg.PanicRate = 0.05           // strike often enough for a small soak
	cfg.P99Bound = 5 * time.Second // the race detector inflates latency ~10x
	r, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Violations(cfg); len(v) > 0 {
		for _, line := range v {
			t.Errorf("violated: %s", line)
		}
	}
	t.Logf("%s: %d classified, %d faulted, %d panics, %d restarts, p99 %.1fµs",
		r.Name, r.Classified, r.Faulted, r.Panics, r.Restarts, r.P99Us)
}
