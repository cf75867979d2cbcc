package perf

import (
	"math"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted durations by
// the rounded nearest-rank method: the element at round(p/100·(n-1)).
// Truncating that rank instead — the old behavior — systematically biased
// tail percentiles low: with 10 samples, p99 landed on index 8 (the 90th
// percentile!) because int(8.91) floors. Every harness (the two chaos
// soaks, cascade, net) shares this helper.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Round(p / 100 * float64(len(sorted)-1)))
	if i < 0 {
		i = 0
	}
	if i > len(sorted)-1 {
		i = len(sorted) - 1
	}
	return sorted[i]
}
