package main

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// hist is a fixed-memory log-linear latency histogram in nanoseconds, in the
// style of HdrHistogram: values below 2^subBits land in unit-width buckets,
// and every power-of-two octave above is split into 2^subBits equal buckets,
// so a bucket is never wider than 1/2^subBits of its lower bound. Its size
// does not depend on how many samples it holds, so the benchmark's heap
// figure does not move with throughput. Recording is lock-free.
type hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
}

const (
	subBits     = 8
	subCount    = 1 << subBits
	maxOctave   = 40 // values at or above 2^40 ns (about 18 minutes) share the top bucket
	histBuckets = (maxOctave - subBits + 1) * subCount
)

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	p := bits.Len64(uint64(v)) - 1 // position of the top set bit, >= subBits
	if p >= maxOctave {
		return histBuckets - 1
	}
	shift := p - subBits
	return (shift+1)*subCount + int(uint64(v)>>shift) - subCount
}

// bucketRange returns the lowest value of bucket i and the bucket's width.
func bucketRange(i int) (lo, width int64) {
	if i < 2*subCount {
		return int64(i), 1
	}
	shift := i/subCount - 1
	return int64(i%subCount+subCount) << shift, int64(1) << shift
}

func (h *hist) record(d time.Duration) {
	h.counts[bucketOf(int64(d))].Add(1)
	h.n.Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the p-th percentile (0..100) by the rounded nearest-rank
// rule: the sample at zero-based rank round(p/100·(n-1)). Within its bucket
// the value is placed by the sample's position among the bucket's samples,
// as if they were spread evenly, so it stays within one bucket width of the
// exact value and a steady tail does not read as one repeated bucket value.
func (h *hist) quantile(p float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Round(p / 100 * float64(n-1)))
	var seen uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if seen+c > rank {
			lo, w := bucketRange(i)
			return time.Duration(float64(lo) + float64(w)*(float64(rank-seen)+0.5)/float64(c))
		}
		seen += c
	}
	lo, _ := bucketRange(histBuckets - 1)
	return time.Duration(lo)
}
