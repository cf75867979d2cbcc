package main

import (
	"fmt"
	"os"
	"time"

	"hdam/internal/core"
	"hdam/internal/fleet"
	"hdam/internal/hv"
	"hdam/internal/learn"
	"hdam/internal/netserve"
	"hdam/internal/store"
)

// serveCounters is one reading of the counters each layer already keeps;
// the per-layer counts are differences of two readings around the window.
type serveCounters struct {
	net              netserve.Stats
	batches, batched uint64 // engine micro-batches (summed over fleet replicas)
	rejected, shed   uint64
	fleet            fleet.Stats
	replicaCompleted uint64
	learn            learn.Stats
}

func (c *serveCounters) read(s *stack) {
	c.net = s.srv.Stats()
	if s.eng != nil {
		e := s.eng.Stats()
		c.batches, c.batched, c.rejected, c.shed = e.Batches, e.Batched, e.Rejected, e.Shed
	}
	if s.fl != nil {
		c.fleet = s.fl.Stats()
		for _, r := range s.fl.ReplicaStats() {
			c.batches += r.Engine.Batches
			c.batched += r.Engine.Batched
			c.rejected += r.Engine.Rejected
			c.shed += r.Engine.Shed
			c.replicaCompleted += r.Engine.Completed
		}
	}
	if s.lr != nil {
		c.learn = s.lr.Stats()
	}
}

// avgBatch is the mean micro-batch size between two readings.
func (c *serveCounters) avgBatch(before serveCounters) float64 {
	if n := c.batches - before.batches; n > 0 {
		return float64(c.batched-before.batched) / float64(n)
	}
	return 0
}

// replayEncode replays the query pool through Encoder.EncodeText on one
// goroutine and returns the mean time and n-gram count per text.
func replayEncode(texts []string) (us, ngrams float64) {
	enc := learn.EncoderFactory(hv.Dim, 3, pipeSeed)()
	for _, t := range texts[:min(64, len(texts))] {
		enc.EncodeText(t, pipeSeed) // warm the item-memory cache and scratch
	}
	grams := 0
	start := time.Now()
	for _, t := range texts {
		_, n := enc.EncodeText(t, pipeSeed)
		grams += n
	}
	el := time.Since(start)
	return float64(el) / 1e3 / float64(len(texts)), float64(grams) / float64(len(texts))
}

// loadSnapshot reads a generation snapshot into memory.
func loadSnapshot(path string) (*core.Memory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := store.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return snap.Memory(), nil
}
