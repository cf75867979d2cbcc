package hv

import (
	"math/rand/v2"
	"testing"
)

// TestAccumulatorReuseEqualsFresh: Reset+SetSeed must make a recycled
// accumulator behave exactly like a newly allocated one — the contract the
// zero-allocation encode path relies on.
func TestAccumulatorReuseEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 3))
	reused := NewAccumulator(2000, 1)
	for session := 0; session < 5; session++ {
		seed := uint64(100 + session)
		fresh := NewAccumulator(2000, seed)
		reused.Reset()
		reused.SetSeed(seed)
		// Vary the session length and parity to exercise tie-breaking.
		for k := 0; k < 7+session; k++ {
			v := Random(2000, rng)
			fresh.Add(v)
			reused.Add(v)
		}
		if Hamming(fresh.Majority(), reused.Majority()) != 0 {
			t.Fatalf("session %d: reused accumulator diverged from fresh", session)
		}
	}
}

// TestAccumulatorSteadyStateZeroAlloc pins the tentpole acceptance
// criterion: Add allocates nothing once the counter storage exists.
func TestAccumulatorSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 4))
	acc := NewAccumulator(10000, 0)
	x := Random(10000, rng)
	acc.Add(x) // allocate counters once
	if n := testing.AllocsPerRun(100, func() { acc.Add(x) }); n != 0 {
		t.Fatalf("Add allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { acc.Reset() }); n != 0 {
		t.Fatalf("Reset allocates %v per op, want 0", n)
	}
}
