package serve

// swapdrain_test.go: Swap racing Drain. A generation roll that lands in
// the middle of a graceful shutdown must neither drop an accepted request
// (every Go channel gets exactly one response) nor let any micro-batch mix
// generations (all responses stamped with one batch sequence carry one
// Gen). Run under -race this also exercises the retire/acquire dance
// between the workers and Swap's drain gate.

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/hv"
)

func TestSwapRacesDrain(t *testing.T) {
	f := buildFixture(t, 6, 24)
	// A second model of the same dimension for the roll.
	rng := rand.New(rand.NewPCG(testSeed, 0x5a5a))
	cs := make([]*hv.Vector, 6)
	for i := range cs {
		cs[i] = hv.Random(testDim, rng)
	}
	memB, err := core.NewMemory(cs, f.mem.Labels())
	if err != nil {
		t.Fatal(err)
	}

	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{
		Workers:  4,
		MaxBatch: 4,
		Seed:     testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Submitters pump requests until intake closes, recording every
	// accepted response channel.
	const submitters = 6
	var mu sync.Mutex
	var pending []<-chan Response
	var accepted atomic.Int64
	var subWG sync.WaitGroup
	for s := 0; s < submitters; s++ {
		subWG.Add(1)
		go func(s int) {
			defer subWG.Done()
			for i := 0; ; i++ {
				done, err := eng.Go(context.Background(), f.texts[(s+i)%len(f.texts)])
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("submitter %d: %v", s, err)
					return
				}
				accepted.Add(1)
				mu.Lock()
				pending = append(pending, done)
				mu.Unlock()
			}
		}(s)
	}

	// Swapper rolls generations as fast as the drain gate allows, until
	// the engine closes underneath it.
	var swaps atomic.Int64
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for i := 0; ; i++ {
			mem := f.mem
			if i%2 == 0 {
				mem = memB
			}
			if _, err := eng.Swap(mem, assoc.NewExact(mem), f.newEnc); err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				t.Errorf("swap %d: %v", i, err)
				return
			}
			swaps.Add(1)
		}
	}()

	// Let load and swaps overlap, then drain mid-roll with a deadline
	// tight enough that some requests are abandoned.
	time.Sleep(20 * time.Millisecond)
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	abandoned, derr := eng.Drain(dctx)
	cancel()
	if derr != nil && !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("drain: %v", derr)
	}
	subWG.Wait()
	swapWG.Wait()

	if swaps.Load() == 0 {
		t.Fatal("no swap completed before the drain; the race was not exercised")
	}

	// Every accepted request must be answered — classified, drained or
	// abandoned, but never dropped.
	mu.Lock()
	chans := pending
	mu.Unlock()
	if int64(len(chans)) != accepted.Load() {
		t.Fatalf("recorded %d channels for %d accepted requests", len(chans), accepted.Load())
	}
	genOfBatch := make(map[uint64]uint64)
	var answered, drained int
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err == nil {
				answered++
			} else if errors.Is(resp.Err, ErrDrained) {
				drained++
			} else {
				t.Fatalf("request %d failed with unexpected error %v", i, resp.Err)
			}
			if resp.Batch == 0 {
				continue // never reached a worker; carries no generation
			}
			if g, ok := genOfBatch[resp.Batch]; ok && g != resp.Gen {
				t.Fatalf("batch %d answered by generations %d and %d", resp.Batch, g, resp.Gen)
			}
			genOfBatch[resp.Batch] = resp.Gen
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d of %d never answered (answered=%d drained=%d abandoned=%d)",
				i, len(chans), answered, drained, abandoned)
		}
	}
	if answered == 0 {
		t.Fatal("nothing classified before the drain")
	}
	if uint64(drained) != abandoned {
		t.Fatalf("drain reported %d abandoned but %d responses carry ErrDrained", abandoned, drained)
	}
	// The roll must actually have spread answers across generations for
	// the mixing check to mean anything.
	gens := make(map[uint64]bool)
	for _, g := range genOfBatch {
		gens[g] = true
	}
	if len(gens) < 2 {
		t.Logf("note: all %d batches landed in one generation (swaps=%d, gens=%v)", len(genOfBatch), swaps.Load(), gens)
	}
}
