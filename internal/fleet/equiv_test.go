package fleet

// equiv_test.go: the fleet's healthy path must be bit-identical to a
// single-engine full scan — same winner, same distance, same deterministic
// lowest-index tie-break — under both partition schemes, with and without
// mirrors, serially and under concurrent load.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hdam/internal/fault"
)

func TestFleetHealthyPathBitIdentical(t *testing.T) {
	f := buildFixture(t, 9, 40)
	ref := reference(f, f.mem)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"by-words/4x4", Config{Replicas: 4, Scheme: ByWords}},
		{"by-words/6x3+mirrors", Config{Replicas: 6, Partitions: 3, Scheme: ByWords}},
		{"by-words/1x1", Config{Replicas: 1, Scheme: ByWords}},
		{"by-classes/3x3", Config{Replicas: 3, Scheme: ByClasses}},
		{"by-classes/6x3+mirrors", Config{Replicas: 6, Partitions: 3, Scheme: ByClasses}},
		{"by-classes/9x9", Config{Replicas: 9, Scheme: ByClasses}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl, err := New(f.mem, f.newEnc, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			for i, text := range f.texts {
				ans, err := fl.Ask(context.Background(), text)
				if err != nil {
					t.Fatalf("ask %d: %v", i, err)
				}
				if ans.Result != ref[i] {
					t.Fatalf("ask %d: fleet %+v, single-engine scan %+v", i, ans.Result, ref[i])
				}
				if ans.Label != f.mem.Label(ref[i].Index) {
					t.Fatalf("ask %d: label %q, want %q", i, ans.Label, f.mem.Label(ref[i].Index))
				}
				if ans.Degraded || ans.Coverage != 1 || ans.Erasures != 0 || ans.Gen != 1 {
					t.Fatalf("ask %d: healthy answer reports degradation: %+v", i, ans)
				}
				if ans.WidenedMargin != ans.Margin {
					t.Fatalf("ask %d: healthy answer has certificate slack: %+v", i, ans)
				}
				if ans.Confident != (ans.Margin > 0) {
					t.Fatalf("ask %d: Confident=%v with margin %d", i, ans.Confident, ans.Margin)
				}
			}
		})
	}
}

func TestFleetConcurrentAsksBitIdentical(t *testing.T) {
	f := buildFixture(t, 8, 32)
	ref := reference(f, f.mem)
	g0 := runtime.NumGoroutine()
	fl, err := New(f.mem, f.newEnc, Config{
		Replicas:   6,
		Partitions: 3,
		Scheme:     ByWords,
		Hedge:      true,
		HedgeAfter: 500 * time.Microsecond, // hedge aggressively to exercise first-win
		// In-process replicas answer inline and never straggle: a stalled
		// replica gives the hedges something to race.
		Chaos: []fault.ReplicaInjector{&fault.ReplicaStall{Replica: 0, Stall: 2 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, text := range f.texts {
				ans, err := fl.Ask(context.Background(), text)
				if err != nil {
					errc <- fmt.Errorf("worker %d ask %d: %w", w, i, err)
					return
				}
				if ans.Result != ref[i] || ans.Degraded {
					errc <- fmt.Errorf("worker %d ask %d: %+v, want %+v", w, i, ans.Result, ref[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := fl.Stats(); st.HedgeWins == 0 {
		t.Errorf("no hedge ever won against the stalled replica: %+v", st)
	}
	// Losing hedges and stalled dispatches must all wind down.
	fl.Close()
	waitGoroutines(t, g0+2)
}

// TestFleetDegradedByWordsIsDSampled: losing a word-range partition must
// give exactly the d-sampled answer over the surviving bits — the sum of
// the surviving range distances with the lowest-index argmin.
func TestFleetDegradedByWordsIsDSampled(t *testing.T) {
	f := buildFixture(t, 8, 24)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 4, Scheme: ByWords, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	const lost = 1
	if err := fl.StopReplica(lost); err != nil {
		t.Fatal(err)
	}
	enc := f.newEnc()
	cm := f.mem.ClassMatrix()
	full := make([]int, f.mem.Classes())
	part := make([]int, f.mem.Classes())
	for i, text := range f.texts {
		ans, err := fl.Ask(context.Background(), text)
		if err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		q, n := enc.EncodeText(text, testSeed)
		if n == 0 {
			t.Fatalf("reference encode %d produced no n-grams", i)
		}
		cm.DistancesInto(full, q)
		cm.RangeDistancesInto(part, q, fl.parts[lost].lo, fl.parts[lost].hi)
		best, bestD := 0, full[0]-part[0]
		for c := 1; c < len(full); c++ {
			if d := full[c] - part[c]; d < bestD {
				best, bestD = c, d
			}
		}
		if ans.Result.Index != best || ans.Result.Distance != bestD {
			t.Fatalf("ask %d: degraded answer (%d,%d), want d-sampled (%d,%d)",
				i, ans.Result.Index, ans.Result.Distance, best, bestD)
		}
		if !ans.Degraded || ans.CoveredBits != testDim-fl.parts[lost].bits {
			t.Fatalf("ask %d: %+v does not report the erasure", i, ans)
		}
	}
}

// TestFleetDegradedByClassesExcludesBand: losing a class-row partition must
// exclude exactly its classes, answer exactly over the rest, and never
// claim confidence.
func TestFleetDegradedByClassesExcludesBand(t *testing.T) {
	f := buildFixture(t, 9, 24)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 3, Scheme: ByClasses, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	const lost = 2
	if err := fl.StopReplica(lost); err != nil {
		t.Fatal(err)
	}
	band := fl.parts[lost]
	enc := f.newEnc()
	full := make([]int, f.mem.Classes())
	for i, text := range f.texts {
		ans, err := fl.Ask(context.Background(), text)
		if err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		q, n := enc.EncodeText(text, testSeed)
		if n == 0 {
			t.Fatalf("reference encode %d produced no n-grams", i)
		}
		f.mem.ClassMatrix().DistancesInto(full, q)
		best, bestD := -1, testDim+1
		for c := range full {
			if c >= band.rlo && c < band.rhi {
				continue
			}
			if full[c] < bestD {
				best, bestD = c, full[c]
			}
		}
		if ans.Result.Index != best || ans.Result.Distance != bestD {
			t.Fatalf("ask %d: degraded answer (%d,%d), want covered-band best (%d,%d)",
				i, ans.Result.Index, ans.Result.Distance, best, bestD)
		}
		if !ans.Degraded || ans.Confident || ans.WidenedMargin != 0 {
			t.Fatalf("ask %d: degraded by-classes answer claims confidence: %+v", i, ans)
		}
		if ans.CoveredClasses != f.mem.Classes()-(band.rhi-band.rlo) {
			t.Fatalf("ask %d: covered %d classes, want %d", i, ans.CoveredClasses,
				f.mem.Classes()-(band.rhi-band.rlo))
		}
	}
}

// TestFleetHedgeCoversStalledReplica: with a mirror available, a stalled
// primary is hedged around and the answer stays exact and undegraded.
func TestFleetHedgeCoversStalledReplica(t *testing.T) {
	f := buildFixture(t, 6, 12)
	ref := reference(f, f.mem)
	fl, err := New(f.mem, f.newEnc, Config{
		Replicas:   2,
		Partitions: 1,
		Scheme:     ByWords,
		Hedge:      true,
		HedgeAfter: time.Millisecond,
		Deadline:   200 * time.Millisecond,
		Chaos:      []fault.ReplicaInjector{&fault.ReplicaStall{Replica: 0, From: 0, Stall: 40 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for i, text := range f.texts {
		ans, err := fl.Ask(context.Background(), text)
		if err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		if ans.Result != ref[i] || ans.Degraded {
			t.Fatalf("ask %d: %+v (degraded=%v), want exact %+v", i, ans.Result, ans.Degraded, ref[i])
		}
	}
	st := fl.Stats()
	if st.Hedged == 0 || st.HedgeWins == 0 {
		t.Fatalf("stall never hedged: %+v", st)
	}
}

// TestFleetSwapUnderLoad: asks racing a generation roll must each be
// answered entirely by one generation and stay bit-identical to that
// generation's reference when undegraded.
func TestFleetSwapUnderLoad(t *testing.T) {
	f := buildFixture(t, 8, 24)
	ref1 := reference(f, f.mem)
	mem2 := altMemory(t, f.mem)
	ref2 := reference(f, mem2)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 4, Scheme: ByWords})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (w + round) % len(f.texts)
				ans, err := fl.Ask(context.Background(), f.texts[i])
				if err != nil {
					errc <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if ans.Gen != 1 && ans.Gen != 2 {
					errc <- fmt.Errorf("worker %d: impossible generation %d", w, ans.Gen)
					return
				}
				if !ans.Degraded {
					want := ref1[i]
					if ans.Gen == 2 {
						want = ref2[i]
					}
					if ans.Result != want {
						errc <- fmt.Errorf("worker %d ask %d: gen %d answered %+v, want %+v",
							w, i, ans.Gen, ans.Result, want)
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := fl.Swap(mem2, f.newEnc); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// After the roll has quiesced, every answer comes from generation 2.
	for i := 0; i < 4; i++ {
		ans, err := fl.Ask(context.Background(), f.texts[i])
		if err != nil {
			t.Fatal(err)
		}
		if ans.Gen != 2 || ans.Degraded || ans.Result != ref2[i] {
			t.Fatalf("post-roll ask %d: %+v, want gen-2 %+v", i, ans, ref2[i])
		}
	}
}
