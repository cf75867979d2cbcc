package fleet

// chaos_test.go: the fleet's chaos soak — with 1 of 4 replicas stalled or
// crashed, or one stalled and another crashed under 8 concurrent askers,
// every request is answered, language-id accuracy stays within 1
// percentage point of the fault-free baseline, any healthy-path answer
// stays bit-identical to the single-engine scan, and the goroutine count
// returns to baseline after drain.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hdam/internal/encoder"
	"hdam/internal/fault"
	"hdam/internal/itemmem"
	"hdam/internal/lang"
	"hdam/internal/textgen"
)

// soakFixture trains a scaled-down language-id model (the paper's pipeline
// at D=4096) and returns it with its test sentences and true labels.
type soakFixture struct {
	trained *lang.Trained
	newEnc  func() *encoder.Encoder
	texts   []string
	want    []string // true language label per text
	seed    uint64
}

func buildSoakFixture(t testing.TB) *soakFixture {
	t.Helper()
	p := lang.Params{
		Dim:         4096,
		NGram:       3,
		TrainChars:  20_000,
		TestPerLang: 12,
		SentenceLen: 150,
		Seed:        testSeed,
	}
	cfg := textgen.DefaultConfig()
	cfg.Seed = testSeed
	langs := textgen.Catalog(cfg)
	tr, err := lang.Train(langs, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := lang.MakeTestSet(langs, p)
	sf := &soakFixture{
		trained: tr,
		seed:    p.Seed,
		newEnc: func() *encoder.Encoder {
			im := itemmem.New(p.Dim, p.Seed)
			im.Preload(itemmem.LatinAlphabet)
			return encoder.New(im, p.NGram)
		},
	}
	for _, s := range ts.Samples {
		sf.texts = append(sf.texts, s.Text)
		sf.want = append(sf.want, tr.Memory.Label(s.Label))
	}
	return sf
}

// baseline classifies every text with a fault-free single-engine scan
// (same encoder seed the fleet uses) and returns the winner indices and
// the accuracy against the true labels.
func (sf *soakFixture) baseline(t testing.TB) (winners []int, accuracy float64) {
	t.Helper()
	enc := sf.newEnc()
	correct := 0
	winners = make([]int, len(sf.texts))
	for i, text := range sf.texts {
		q, n := enc.EncodeText(text, sf.seed)
		if n == 0 {
			t.Fatalf("baseline text %d has no n-grams", i)
		}
		wi, _ := sf.trained.Memory.ClassMatrix().Nearest(q)
		winners[i] = wi
		if sf.trained.Memory.Label(wi) == sf.want[i] {
			correct++
		}
	}
	return winners, float64(correct) / float64(len(sf.texts))
}

// waitGoroutines polls until the goroutine count drops to at most limit
// (abandoned stall dispatches need their sleep to expire before exiting).
func waitGoroutines(t testing.TB, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d alive, want <= %d\n%s", n, limit, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestFleetChaosSoak(t *testing.T) {
	sf := buildSoakFixture(t)
	winners, baseAcc := sf.baseline(t)

	scenarios := []struct {
		name     string
		chaos    []fault.ReplicaInjector
		deadline time.Duration
		askers   int   // concurrent askers splitting the texts
		opens    []int // replicas whose breaker must open; no other may
	}{
		{
			// A replica crashed for the whole soak: its partition is an
			// erasure on every request once the breaker opens.
			name:     "crash",
			chaos:    []fault.ReplicaInjector{&fault.ReplicaCrash{Replica: 1, At: 0}},
			deadline: 5 * time.Millisecond,
			askers:   1,
			opens:    []int{1},
		},
		{
			// A replica stalled far past the dispatch deadline: every
			// dispatch to it is abandoned at the deadline and its partition
			// erased, but the stall goroutines must still wind down.
			name:     "stall",
			chaos:    []fault.ReplicaInjector{&fault.ReplicaStall{Replica: 2, From: 0, Stall: 25 * time.Millisecond}},
			deadline: 5 * time.Millisecond,
			askers:   1,
			opens:    []int{2},
		},
		{
			// Concurrent askers while one replica stalls every dispatch and
			// another is crashed: the gather loops of 8 asks in flight share
			// the slow and the dead replica. The deadline is wide so the
			// race detector's slowdown is not misread as replica failure;
			// the stalled replica then answers late but healthy, and only
			// the crashed one erases its partition.
			name: "concurrent-stall+crash",
			chaos: []fault.ReplicaInjector{
				&fault.ReplicaStall{Replica: 1, From: 0, Stall: 20 * time.Millisecond},
				&fault.ReplicaCrash{Replica: 2, At: 0},
			},
			deadline: 2 * time.Second,
			askers:   8,
			opens:    []int{2},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			g0 := runtime.NumGoroutine()
			fl, err := New(sf.trained.Memory, sf.newEnc, Config{
				Replicas: 4,
				Scheme:   ByWords,
				Seed:     sf.seed,
				Deadline: sc.deadline,
				Backoff:  500 * time.Microsecond,
				Cooldown: 16,
				Chaos:    sc.chaos,
			})
			if err != nil {
				t.Fatal(err)
			}
			answers := make([]Answer, len(sf.texts))
			errs := make([]error, len(sf.texts))
			var wg sync.WaitGroup
			for a := 0; a < sc.askers; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					for i := a; i < len(sf.texts); i += sc.askers {
						answers[i], errs[i] = fl.Ask(context.Background(), sf.texts[i])
					}
				}(a)
			}
			wg.Wait()
			correct, degraded := 0, 0
			for i, ans := range answers {
				if errs[i] != nil {
					t.Fatalf("%s: ask %d unanswered: %v", sc.name, i, errs[i])
				}
				if ans.Label == sf.want[i] {
					correct++
				}
				if ans.Degraded {
					degraded++
				} else if ans.Result.Index != winners[i] {
					// Healthy-path answers must stay bit-identical to the
					// single-engine scan.
					t.Fatalf("%s: ask %d healthy answer %d, scan says %d", sc.name, i, ans.Result.Index, winners[i])
				}
			}
			st := fl.Stats()
			if st.Answered != uint64(len(sf.texts)) {
				t.Fatalf("%s: answered %d of %d", sc.name, st.Answered, len(sf.texts))
			}
			if degraded == 0 {
				t.Fatalf("%s: fault injected but nothing degraded (stats %+v)", sc.name, st)
			}
			acc := float64(correct) / float64(len(sf.texts))
			if diff := baseAcc - acc; diff > 0.01 {
				t.Fatalf("%s: accuracy %.4f vs fault-free %.4f (drop %.4f > 1pp, %d/%d degraded)",
					sc.name, acc, baseAcc, diff, degraded, len(sf.texts))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			abandoned, err := fl.Drain(ctx)
			cancel()
			if err != nil || abandoned != 0 {
				t.Fatalf("%s: drain abandoned=%d err=%v", sc.name, abandoned, err)
			}
			// Breakers must have opened on the failing replica only.
			for _, rs := range fl.ReplicaStats() {
				failing := slices.Contains(sc.opens, rs.ID)
				if failing && rs.Opens == 0 {
					t.Fatalf("%s: replica %d never opened its breaker: %+v", sc.name, rs.ID, rs)
				}
				if !failing && rs.Opens != 0 {
					t.Fatalf("%s: healthy replica %d opened its breaker: %+v", sc.name, rs.ID, rs)
				}
			}
			waitGoroutines(t, g0+2)
			t.Logf("%s: accuracy %.4f (baseline %.4f), %d/%d degraded, stats %+v",
				sc.name, acc, baseAcc, degraded, len(sf.texts), st)
		})
	}
}

// TestFleetSlowRestartRecovers: an outage window opens the breaker;
// cooldown probes must re-admit the replica once it is back, closing the
// breaker and restoring undegraded answers.
func TestFleetSlowRestartRecovers(t *testing.T) {
	f := buildFixture(t, 8, 8)
	const down = 30
	fl, err := New(f.mem, f.newEnc, Config{
		Replicas: 4,
		Scheme:   ByWords,
		Cooldown: 8,
		Chaos:    []fault.ReplicaInjector{&fault.SlowRestart{Replica: 0, At: 0, Down: down}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ref := reference(f, f.mem)
	const asks = 200
	healthyTail := 0
	for i := 0; i < asks; i++ {
		k := i % len(f.texts)
		ans, err := fl.Ask(context.Background(), f.texts[k])
		if err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		if !ans.Degraded {
			if ans.Result != ref[k] {
				t.Fatalf("ask %d: healthy answer %+v, want %+v", i, ans.Result, ref[k])
			}
			if i >= down {
				healthyTail++
			}
		}
	}
	if healthyTail == 0 {
		t.Fatalf("replica never recovered after the outage window: %+v", fl.Stats())
	}
	rs := fl.ReplicaStats()[0]
	if rs.Opens == 0 || rs.Probes == 0 {
		t.Fatalf("outage never opened the breaker or probed: %+v", rs)
	}
	if rs.BreakerOpen {
		t.Fatalf("breaker still open after recovery: %+v", rs)
	}
}

// TestFleetCorruptPartialsBecomeErasures: a replica returning damaged
// partials must never contribute to an answer — every corrupted request is
// answered degraded (the partition erased) and the corruption schedule is
// exactly the injector's deterministic strike schedule.
func TestFleetCorruptPartialsBecomeErasures(t *testing.T) {
	f := buildFixture(t, 8, 16)
	cp := &fault.CorruptPartial{Replica: 3, Rate: 0.4, Seed: 99}
	fl, err := New(f.mem, f.newEnc, Config{
		Replicas:   4,
		Scheme:     ByWords,
		Retries:    -1,   // one attempt per partition: degraded iff struck
		ErrorBound: 0.99, // keep the breaker out of the schedule's way
		Chaos:      []fault.ReplicaInjector{cp},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ref := reference(f, f.mem)
	struck := 0
	for i, text := range f.texts {
		ans, err := fl.Ask(context.Background(), text)
		if err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		want := cp.Strikes(uint64(i))
		if ans.Degraded != want {
			t.Fatalf("ask %d: degraded=%v, injector strikes=%v", i, ans.Degraded, want)
		}
		if want {
			struck++
		} else if ans.Result != ref[i] {
			t.Fatalf("ask %d: unstruck answer %+v, want %+v", i, ans.Result, ref[i])
		}
	}
	st := fl.Stats()
	if struck == 0 || st.Corrupt != uint64(struck) {
		t.Fatalf("corruption schedule mismatch: struck=%d stats=%+v", struck, st)
	}
	if fmt.Sprint(cp.Name()) == "" {
		t.Fatal("injector must name itself for reports")
	}
}
