package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/fault"
	"hdam/internal/hv"
)

// gatedSearcher blocks selected searches on a gate channel, so tests can
// hold a worker mid-search and saturate the queue deterministically.
type gatedSearcher struct {
	inner core.Searcher
	gate  chan struct{} // searches selected by hold block until this closes
	hold  func(n uint64) bool
	n     atomic.Uint64
}

func (g *gatedSearcher) Name() string { return "gated[" + g.inner.Name() + "]" }

func (g *gatedSearcher) Search(q *hv.Vector) core.Result {
	n := g.n.Add(1) - 1
	if g.hold != nil && g.hold(n) {
		<-g.gate
	}
	return g.inner.Search(q)
}

// panicEvery panics on every k-th search (0, k, 2k, ...).
type panicEvery struct {
	inner core.Searcher
	k     uint64
	n     atomic.Uint64
}

func (p *panicEvery) Name() string { return "panicky[" + p.inner.Name() + "]" }

func (p *panicEvery) Search(q *hv.Vector) core.Result {
	n := p.n.Add(1) - 1
	if n%p.k == 0 {
		panic("poisoned query")
	}
	return p.inner.Search(q)
}

// waitGoroutines polls until the goroutine count drops back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("goroutine leak: %d before, %d after", base, g)
	}
}

// TestRejectPolicyNeverBlocks saturates a one-worker engine whose searcher
// is held mid-batch: under Reject, Go fails fast with ErrOverloaded instead
// of blocking, and the shed counts surface in Stats.
func TestRejectPolicyNeverBlocks(t *testing.T) {
	f := buildFixture(t, 4, 4)
	gate := make(chan struct{})
	s := &gatedSearcher{inner: assoc.NewExact(f.mem), gate: gate, hold: func(uint64) bool { return true }}
	eng, err := New(f.mem, s, f.newEnc, Config{
		Workers: 1, MaxBatch: 2, Queue: 4,
		Policy: Reject, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the only worker in the searcher on one request first. A worker
	// gathers its whole batch before it searches, so from then on nothing
	// leaves the queue, and a slot it frees late cannot admit the
	// saturated Submit below.
	if _, err := eng.Go(context.Background(), f.texts[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.n.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the searcher")
		}
		time.Sleep(time.Millisecond)
	}
	// Fill the queue until Reject engages.
	sawOverload := false
	for i := 0; i < 64 && !sawOverload; i++ {
		_, err := eng.Go(context.Background(), f.texts[i%len(f.texts)])
		if errors.Is(err, ErrOverloaded) {
			sawOverload = true
		} else if err != nil {
			t.Fatalf("go %d: %v", i, err)
		}
	}
	if !sawOverload {
		t.Fatal("queue never overloaded under Reject")
	}
	// A rejected Submit returns well before any context deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := eng.Submit(ctx, f.texts[0]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated submit: err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejecting submit took %s", d)
	}
	if st := eng.Stats(); st.Rejected == 0 {
		t.Fatalf("stats %+v: no rejections recorded", st)
	}
	close(gate)
	eng.Close()
}

// TestQueueIsAdmissionBound pins Config.Queue as the exact admission
// bound: with the only worker held mid-search on the first request, exactly
// Queue more submissions are admitted and the next is rejected. Nothing
// between the queue and the workers may hold admitted requests.
func TestQueueIsAdmissionBound(t *testing.T) {
	const queue = 4
	f := buildFixture(t, 4, 4)
	gate := make(chan struct{})
	s := &gatedSearcher{inner: assoc.NewExact(f.mem), gate: gate, hold: func(n uint64) bool { return n == 0 }}
	eng, err := New(f.mem, s, f.newEnc, Config{
		Workers: 1, MaxBatch: 1, Queue: queue, Policy: Reject, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(gate) })
	defer eng.Close()
	defer release() // a failing check must not leave Close waiting on the gate
	first, err := eng.Go(context.Background(), f.texts[0])
	if err != nil {
		t.Fatal(err)
	}
	// The worker has taken the first request once its search has begun.
	deadline := time.Now().Add(5 * time.Second)
	for s.n.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the searcher")
		}
		time.Sleep(time.Millisecond)
	}
	chans := []<-chan Response{first}
	for i := 0; i < queue; i++ {
		ch, err := eng.Go(context.Background(), f.texts[(i+1)%len(f.texts)])
		if err != nil {
			t.Fatalf("submission %d of %d within the queue bound: %v", i+1, queue, err)
		}
		chans = append(chans, ch)
	}
	if _, err := eng.Go(context.Background(), f.texts[0]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submission past the queue bound: err = %v, want ErrOverloaded", err)
	}
	release()
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("admitted request %d: %v", i, resp.Err)
		}
	}
	if st := eng.Stats(); st.Rejected != 1 || st.Submitted != queue+1 {
		t.Fatalf("stats %+v: want 1 rejected and %d submitted", st, queue+1)
	}
}

// TestShedOldestAdmitsFreshLoad saturates the engine under ShedOldest:
// submissions never block, the stalest queued requests are answered with
// ErrOverloaded, every accepted request gets exactly one response, and shed
// counts are reported.
func TestShedOldestAdmitsFreshLoad(t *testing.T) {
	f := buildFixture(t, 4, 8)
	gate := make(chan struct{})
	s := &gatedSearcher{inner: assoc.NewExact(f.mem), gate: gate, hold: func(uint64) bool { return true }}
	eng, err := New(f.mem, s, f.newEnc, Config{
		Workers: 1, MaxBatch: 2, Queue: 2,
		Policy: ShedOldest, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	chans := make([]<-chan Response, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		ch, err := eng.Go(context.Background(), f.texts[i%len(f.texts)])
		if err != nil {
			t.Fatalf("go %d: %v", i, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("go %d blocked %s under ShedOldest", i, d)
		}
		chans = append(chans, ch)
	}
	close(gate)
	shedResponses, classified := 0, 0
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if errors.Is(resp.Err, ErrOverloaded) {
				shedResponses++
			} else if resp.Err != nil {
				t.Fatalf("request %d: %v", i, resp.Err)
			} else {
				classified++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered", i)
		}
	}
	eng.Close()
	st := eng.Stats()
	if shedResponses == 0 || st.Shed == 0 {
		t.Fatalf("no shedding: %d shed responses, stats %+v", shedResponses, st)
	}
	if uint64(shedResponses) != st.Shed {
		t.Fatalf("%d shed responses but stats report %d", shedResponses, st.Shed)
	}
	if classified+shedResponses != n {
		t.Fatalf("%d classified + %d shed != %d submitted", classified, shedResponses, n)
	}
}

// TestDeadlineDroppedBeforeEncode queues requests whose context expires
// while the worker is held: the engine drops them with the context error
// without spending encode/search work, and live requests still classify.
func TestDeadlineDroppedBeforeEncode(t *testing.T) {
	f := buildFixture(t, 4, 4)
	gate := make(chan struct{})
	s := &gatedSearcher{inner: assoc.NewExact(f.mem), gate: gate, hold: func(n uint64) bool { return n == 0 }}
	eng, err := New(f.mem, s, f.newEnc, Config{
		Workers: 1, MaxBatch: 1, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First request holds the worker; the second's deadline expires in queue.
	first, err := eng.Go(context.Background(), f.texts[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	expired, err := eng.Go(ctx, f.texts[1])
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(gate)
	if resp := <-first; resp.Err != nil {
		t.Fatalf("held request: %v", resp.Err)
	}
	if resp := <-expired; !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("expired request: err = %v, want context.Canceled", resp.Err)
	}
	if resp, err := eng.Submit(context.Background(), f.texts[2]); err != nil || resp.Label == "" {
		t.Fatalf("live request after expiry: %+v, %v", resp, err)
	}
	eng.Close()
	// Exactly the held and the live request reached the searcher; the
	// expired one was dropped before encode.
	if got := s.n.Load(); got != 2 {
		t.Fatalf("searcher saw %d searches, want 2 (expired request must be dropped)", got)
	}
	if st := eng.Stats(); st.Canceled == 0 {
		t.Fatalf("stats %+v: expiry not counted", st)
	}
}

// TestSupervisionRecoversPanics drives a searcher that panics on every 5th
// search through a one-worker engine: each poisoned request fails with
// ErrWorkerPanic, the worker restarts with fresh state, every other request
// stays bit-identical to the serial loop, and the engine survives.
func TestSupervisionRecoversPanics(t *testing.T) {
	f := buildFixture(t, 8, 30)
	want := serialResponses(f, assoc.NewExact(f.mem), testSeed)
	const every = 5
	s := &panicEvery{inner: assoc.NewExact(f.mem), k: every}
	base := runtime.NumGoroutine()
	eng, err := New(f.mem, s, f.newEnc, Config{
		Workers: 1, MaxBatch: 4, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Submit in order through one worker: search i panics iff i%every == 0.
	chans := make([]<-chan Response, len(f.texts))
	for i, text := range f.texts {
		ch, err := eng.Go(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	panicked := 0
	for i, ch := range chans {
		resp := <-ch
		if i%every == 0 {
			if !errors.Is(resp.Err, ErrWorkerPanic) {
				t.Fatalf("request %d: err = %v, want ErrWorkerPanic", i, resp.Err)
			}
			panicked++
			continue
		}
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if resp.Result != want[i].Result || resp.Label != want[i].Label {
			t.Fatalf("request %d diverged after panics: engine %+v, serial %+v", i, resp, want[i])
		}
	}
	eng.Close()
	st := eng.Stats()
	if st.Panics != uint64(panicked) || st.Restarts != uint64(panicked) {
		t.Fatalf("%d poisoned requests, stats %+v", panicked, st)
	}
	if st.Completed != uint64(len(f.texts)-panicked) {
		t.Fatalf("completed %d of %d healthy requests", st.Completed, len(f.texts)-panicked)
	}
	waitGoroutines(t, base)
}

// TestChaosSupervisionSmoke is the CI chaos smoke (short-mode friendly):
// the seeded fault.Chaos injectors panic and stall searches under a
// multi-worker engine; every request must come back answered and the
// engine must restart workers and leak nothing.
func TestChaosSupervisionSmoke(t *testing.T) {
	f := buildFixture(t, 8, 64)
	want := serialResponses(f, assoc.NewExact(f.mem), testSeed)
	chaotic := fault.Chaos(assoc.NewExact(f.mem),
		&fault.WorkerPanic{Rate: 0.1, Seed: testSeed},
		&fault.LatencySpike{Rate: 0.1, Spike: 500 * time.Microsecond, Seed: testSeed},
	)
	base := runtime.NumGoroutine()
	eng, err := New(f.mem, chaotic, f.newEnc, Config{
		Workers: 4, MaxBatch: 8, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	faulted, healthy := new(atomic.Uint64), new(atomic.Uint64)
	for i, text := range f.texts {
		wg.Add(1)
		go func(i int, text string) {
			defer wg.Done()
			resp, err := eng.Submit(context.Background(), text)
			switch {
			case err == nil:
				healthy.Add(1)
				if resp.Result != want[i].Result {
					t.Errorf("request %d corrupted under chaos: %+v, want %+v", i, resp.Result, want[i].Result)
				}
			case errors.Is(err, ErrWorkerPanic):
				faulted.Add(1)
			default:
				t.Errorf("request %d: untyped error %v", i, err)
			}
		}(i, text)
	}
	wg.Wait()
	eng.Close()
	st := eng.Stats()
	if got := faulted.Load() + healthy.Load(); got != uint64(len(f.texts)) {
		t.Fatalf("answered %d of %d requests", got, len(f.texts))
	}
	if faulted.Load() == 0 {
		t.Fatal("chaos injected no panics at rate 0.1 over 64 searches")
	}
	if st.Restarts != st.Panics || st.Panics != faulted.Load() {
		t.Fatalf("faulted %d, stats %+v", faulted.Load(), st)
	}
	waitGoroutines(t, base)
}

// TestDrainGraceful drains an idle-capable engine with no deadline
// pressure: everything flushes, nothing is abandoned.
func TestDrainGraceful(t *testing.T) {
	f := buildFixture(t, 4, 16)
	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{
		Workers: 2, MaxBatch: 4, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan Response, len(f.texts))
	for i, text := range f.texts {
		ch, err := eng.Go(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	abandoned, err := eng.Drain(context.Background())
	if err != nil || abandoned != 0 {
		t.Fatalf("graceful drain: abandoned %d, err %v", abandoned, err)
	}
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("request %d after graceful drain: %v", i, resp.Err)
		}
	}
	if _, err := eng.Submit(context.Background(), f.texts[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: err = %v, want ErrClosed", err)
	}
}

// TestDrainDeadlineAbandons drains an engine whose searcher stalls per
// search: the deadline cuts the flush short, the backlog is failed fast
// with ErrDrained, and the abandoned count is reported.
func TestDrainDeadlineAbandons(t *testing.T) {
	f := buildFixture(t, 4, 24)
	slow := &gatedSearcher{inner: assoc.NewExact(f.mem)}
	slow.hold = func(uint64) bool { time.Sleep(10 * time.Millisecond); return false }
	base := runtime.NumGoroutine()
	eng, err := New(f.mem, slow, f.newEnc, Config{
		Workers: 1, MaxBatch: 2, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan Response, len(f.texts))
	for i, text := range f.texts {
		ch, err := eng.Go(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	abandoned, derr := eng.Drain(ctx)
	if !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("deadline drain: err = %v", derr)
	}
	if abandoned == 0 {
		t.Fatal("deadline drain abandoned nothing despite a stalling searcher")
	}
	drained, served := uint64(0), 0
	for i, ch := range chans {
		select {
		case resp := <-ch:
			switch {
			case resp.Err == nil:
				served++
			case errors.Is(resp.Err, ErrDrained):
				drained++
			default:
				t.Fatalf("request %d: unexpected error %v", i, resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered after drain", i)
		}
	}
	if drained != abandoned {
		t.Fatalf("drain reported %d abandoned but %d responses carry ErrDrained", abandoned, drained)
	}
	if served+int(drained) != len(f.texts) {
		t.Fatalf("%d served + %d drained != %d submitted", served, drained, len(f.texts))
	}
	waitGoroutines(t, base)
}

// TestCloseRacesSubmit runs Close concurrently with a storm of Submit/Go
// callers (race-enabled in CI): every request must get either a Response or
// ErrClosed, and the engine must leak nothing.
func TestCloseRacesSubmit(t *testing.T) {
	for _, policy := range []Policy{Block, Reject, ShedOldest} {
		f := buildFixture(t, 4, 8)
		base := runtime.NumGoroutine()
		eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{
			Workers: 2, MaxBatch: 4, Queue: 8,
			Policy: policy, Seed: testSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		const submitters = 8
		var wg sync.WaitGroup
		var answered, closedErrs, otherTyped atomic.Uint64
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					if g%2 == 0 {
						resp, err := eng.Submit(context.Background(), f.texts[i%len(f.texts)])
						switch {
						case err == nil && resp.Label != "":
							answered.Add(1)
						case errors.Is(err, ErrClosed):
							closedErrs.Add(1)
						case errors.Is(err, ErrOverloaded):
							otherTyped.Add(1)
						default:
							t.Errorf("policy %v submit: resp %+v err %v", policy, resp, err)
						}
						continue
					}
					ch, err := eng.Go(context.Background(), f.texts[i%len(f.texts)])
					switch {
					case err == nil:
						if resp := <-ch; resp.Err == nil || errors.Is(resp.Err, ErrOverloaded) {
							answered.Add(1)
						} else {
							t.Errorf("policy %v go: response err %v", policy, resp.Err)
						}
					case errors.Is(err, ErrClosed):
						closedErrs.Add(1)
					case errors.Is(err, ErrOverloaded):
						otherTyped.Add(1)
					default:
						t.Errorf("policy %v go: err %v", policy, err)
					}
				}
			}(g)
		}
		// Close mid-storm.
		time.Sleep(2 * time.Millisecond)
		eng.Close()
		wg.Wait()
		if total := answered.Load() + closedErrs.Load() + otherTyped.Load(); total != submitters*16 {
			t.Fatalf("policy %v: %d of %d requests accounted for", policy, total, submitters*16)
		}
		waitGoroutines(t, base)
	}
}

// TestPolicyString pins the report names.
func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{Block: "block", Reject: "reject", ShedOldest: "shed-oldest", Policy(9): "policy(9)"} {
		if got := p.String(); got != want {
			t.Fatalf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}
