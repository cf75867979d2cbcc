package fleet

// inline_test.go: a healthy in-process ask is answered on the asking
// goroutine — no dispatch goroutine, no engine hand-off — and its cost is
// pinned by an allocation budget and BenchmarkFleetAsk.

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdam/internal/core"
	"hdam/internal/hv"
	"hdam/internal/serve"
)

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// goroutineLog counts searches per goroutine id.
type goroutineLog struct {
	mu  sync.Mutex
	ids map[uint64]int
}

// goroutineSearcher is a partition searcher that logs the goroutine every
// search ran on.
type goroutineSearcher struct {
	core.RowSearcher
	log *goroutineLog
}

func (s goroutineSearcher) ObservedDistances(dst []int, q *hv.Vector) []int {
	s.log.mu.Lock()
	s.log.ids[goroutineID()]++
	s.log.mu.Unlock()
	return s.RowSearcher.ObservedDistances(dst, q)
}

// TestHealthyAskStaysOnCallersGoroutine: every replica search of a healthy
// in-process ask runs on the goroutine that called Ask, so the ask starts
// no goroutine and crosses no engine queue.
func TestHealthyAskStaysOnCallersGoroutine(t *testing.T) {
	f := buildFixture(t, 6, 8)
	ref := reference(f, f.mem)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 4, Partitions: 4, Scheme: ByWords})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	rec := &goroutineLog{ids: map[uint64]int{}}
	for _, r := range fl.replicas {
		m, s, err := buildModel(f.mem, ByWords, fl.parts[r.part])
		if err != nil {
			t.Fatal(err)
		}
		logged := goroutineSearcher{RowSearcher: s.(core.RowSearcher), log: rec}
		eng, err := serve.New(m, logged, nil, serve.Config{Workers: 1, ReportDistances: true})
		if err != nil {
			t.Fatal(err)
		}
		r.tr.Close()
		r.reset(engineTransport{eng})
	}
	for i, text := range f.texts {
		ans, err := fl.Ask(context.Background(), text)
		if err != nil || ans.Degraded || ans.Result != ref[i] {
			t.Fatalf("ask %d: %+v, %v; want exact %+v", i, ans, err, ref[i])
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if want := len(f.texts) * fl.Partitions(); len(rec.ids) != 1 || rec.ids[goroutineID()] != want {
		t.Fatalf("replica searches ran on goroutines %v, want all %d on the asking goroutine %d", rec.ids, want, goroutineID())
	}
}

// askAllocBudget bounds the heap allocations of one healthy in-process Ask
// over 4 partitions: none. The query vector, the gather's bookkeeping, each
// partition's distance row and the reduce's sum live in pooled per-ask
// scratch, so any per-ask allocation — a fresh vector or row, a goroutine,
// channel, timer or context per dispatch — breaks it.
const askAllocBudget = 0

func TestHealthyAskAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled encoders and ask scratch at random; allocation counts are not the program's")
	}
	f := buildFixture(t, 21, 16)
	fl, err := New(f.mem, f.newEnc, Config{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := fl.Ask(ctx, f.texts[i%len(f.texts)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%v allocs per Ask", allocs)
	if allocs > askAllocBudget {
		t.Fatalf("healthy in-process Ask makes %v allocations, budget %d", allocs, askAllocBudget)
	}
}

// stallOnce is a replica transport whose first dispatch stalls until
// released, long past the ask's deadline, and then reports the query vector
// as it reads it by then. Every later dispatch passes straight through;
// like any transport but a bare engine, it resolves asynchronously.
type stallOnce struct {
	ReplicaTransport
	stalled atomic.Bool
	entered chan *hv.Vector // the stalled dispatch's query at dispatch
	release chan struct{}
	late    chan *hv.Vector // the same query read after release
}

func (t *stallOnce) Ask(ctx context.Context, q Query) (Partial, error) {
	if t.stalled.CompareAndSwap(false, true) {
		t.entered <- q.Vec.Clone()
		<-t.release
		t.late <- q.Vec.Clone()
	}
	return t.ReplicaTransport.Ask(ctx, q)
}

// TestAbandonedDispatchKeepsItsQuery: a dispatch abandoned at its deadline
// still reads its own query's words after Ask has returned and other asks
// have run on the same fleet, so an ask that went asynchronous never hands
// its query vector to a later ask. Replicas 0 and 4 hold partition 0;
// replica 0 stalls the first ask, which retries onto replica 4 and returns,
// and later asks rotated onto replica 4 run wholly inline — the ones that
// reuse pooled scratch.
func TestAbandonedDispatchKeepsItsQuery(t *testing.T) {
	f := buildFixture(t, 6, 16)
	ref := reference(f, f.mem)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 5, Partitions: 4, Seed: testSeed, Deadline: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	st := &stallOnce{
		ReplicaTransport: fl.replicas[0].transport(),
		entered:          make(chan *hv.Vector, 1),
		release:          make(chan struct{}),
		late:             make(chan *hv.Vector, 1),
	}
	fl.replicas[0].reset(st)
	defer func() {
		select {
		case <-st.release:
		default:
			close(st.release) // a failed test still ends the stall
		}
	}()
	ask := func(i int) {
		ans, err := fl.Ask(context.Background(), f.texts[i])
		if err != nil || ans.Degraded || ans.Result != ref[i] {
			t.Errorf("ask of text %d: %+v, %v; want exact %+v", i, ans, err, ref[i])
		}
	}
	ask(0) // seq 0 rotates onto replica 0 first: stalled, abandoned, retried
	q0 := <-st.entered
	if want, _ := f.newEnc().EncodeText(f.texts[0], testSeed); !q0.Equal(want) {
		t.Fatal("the stalled dispatch was not sent text 0's query")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i < len(f.texts); i++ {
				ask(i)
			}
		}()
	}
	for i := 1; i < len(f.texts); i++ {
		ask(i)
	}
	wg.Wait()
	close(st.release)
	if late := <-st.late; !late.Equal(q0) {
		t.Fatal("an abandoned dispatch's query vector was overwritten by a later ask")
	}
}

var sinkAnswer Answer

// BenchmarkFleetAsk is one healthy in-process Ask on the paper's language
// workload shape: D=10,000, 21 classes, ~150-character sentences, the
// default 4 replicas over 4 ByWords partitions.
func BenchmarkFleetAsk(b *testing.B) {
	f := buildFixtureAt(b, 10_000, 21, 64, 150)
	fl, err := New(f.mem, f.newEnc, Config{Seed: testSeed})
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := fl.Ask(ctx, f.texts[i%len(f.texts)])
		if err != nil {
			b.Fatal(err)
		}
		sinkAnswer = ans
	}
}
