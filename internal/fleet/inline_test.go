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
	"testing"

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
// over 4 partitions: the encoded query, each partition's reported distance
// row, the gather's bookkeeping and the reduce. A goroutine, channel,
// timer or context per dispatch would each break it (the dispatch path it
// replaced made 85; this one makes 12).
const askAllocBudget = 16

func TestHealthyAskAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled encoders at random; allocation counts are not the program's")
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
