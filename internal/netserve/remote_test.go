package netserve

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/fleet"
	"hdam/internal/hv"
	"hdam/internal/serve"
)

// startReplica builds the encoder-less replica engine for partition p of n
// of mem: the in-test stand-in for one hamserve -replica process, whose
// -seed is passed as seed (and must not matter).
func startReplica(t *testing.T, mem *core.Memory, sc fleet.Scheme, p, n int, seed uint64) *fleet.ReplicaEngine {
	t.Helper()
	rep, err := fleet.NewReplicaEngine(mem, sc, p, n, serve.Config{Workers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// startPartialServer serves partition p of n of mem over the binary
// protocol.
func startPartialServer(t *testing.T, mem *core.Memory, sc fleet.Scheme, p, n int) *Server {
	t.Helper()
	return startServer(t, ReplicaBackend(startReplica(t, mem, sc, p, n, testSeed)), Config{})
}

// encodeQuery is the coordinator's encode of text as a whole-vector query
// (partition 0 of 1): what a single-partition replica scores.
func encodeQuery(t *testing.T, enc *encoder.Encoder, text string, seed uint64) fleet.Query {
	t.Helper()
	q, n := enc.EncodeText(text, seed)
	if n == 0 {
		t.Fatal("fixture text encodes to zero n-grams")
	}
	return fleet.Query{Vec: q, NGrams: n, Hi: len(q.Words())}
}

// remoteT starts a RemoteTransport with test-fast timing, captures every
// connection it dials (so tests can kill them), and registers cleanup.
type remoteT struct {
	*RemoteTransport
	mu    sync.Mutex
	conns []net.Conn
}

func dialRemote(t *testing.T, addr string, link uint64) *remoteT {
	t.Helper()
	rt := &remoteT{}
	rt.RemoteTransport = NewRemoteTransport(RemoteConfig{
		Addr:         addr,
		PingInterval: 20 * time.Millisecond,
		PingTimeout:  500 * time.Millisecond,
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		Seed:         testSeed,
		Link:         link,
		Dial: func(a string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", a, timeout)
			if err != nil {
				return nil, err
			}
			rt.mu.Lock()
			rt.conns = append(rt.conns, nc)
			rt.mu.Unlock()
			return nc, nil
		},
	})
	t.Cleanup(func() { rt.Close() })
	return rt
}

// killConn closes the transport's newest connection out from under it.
func (rt *remoteT) killConn(t *testing.T) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.conns) == 0 {
		t.Fatal("no connection to kill")
	}
	rt.conns[len(rt.conns)-1].Close()
}

func waitConnected(t *testing.T, tr *remoteT) {
	t.Helper()
	waitFor(t, func() bool { return tr.Connected() })
}

// partialStub is a scriptable PartialBackend: with hold set every query
// parks until release, otherwise it answers a fixed in-range partial
// immediately.
type partialStub struct {
	hold     bool
	release  chan struct{}
	once     sync.Once
	accepted atomic.Int64
	ds       []int
}

func newPartialStub(ds []int, hold bool) *partialStub {
	return &partialStub{hold: hold, release: make(chan struct{}), ds: ds}
}

func (b *partialStub) GoPartial(ctx context.Context, _ WireQuery) (<-chan serve.Response, error) {
	return b.Go(ctx, "")
}

func (b *partialStub) Go(ctx context.Context, _ string) (<-chan serve.Response, error) {
	b.accepted.Add(1)
	ch := make(chan serve.Response, 1)
	resp := serve.Response{Distances: b.ds, Gen: 1, NGrams: 3}
	if !b.hold {
		ch <- resp
		return ch, nil
	}
	go func() {
		select {
		case <-ctx.Done():
			ch <- serve.Response{Err: ctx.Err()}
		case <-b.release:
			ch <- resp
		}
	}()
	return ch, nil
}

func (b *partialStub) Drain(ctx context.Context) (uint64, error) {
	b.once.Do(func() { close(b.release) })
	return 0, nil
}
func (b *partialStub) Close()     { b.Drain(context.Background()) }
func (b *partialStub) Stats() any { return nil }

// TestRemoteTransportRedial is the reconnect state machine end to end: a
// connected transport answers bit-identically to the serial reference;
// killing the connection mid-batch fails the pending ask with
// fleet.ErrTransport (never silently loses it); the manager redials and
// counts exactly one reconnect per kill; answers after healing are again
// bit-identical; and teardown leaks no goroutines.
func TestRemoteTransportRedial(t *testing.T) {
	baseline := runtime.NumGoroutine()

	mem, newEnc, texts := buildFixture(t, 8, 8)
	s := startPartialServer(t, mem, fleet.ByWords, 0, 1)
	tr := dialRemote(t, s.BinaryAddr().String(), 0)
	waitConnected(t, tr)

	enc := newEnc()
	searcher := assoc.NewExact(mem)
	askAndCheck := func(text string) {
		t.Helper()
		q := encodeQuery(t, enc, text, testSeed)
		p, err := tr.Ask(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := searcher.ObservedDistances(nil, q.Vec)
		if p.Gen != 1 || len(p.Distances) != len(want) {
			t.Fatalf("partial meta %+v, want gen 1, %d rows", p, len(want))
		}
		for i := range want {
			if p.Distances[i] != want[i] {
				t.Fatalf("row %d: remote partial %d, serial %d", i, p.Distances[i], want[i])
			}
		}
	}
	askAndCheck(texts[0])

	// Kill the connection with an ask parked on it: the pending ask must
	// fail typed (ready for the coordinator's mirror failover), not hang.
	const kills = 3
	for k := 1; k <= kills; k++ {
		tr.killConn(t)
		waitFor(t, func() bool { return tr.Reconnects() == uint64(k) })
		waitConnected(t, tr)
		askAndCheck(texts[k%len(texts)])
	}
	if got := tr.Reconnects(); got != kills {
		t.Fatalf("Reconnects = %d, want %d (one per injected kill)", got, kills)
	}

	tr.Close()
	s.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestRemoteTransportPendingFailsTyped parks an ask on a stub replica,
// kills the connection underneath it, and requires the pending ask to
// surface fleet.ErrTransport promptly — the contract the coordinator's
// failover path consumes.
func TestRemoteTransportPendingFailsTyped(t *testing.T) {
	b := newPartialStub([]int{1, 2, 3}, true)
	s := startServer(t, b, Config{})
	tr := dialRemote(t, s.BinaryAddr().String(), 1)
	waitConnected(t, tr)

	q := fleet.Query{Vec: hv.New(128), NGrams: 1, Hi: 2}
	errc := make(chan error, 1)
	go func() {
		_, err := tr.Ask(context.Background(), q)
		errc <- err
	}()
	waitFor(t, func() bool { return b.accepted.Load() == 1 })
	tr.killConn(t)
	select {
	case err := <-errc:
		if !errors.Is(err, fleet.ErrTransport) {
			t.Fatalf("pending ask after conn kill: %v, want fleet.ErrTransport", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending ask hung after its connection died")
	}
	// Disconnected asks fail fast without touching the wire.
	start := time.Now()
	waitConnected(t, tr) // healed; now close the server so it goes dark
	s.Close()
	waitFor(t, func() bool { return !tr.Connected() })
	if _, err := tr.Ask(context.Background(), q); !errors.Is(err, fleet.ErrTransport) {
		t.Fatalf("disconnected ask: %v, want fleet.ErrTransport", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("disconnected ask took %s, want fail-fast", el)
	}
}

// remoteFleet builds a remote fleet over per-partition servers, returning
// the fleet and its transports.
func remoteFleet(t *testing.T, mem *core.Memory, newEnc func() *encoder.Encoder, parts int, servers []*Server, cfg fleet.Config) (*fleet.Fleet, []*remoteT) {
	t.Helper()
	trs := make([]fleet.ReplicaTransport, len(servers))
	rts := make([]*remoteT, len(servers))
	for i, s := range servers {
		rt := dialRemote(t, s.BinaryAddr().String(), uint64(i))
		waitConnected(t, rt)
		trs[i], rts[i] = rt, rt
	}
	cfg.Partitions = parts
	fl, err := fleet.NewRemote(mem, newEnc, trs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl, rts
}

// TestRemoteFleetBitIdentical scatters over two remote partition servers
// under both schemes and checks every healthy answer against the
// single-threaded serial reference: same index, distance, label, n-grams,
// full coverage. The wire — which carries only each partition's query
// words — may not perturb the reduce.
func TestRemoteFleetBitIdentical(t *testing.T) {
	for _, sc := range []fleet.Scheme{fleet.ByWords, fleet.ByClasses} {
		t.Run(sc.String(), func(t *testing.T) {
			mem, newEnc, texts := buildFixture(t, 8, 32)
			servers := []*Server{
				startPartialServer(t, mem, sc, 0, 2),
				startPartialServer(t, mem, sc, 1, 2),
			}
			fl, _ := remoteFleet(t, mem, newEnc, 2, servers, fleet.Config{
				Scheme: sc, Seed: testSeed, Deadline: 2 * time.Second,
			})
			checkSerial(t, fl, mem, newEnc(), texts, testSeed)
			st := fl.Stats()
			if st.Erasures != 0 || st.RemoteErrors != 0 || st.Failovers != 0 {
				t.Fatalf("healthy run counted faults: %+v", st)
			}
			for _, rs := range fl.ReplicaStats() {
				if !rs.Remote || !rs.Connected {
					t.Fatalf("replica %d: Remote=%v Connected=%v, want remote and connected", rs.ID, rs.Remote, rs.Connected)
				}
			}
		})
	}
}

// checkSerial asks the fleet every text and requires each answer to be
// bit-identical to ClassMatrix.Nearest over the query enc encodes with
// seed, with full coverage and the encode's n-gram count.
func checkSerial(t *testing.T, fl *fleet.Fleet, mem *core.Memory, enc *encoder.Encoder, texts []string, seed uint64) {
	t.Helper()
	for i, text := range texts {
		ans, err := fl.Ask(context.Background(), text)
		q, n := enc.EncodeText(text, seed)
		if n == 0 {
			if !errors.Is(err, serve.ErrNoNGrams) {
				t.Fatalf("text %d: err %v, want ErrNoNGrams", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("text %d: %v", i, err)
		}
		idx, dist := mem.ClassMatrix().Nearest(q)
		want := core.Result{Index: idx, Distance: dist}
		if ans.Result != want || ans.Label != mem.Label(want.Index) || ans.NGrams != n ||
			ans.Gen != 1 || ans.Degraded || ans.Coverage != 1 {
			t.Fatalf("text %d: remote answer %+v, want %+v label %q (%d ngrams)",
				i, ans, want, mem.Label(want.Index), n)
		}
	}
}

// TestRemoteFleetSeedMismatchBitIdentical runs each replica with its own
// -seed, none equal to the coordinator's. Replicas never encode, so the
// answers stay bit-identical to the serial scan at the coordinator's seed —
// and the fixture is checked to be seed-sensitive (even n-gram counts tie
// some bits), so a replica-side encode would have shown.
func TestRemoteFleetSeedMismatchBitIdentical(t *testing.T) {
	const coordSeed = 7
	for _, sc := range []fleet.Scheme{fleet.ByWords, fleet.ByClasses} {
		t.Run(sc.String(), func(t *testing.T) {
			mem, newEnc, texts := buildFixture(t, 8, 32)
			servers := []*Server{
				startServer(t, ReplicaBackend(startReplica(t, mem, sc, 0, 2, 11)), Config{}),
				startServer(t, ReplicaBackend(startReplica(t, mem, sc, 1, 2, 12)), Config{}),
			}
			fl, _ := remoteFleet(t, mem, newEnc, 2, servers, fleet.Config{
				Scheme: sc, Seed: coordSeed, Deadline: 2 * time.Second,
			})
			enc := newEnc()
			sensitive := false
			for _, text := range texts {
				a, _ := enc.EncodeText(text, coordSeed)
				b, _ := enc.EncodeText(text, 11)
				sensitive = sensitive || !a.Equal(b)
			}
			if !sensitive {
				t.Fatal("fixture encodes identically under every seed; the test cannot see a seed mismatch")
			}
			checkSerial(t, fl, mem, enc, texts, coordSeed)
		})
	}
}

// TestReplicaRangeMismatch: a replica started for another partition (the
// wrong -partition, -partitions or -scheme) refuses a query range that is
// not its own with a typed failure instead of scoring the wrong words, and
// a fleet wired to such replicas refuses to answer rather than answer
// wrong.
func TestReplicaRangeMismatch(t *testing.T) {
	mem, newEnc, texts := buildFixture(t, 8, 4)
	q := encodeQuery(t, newEnc(), texts[0], testSeed)
	q.Hi = len(q.Vec.Words()) / 2 // partition 0 of 2, by words
	for _, c := range []struct {
		name  string
		sc    fleet.Scheme
		p, n  int
		query fleet.Query
	}{
		{"wrong-partition", fleet.ByWords, 1, 2, q},
		{"wrong-count", fleet.ByWords, 0, 4, q},
		{"wrong-scheme", fleet.ByClasses, 0, 2, q},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := startPartialServer(t, mem, c.sc, c.p, c.n)
			tr := dialRemote(t, s.BinaryAddr().String(), 0)
			waitConnected(t, tr)
			if _, err := tr.Ask(context.Background(), c.query); !errors.Is(err, fleet.ErrQueryRange) || errors.Is(err, fleet.ErrTransport) {
				t.Fatalf("mismatched range: err = %v, want fleet.ErrQueryRange from the replica", err)
			}
		})
	}
	// Both replicas of a two-partition fleet started with swapped
	// -partition flags: every partition is refused, so no answer is given.
	servers := []*Server{
		startPartialServer(t, mem, fleet.ByWords, 1, 2),
		startPartialServer(t, mem, fleet.ByWords, 0, 2),
	}
	fl, _ := remoteFleet(t, mem, newEnc, 2, servers, fleet.Config{
		Scheme: fleet.ByWords, Seed: testSeed, Deadline: time.Second, Retries: -1,
	})
	if ans, err := fl.Ask(context.Background(), texts[0]); !errors.Is(err, fleet.ErrNoCoverage) || !errors.Is(err, fleet.ErrQueryRange) {
		t.Fatalf("swapped partitions: answer %+v, err %v; want ErrNoCoverage from range refusals", ans, err)
	}
}

// TestRemoteFleetDegradedCertificate kills one of two partitions' only
// server and requires every answer to keep coming — degraded, coverage
// under 1, bit-identical to the surviving partition's d-sampled argmin,
// with the widened-margin certificate attached.
func TestRemoteFleetDegradedCertificate(t *testing.T) {
	mem, newEnc, texts := buildFixture(t, 8, 16)
	servers := []*Server{
		startPartialServer(t, mem, fleet.ByWords, 0, 2),
		startPartialServer(t, mem, fleet.ByWords, 1, 2),
	}
	fl, rts := remoteFleet(t, mem, newEnc, 2, servers, fleet.Config{
		Scheme: fleet.ByWords, Seed: testSeed,
		Deadline: time.Second, Retries: 1, Backoff: time.Millisecond,
	})

	servers[1].Close() // partition 1 goes dark for good
	waitFor(t, func() bool { return !rts[1].Connected() })

	_, ps, err := fleet.PartitionModel(mem, fleet.ByWords, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc := newEnc()
	answered := 0
	for i, text := range texts {
		ans, err := fl.Ask(context.Background(), text)
		q, n := enc.EncodeText(text, testSeed)
		if n == 0 {
			continue
		}
		if err != nil {
			t.Fatalf("text %d: degraded fleet refused to answer: %v", i, err)
		}
		answered++
		want := ps.Search(q) // the surviving partition's d-sampled argmin
		if ans.Result != want {
			t.Fatalf("text %d: degraded answer %+v, want surviving-partition %+v", i, ans.Result, want)
		}
		if !ans.Degraded || ans.Erasures != 1 || ans.Coverage >= 1 || ans.Coverage <= 0 ||
			ans.CoveredBits >= testDim {
			t.Fatalf("text %d: degraded metadata %+v", i, ans)
		}
		if ans.WidenedMargin > ans.Margin {
			t.Fatalf("text %d: widened margin %d exceeds margin %d", i, ans.WidenedMargin, ans.Margin)
		}
		if ans.Confident != (ans.WidenedMargin > 0) {
			t.Fatalf("text %d: Confident=%v with widened margin %d", i, ans.Confident, ans.WidenedMargin)
		}
	}
	if answered == 0 {
		t.Fatal("no fixture text encoded")
	}
	// The dead partition is skipped at pick time (its transport reports
	// disconnected), so erasures are counted without a single doomed
	// dispatch reaching the transport layer.
	st := fl.Stats()
	if st.Erasures == 0 || st.Degraded == 0 {
		t.Fatalf("degraded run stats %+v: want erasures and degraded counted", st)
	}
}

// TestRemoteFleetFailover parks a request on one mirror of a partition,
// kills that mirror's connection, and requires the request to be rescued
// by the other mirror within the same ask — answered bit-identically, with
// the failover counted.
func TestRemoteFleetFailover(t *testing.T) {
	mem, newEnc, texts := buildFixture(t, 8, 4)
	// Mirror 0: a stub that parks everything. Mirror 1: a real partition
	// server. Both hold partition 0 of 1 (the full model).
	stub := newPartialStub(make([]int, mem.Classes()), true)
	s0 := startServer(t, stub, Config{})
	s1 := startPartialServer(t, mem, fleet.ByWords, 0, 1)
	fl, rts := remoteFleet(t, mem, newEnc, 1, []*Server{s0, s1}, fleet.Config{
		Scheme: fleet.ByWords, Seed: testSeed,
		Deadline: 5 * time.Second, Retries: 2, Backoff: time.Millisecond,
	})

	// The first ask (seq 0) picks holder 0 — the parked stub.
	done := make(chan fleet.Answer, 1)
	go func() {
		ans, err := fl.Ask(context.Background(), texts[0])
		if err != nil {
			t.Errorf("failover ask: %v", err)
		}
		done <- ans
	}()
	waitFor(t, func() bool { return stub.accepted.Load() >= 1 })
	rts[0].killConn(t)

	select {
	case ans := <-done:
		enc := newEnc()
		q, n := enc.EncodeText(texts[0], testSeed)
		if n == 0 {
			t.Fatal("fixture text encodes to zero n-grams")
		}
		want := assoc.NewExact(mem).Search(q)
		if ans.Result != want || ans.Degraded {
			t.Fatalf("failover answer %+v, want healthy %+v", ans, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ask never failed over to the surviving mirror")
	}
	st := fl.Stats()
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1 (the rescued ask)", st.Failovers)
	}
	if st.RemoteErrors == 0 {
		t.Fatalf("RemoteErrors = 0, want the dead mirror's failure counted")
	}
	if st.Reconnects == 0 {
		waitFor(t, func() bool { return fl.Stats().Reconnects >= 1 })
	}
}

// TestRemoteFleetGenFilter swaps one of two remote replicas to generation
// 2 (its process rolling its own snapshot) and requires the gather to
// never mix generations: the answer comes from one generation's partials
// only, with the dropped group counted.
func TestRemoteFleetGenFilter(t *testing.T) {
	mem, newEnc, texts := buildFixture(t, 8, 8)
	m1, s1, err := fleet.PartitionModel(mem, fleet.ByWords, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep1 := startReplica(t, mem, fleet.ByWords, 1, 2, testSeed)
	servers := []*Server{
		startPartialServer(t, mem, fleet.ByWords, 0, 2),
		startServer(t, ReplicaBackend(rep1), Config{}),
	}
	fl, _ := remoteFleet(t, mem, newEnc, 2, servers, fleet.Config{
		Scheme: fleet.ByWords, Seed: testSeed, Deadline: 2 * time.Second,
	})

	// Replica 1's process rolls to generation 2 on its own schedule.
	if _, err := rep1.Swap(m1, s1, nil); err != nil {
		t.Fatal(err)
	}
	answered := false
	for i, text := range texts {
		ans, err := fl.Ask(context.Background(), text)
		if err != nil {
			if errors.Is(err, serve.ErrNoNGrams) {
				continue
			}
			t.Fatalf("text %d: %v", i, err)
		}
		// Partition 0 covers 512 of 1000 bits, partition 1 the other 488, so
		// the best-covered group is partition 0's at gen 1: the gen-2 partial
		// is dropped and the answer never mixes the two.
		if ans.Gen != 1 {
			t.Fatalf("text %d: answer claims gen %d, want the best-covered gen 1", i, ans.Gen)
		}
		if !ans.Degraded || ans.Erasures != 1 {
			t.Fatalf("text %d: gen-filtered answer not marked degraded: %+v", i, ans)
		}
		answered = true
	}
	if !answered {
		t.Fatal("no fixture text encoded")
	}
	if st := fl.Stats(); st.GenDropped == 0 {
		t.Fatalf("GenDropped = 0, want stale partials counted: %+v", st)
	}
}

// TestRemoteFleetSwapRefused: an all-remote fleet cannot roll generations
// from the coordinator — replica processes own their snapshots.
func TestRemoteFleetSwapRefused(t *testing.T) {
	mem, newEnc, _ := buildFixture(t, 8, 1)
	s := startPartialServer(t, mem, fleet.ByWords, 0, 1)
	fl, _ := remoteFleet(t, mem, newEnc, 1, []*Server{s}, fleet.Config{Seed: testSeed})
	if _, err := fl.Swap(mem); err == nil {
		t.Fatal("Swap succeeded on an all-remote fleet")
	}
	if err := fl.StartReplica(0); err == nil {
		t.Fatal("StartReplica succeeded on a remote replica")
	}
}
