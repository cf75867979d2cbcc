package netserve

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/fleet"
	"hdam/internal/hv"
	"hdam/internal/serve"
)

// stallPeer dials a raw connection that pipelines one-text query frames
// and never reads an answer, and returns the server's side of it once the
// connection is stalled: the writer is stuck on the full socket and the
// pending buffer has passed maxPending, so the reader stopped taking
// frames.
func stallPeer(t *testing.T, s *Server, text string) *srvConn {
	t.Helper()
	nc, err := net.Dial("tcp", s.BinaryAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	var werr atomic.Value
	go func() {
		var buf []byte
		for id := uint64(1); ; id += 64 {
			buf = buf[:0]
			for k := uint64(0); k < 64; k++ {
				buf, _ = AppendQueryFrame(buf, id+k, 0, []string{text})
			}
			if _, err := nc.Write(buf); err != nil {
				werr.Store(err)
				return // closed by the test or the server
			}
		}
	}()
	var c *srvConn
	for deadline := time.Now().Add(30 * time.Second); c == nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("connection never reached the server")
		}
		s.mu.Lock()
		for sc := range s.conns {
			if sc.nc.RemoteAddr().String() == nc.LocalAddr().String() {
				c = sc
			}
		}
		s.mu.Unlock()
	}
	// A writer still draining into the kernel's send buffer takes the
	// pending bytes at each wake-up; a stuck one leaves them unchanged.
	last, same := -1, 0
	for deadline := time.Now().Add(30 * time.Second); same < 5; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			c.wmu.Lock()
			closed := c.closed
			c.wmu.Unlock()
			t.Fatalf("peer never stalled: %d pending bytes, writer closed %v, peer write error %v", last, closed, werr.Load())
		}
		if n := c.pendingBytes(); n > maxPending && n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
	return c
}

// pendingBytes reads how much a connection holds for its writer.
func (c *srvConn) pendingBytes() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return len(c.pending)
}

// askWithin is Client.Ask bounded by a test timeout.
func askWithin(t *testing.T, c *Client, texts []string, d time.Duration) []WireAnswer {
	t.Helper()
	ch, err := c.Go(texts, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-ch:
		if b.Err != nil {
			t.Fatal(b.Err)
		}
		return b.Answers
	case <-time.After(d):
		t.Fatalf("frame %q not answered within %s", texts, d)
		return nil
	}
}

// longLabelMemory is a small memory whose labels are as long as the wire
// allows, so answer frames fill socket buffers quickly.
func longLabelMemory(t *testing.T, classes int) *core.Memory {
	t.Helper()
	rng := rand.New(rand.NewPCG(testSeed, 0x1abe1))
	cs := make([]*hv.Vector, classes)
	ls := make([]string, classes)
	for i := range cs {
		cs[i] = hv.Random(testDim, rng)
		ls[i] = strings.Repeat(string(rune('a'+i)), MaxLabelLen)
	}
	mem, err := core.NewMemory(cs, ls)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// TestStalledPeerDoesNotBlockWorker stalls one connection whose peer never
// reads, behind a one-worker engine. The worker delivers into the stalled
// connection's pending buffer without waiting, so a second connection's
// frames are still answered bit-identically, and what the stalled
// connection holds stays bounded by the reader's limit plus its in-flight
// cap.
func TestStalledPeerDoesNotBlockWorker(t *testing.T) {
	_, newEnc, texts := buildFixture(t, 8, 32)
	mem := longLabelMemory(t, 8)
	eng, err := serve.New(mem, assoc.NewExact(mem), newEnc, serve.Config{Workers: 1, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 8
	s := startServer(t, EngineBackend(eng), Config{MaxInflight: inflight})
	stalled := stallPeer(t, s, texts[0])

	// The largest one-text answer frame: header, count, and an OK answer
	// with a MaxLabelLen label.
	frame := lenSize + headerSize + 2 + 1 + 4 + 4 + 4 + 8 + 1 + MaxLabelLen
	bound := maxPending + (inflight+1)*frame
	if n := stalled.pendingBytes(); n > bound {
		t.Fatalf("stalled connection holds %d pending bytes, bound %d", n, bound)
	}

	healthy := dialT(t, s)
	enc := newEnc()
	searcher := assoc.NewExact(mem)
	for i, text := range texts {
		a := askWithin(t, healthy, []string{text}, 5*time.Second)[0]
		q, n := enc.EncodeText(text, testSeed)
		want := searcher.Search(q)
		if a.Status != StatusOK || int(a.Index) != want.Index || int(a.Distance) != want.Distance ||
			int(a.NGrams) != n || a.Label != mem.Label(want.Index) {
			t.Fatalf("text %d beside a stalled peer: %+v, want %+v", i, a, want)
		}
	}
	if n := stalled.pendingBytes(); n > bound {
		t.Fatalf("stalled connection grew to %d pending bytes, bound %d", n, bound)
	}
}

// TestDrainStalledPeer drains a server while one peer has stopped reading
// and another holds a frame in flight. The drain announcement never waits
// on the stalled socket, so Drain returns within its deadline (hard-closing
// the stalled connection), and the healthy connection's held frame is
// answered drained after the announcement.
func TestDrainStalledPeer(t *testing.T) {
	b := newStub(func(text string) bool { return text == "parked" })
	b.label = strings.Repeat("x", MaxLabelLen)
	s := startServer(t, b, Config{MaxInflight: 8, WriteTimeout: 30 * time.Second})
	healthy := dialT(t, s)
	if a := askWithin(t, healthy, []string{"fast"}, 5*time.Second)[0]; a.Status != StatusOK {
		t.Fatalf("healthy frame: %+v", a)
	}
	held, err := healthy.Go([]string{"parked"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.accepted.Load() == 2 })
	stallPeer(t, s, "fast")
	if a := askWithin(t, healthy, []string{"fast"}, 5*time.Second)[0]; a.Status != StatusOK {
		t.Fatalf("healthy frame beside a stalled peer: %+v", a)
	}

	const budget = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	err = s.Drain(ctx)
	took := time.Since(start)
	if took > budget+time.Second {
		t.Fatalf("Drain took %s with a %s deadline (err %v)", took, budget, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v after %s, want the deadline: the stalled peer cannot flush", err, took)
	}
	select {
	case hb := <-held:
		if hb.Err != nil || hb.Answers[0].Status != StatusDrained {
			t.Fatalf("held frame: %+v", hb)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held frame never answered")
	}
	if !healthy.Draining() {
		t.Fatal("healthy connection never saw the drain announcement")
	}
}

// TestFleetAskersReused sends sequential frames through the fleet backend:
// askers park and take the next ask, so the whole run starts only a few,
// and Close lets every one exit.
func TestFleetAskersReused(t *testing.T) {
	baseline := runtime.NumGoroutine()
	mem, newEnc, texts := buildFixture(t, 8, 16)
	fl, err := fleet.New(mem, newEnc, fleet.Config{Replicas: 2, Seed: testSeed, Deadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fb := FleetBackend(fl).(*fleetBackend)
	s, err := New(fb, Config{BinaryAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.BinaryAddr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 200
	for i := 0; i < frames; i++ {
		a := askWithin(t, c, []string{texts[i%len(texts)]}, 5*time.Second)[0]
		if a.Status != StatusOK {
			t.Fatalf("frame %d: %+v", i, a)
		}
	}
	if n := fb.started.Load(); n > 4 {
		t.Fatalf("%d sequential frames started %d askers, want at most 4", frames, n)
	}
	c.Close()
	s.Close()
	if err := fb.GoFunc(context.Background(), texts[0], func(serve.Response) {}); err != fleet.ErrClosed {
		t.Fatalf("ask after Close: %v, want fleet.ErrClosed", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}
