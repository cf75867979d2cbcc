package netserve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/fleet"
	"hdam/internal/hv"
	"hdam/internal/itemmem"
	"hdam/internal/serve"
	"hdam/internal/textgen"
)

const (
	testDim  = 1000
	testSeed = 2017
)

// buildFixture mirrors the engine test fixture: a small memory, an encoder
// factory, and deterministic texts.
func buildFixture(t testing.TB, classes, texts int) (*core.Memory, func() *encoder.Encoder, []string) {
	t.Helper()
	rng := rand.New(rand.NewPCG(testSeed, 0xf157))
	cs := make([]*hv.Vector, classes)
	ls := make([]string, classes)
	for i := range cs {
		cs[i] = hv.Random(testDim, rng)
		ls[i] = string(rune('a' + i))
	}
	mem, err := core.NewMemory(cs, ls)
	if err != nil {
		t.Fatal(err)
	}
	cfg := textgen.DefaultConfig()
	cfg.Seed = testSeed
	langs := textgen.Catalog(cfg)
	ts := make([]string, texts)
	for i := range ts {
		ts[i] = langs[i%len(langs)].GenerateSentence(60, rng)
	}
	newEnc := func() *encoder.Encoder {
		im := itemmem.New(testDim, testSeed)
		im.Preload(itemmem.LatinAlphabet)
		return encoder.New(im, 3)
	}
	return mem, newEnc, ts
}

// stubBackend is a scriptable backend: texts matched by hold are parked
// until release closes (or the request's ctx/drain fails them), everything
// else answers immediately. It keeps server tests deterministic where the
// real engine's timing is not.
type stubBackend struct {
	hold     func(text string) bool
	label    string // the label of every classification
	release  chan struct{}
	drainCh  chan struct{}
	once     sync.Once
	inflight sync.WaitGroup
	accepted atomic.Int64
}

func newStub(hold func(string) bool) *stubBackend {
	if hold == nil {
		hold = func(string) bool { return false }
	}
	return &stubBackend{hold: hold, label: "stub", release: make(chan struct{}), drainCh: make(chan struct{})}
}

func (b *stubBackend) answer(text string) serve.Response {
	return serve.Response{Result: core.Result{Index: 0, Distance: 1}, Label: b.label, NGrams: len(text), Gen: 1}
}

func (b *stubBackend) Go(ctx context.Context, text string) (<-chan serve.Response, error) {
	b.accepted.Add(1)
	ch := make(chan serve.Response, 1)
	if !b.hold(text) {
		ch <- b.answer(text)
		return ch, nil
	}
	b.inflight.Add(1)
	go func() {
		defer b.inflight.Done()
		select {
		case <-ctx.Done():
			ch <- serve.Response{Err: ctx.Err()}
		case <-b.drainCh:
			ch <- serve.Response{Err: serve.ErrDrained}
		case <-b.release:
			ch <- b.answer(text)
		}
	}()
	return ch, nil
}

func (b *stubBackend) Drain(ctx context.Context) (uint64, error) {
	b.once.Do(func() { close(b.drainCh) })
	b.inflight.Wait()
	return 0, nil
}

func (b *stubBackend) Close()     { b.Drain(context.Background()) }
func (b *stubBackend) Stats() any { return map[string]int64{"accepted": b.accepted.Load()} }

// startServer boots a server on ephemeral loopback ports and registers
// cleanup.
func startServer(t *testing.T, b Backend, cfg Config) *Server {
	t.Helper()
	if cfg.BinaryAddr == "" && cfg.HTTPAddr == "" {
		cfg.BinaryAddr = "127.0.0.1:0"
	}
	s, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func dialT(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.BinaryAddr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBinaryBitIdentical serves a real engine over the socket and checks
// every wire answer against the single-threaded serial reference: same
// index, distance, n-gram count, label, generation. This is the
// transparency criterion — the protocol may not perturb results.
func TestBinaryBitIdentical(t *testing.T) {
	mem, newEnc, texts := buildFixture(t, 8, 64)
	eng, err := serve.New(mem, assoc.NewExact(mem), newEnc, serve.Config{Workers: 1, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, EngineBackend(eng), mem, newEnc, texts)
}

// goOnly hides every optional capability of the backend it wraps, as a
// decorator that forwards only Go does.
type goOnly struct{ Backend }

// TestGoOnlyBackendBitIdentical serves the engine through a backend with
// Go only, which the server adapts with one goroutine per text waiting on
// the response channel: its wire answers are bit-identical too.
func TestGoOnlyBackendBitIdentical(t *testing.T) {
	mem, newEnc, texts := buildFixture(t, 8, 64)
	eng, err := serve.New(mem, assoc.NewExact(mem), newEnc, serve.Config{Workers: 1, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	var b Backend = goOnly{EngineBackend(eng)}
	if _, ok := b.(FuncBackend); ok {
		t.Fatal("wrapper still exposes the completion-func path")
	}
	checkBitIdentical(t, b, mem, newEnc, texts)
}

// checkBitIdentical serves b and checks one-text and batched frames
// against the serial reference.
func checkBitIdentical(t *testing.T, b Backend, mem *core.Memory, newEnc func() *encoder.Encoder, texts []string) {
	t.Helper()
	s := startServer(t, b, Config{})
	c := dialT(t, s)

	enc := newEnc()
	searcher := assoc.NewExact(mem)
	for i, text := range texts {
		got, err := c.Ask([]string{text}, 0)
		if err != nil {
			t.Fatalf("text %d: %v", i, err)
		}
		q, n := enc.EncodeText(text, testSeed)
		if n == 0 {
			if got[0].Status != StatusNoNGrams {
				t.Fatalf("text %d: status %d, want no-ngrams", i, got[0].Status)
			}
			continue
		}
		want := searcher.Search(q)
		a := got[0]
		if a.Status != StatusOK || int(a.Index) != want.Index || int(a.Distance) != want.Distance ||
			int(a.NGrams) != n || a.Label != mem.Label(want.Index) || a.Gen != 1 {
			t.Fatalf("text %d: wire answer %+v, want %+v (ngrams %d, label %s)",
				i, a, want, n, mem.Label(want.Index))
		}
		if e := AnswerError(a); e != nil {
			t.Fatalf("text %d: AnswerError = %v", i, e)
		}
	}

	// Batched submission answers in query order inside the frame.
	batch := texts[:16]
	got, err := c.Ask(batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range batch {
		q, n := enc.EncodeText(text, testSeed)
		want := searcher.Search(q)
		if int(got[i].Index) != want.Index || int(got[i].NGrams) != n {
			t.Fatalf("batch answer %d out of order: %+v", i, got[i])
		}
	}
}

// TestStreamingOutOfOrder pipelines a slow frame then a fast frame on one
// connection and requires the fast answer to overtake: responses are
// matched by frame id, not arrival order.
func TestStreamingOutOfOrder(t *testing.T) {
	b := newStub(func(text string) bool { return text == "slow" })
	s := startServer(t, b, Config{})
	c := dialT(t, s)

	slow, err := c.Go([]string{"slow"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := c.Go([]string{"fast"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case fb := <-fast:
		if fb.Err != nil || fb.Answers[0].Status != StatusOK {
			t.Fatalf("fast batch: %+v", fb)
		}
	case <-slow:
		t.Fatal("slow frame answered before its backend released")
	case <-time.After(5 * time.Second):
		t.Fatal("fast frame never answered while slow frame in flight")
	}
	close(b.release)
	sb := <-slow
	if sb.Err != nil || sb.Answers[0].Status != StatusOK {
		t.Fatalf("slow batch after release: %+v", sb)
	}
}

// TestPipelinedFleet floods one connection with pipelined frames from
// concurrent goroutines and verifies every frame is answered correctly.
func TestPipelinedFleet(t *testing.T) {
	b := newStub(nil)
	s := startServer(t, b, Config{})
	c := dialT(t, s)

	const frames = 200
	var wg sync.WaitGroup
	errs := make(chan error, frames)
	for i := 0; i < frames; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			texts := []string{fmt.Sprintf("q%d", i), fmt.Sprintf("r%d", i)}
			as, err := c.Ask(texts, 0)
			if err != nil {
				errs <- err
				return
			}
			for _, a := range as {
				if a.Status != StatusOK {
					errs <- fmt.Errorf("frame %d: status %d", i, a.Status)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Stats().Queries; got != 2*frames {
		t.Fatalf("server saw %d queries, want %d", got, 2*frames)
	}
}

// TestDeadlineBudget parks a request behind a 20ms budget and expects the
// deadline status back on the wire, errors.Is-matching the in-process
// error.
func TestDeadlineBudget(t *testing.T) {
	b := newStub(func(string) bool { return true })
	s := startServer(t, b, Config{})
	c := dialT(t, s)

	as, err := c.Ask([]string{"parked"}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if as[0].Status != StatusDeadline {
		t.Fatalf("status %d, want deadline", as[0].Status)
	}
	if e := AnswerError(as[0]); !errors.Is(e, context.DeadlineExceeded) {
		t.Fatalf("AnswerError = %v, want DeadlineExceeded", e)
	}
}

// TestInflightCapSheds holds the backend and pipelines past the
// per-connection frame cap: the frame over the cap must come back
// overloaded without touching the backend, and held work still completes.
func TestInflightCapSheds(t *testing.T) {
	b := newStub(func(string) bool { return true })
	s := startServer(t, b, Config{MaxInflight: 1})
	c := dialT(t, s)

	held, err := c.Go([]string{"parked"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The shed path answers synchronously in the read loop, so a reply to
	// the second frame cannot be reordered behind anything.
	shed, err := c.Ask([]string{"over cap"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shed[0].Status != StatusOverloaded {
		t.Fatalf("over-cap status %d, want overloaded", shed[0].Status)
	}
	if e := AnswerError(shed[0]); !errors.Is(e, serve.ErrOverloaded) {
		t.Fatalf("AnswerError = %v, want ErrOverloaded", e)
	}
	before := b.accepted.Load()
	if before != 1 {
		t.Fatalf("backend saw %d submissions, want only the held one", before)
	}
	close(b.release)
	hb := <-held
	if hb.Err != nil || hb.Answers[0].Status != StatusOK {
		t.Fatalf("held frame: %+v", hb)
	}
	if got := s.Stats().InflightShed; got != 1 {
		t.Fatalf("InflightShed = %d, want 1", got)
	}
}

// TestConnLimit rejects the connection over MaxConns at accept time.
func TestConnLimit(t *testing.T) {
	b := newStub(nil)
	s := startServer(t, b, Config{MaxConns: 1})
	c1 := dialT(t, s)
	if err := c1.Ping(time.Second); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(s.BinaryAddr().String(), time.Second)
	if err != nil {
		t.Fatal(err) // TCP accept succeeds; the server closes immediately after
	}
	defer c2.Close()
	if err := c2.Ping(2 * time.Second); err == nil {
		t.Fatal("ping over the connection limit succeeded")
	}
	waitFor(t, func() bool { return s.Stats().RejectedConns == 1 })
	// The admitted connection is unaffected.
	if err := c1.Ping(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedFrameDropsConn writes garbage and expects the server to
// count a protocol error and hang up, leaving other connections alone.
func TestMalformedFrameDropsConn(t *testing.T) {
	b := newStub(nil)
	s := startServer(t, b, Config{})
	good := dialT(t, s)

	nc, err := net.Dial("tcp", s.BinaryAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	raw := make([]byte, lenSize+headerSize)
	binary.LittleEndian.PutUint32(raw, headerSize)
	copy(raw[lenSize:], "XX") // bad magic
	if _, err := nc.Write(raw); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept a connection after a malformed frame")
	}
	waitFor(t, func() bool { return s.Stats().ProtoErrors == 1 })
	if err := good.Ping(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDrainUnderLoad parks frames behind a draining server and requires
// every accepted frame answered (drained status), the drain announcement
// on the wire, refused new connections, and zero leaked goroutines.
func TestDrainUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	b := newStub(func(string) bool { return true })
	s := startServer(t, b, Config{})
	c := dialT(t, s)

	const frames = 32
	batches := make([]<-chan Batch, frames)
	for i := range batches {
		ch, err := c.Go([]string{"parked", "also parked"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		batches[i] = ch
	}
	waitFor(t, func() bool { return b.accepted.Load() == 2*frames })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, ch := range batches {
		bt := <-ch
		if bt.Err != nil {
			t.Fatalf("frame %d failed instead of answering: %v", i, bt.Err)
		}
		for _, a := range bt.Answers {
			if a.Status != StatusDrained {
				t.Fatalf("frame %d: status %d, want drained", i, a.Status)
			}
			if e := AnswerError(a); !errors.Is(e, serve.ErrDrained) {
				t.Fatalf("frame %d: AnswerError = %v", i, e)
			}
		}
	}
	if !c.Draining() {
		t.Fatal("client never saw the drain announcement")
	}
	if _, err := Dial(s.BinaryAddr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after drain")
	}
	c.Close()
	s.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestHTTPEndpoints exercises /classify (single, batch, malformed),
// /statsz, and /healthz over the JSON listener against a real engine.
func TestHTTPEndpoints(t *testing.T) {
	mem, newEnc, texts := buildFixture(t, 8, 8)
	eng, err := serve.New(mem, assoc.NewExact(mem), newEnc, serve.Config{Workers: 1, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, EngineBackend(eng), Config{HTTPAddr: "127.0.0.1:0"})
	base := "http://" + s.HTTPAddr().String()

	post := func(body string) (*http.Response, error) {
		return http.Post(base+"/classify", "application/json", strings.NewReader(body))
	}
	resp, err := post(fmt.Sprintf(`{"text": %q}`, texts[0]))
	if err != nil {
		t.Fatal(err)
	}
	var single classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(single.Answers) != 1 || single.Answers[0].Err != "" || single.Answers[0].Label == "" {
		t.Fatalf("single classify: %+v", single)
	}

	// The HTTP answer must agree with the serial reference too.
	enc := newEnc()
	q, n := enc.EncodeText(texts[0], testSeed)
	want := assoc.NewExact(mem).Search(q)
	a := single.Answers[0]
	if a.Index != want.Index || a.Distance != want.Distance || a.NGrams != n || a.Label != mem.Label(want.Index) {
		t.Fatalf("http answer %+v, want %+v", a, want)
	}

	body, _ := json.Marshal(classifyRequest{Texts: texts})
	resp, err = post(string(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Answers) != len(texts) {
		t.Fatalf("batch classify: %d answers, want %d", len(batch.Answers), len(texts))
	}

	for _, bad := range []string{"", "{}", `{"texts": []}`, "not json"} {
		resp, err := post(bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, err = http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Server  Stats           `json:"server"`
		Backend json.RawMessage `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Server.Queries == 0 || len(stats.Backend) == 0 {
		t.Fatalf("statsz: %+v", stats)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestFleetBackendServes runs the scatter-gather fleet behind the binary
// protocol end to end.
func TestFleetBackendServes(t *testing.T) {
	mem, newEnc, texts := buildFixture(t, 8, 8)
	fl := buildFleet(t, mem, newEnc)
	s := startServer(t, FleetBackend(fl), Config{})
	c := dialT(t, s)
	as, err := c.Ask(texts[:4], 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range as {
		if a.Status != StatusOK || a.Label == "" {
			t.Fatalf("fleet answer %d: %+v", i, a)
		}
	}
}

// buildFleet starts a small replica fleet over the fixture memory.
func buildFleet(t *testing.T, mem *core.Memory, newEnc func() *encoder.Encoder) *fleet.Fleet {
	t.Helper()
	fl, err := fleet.New(mem, newEnc, fleet.Config{
		Replicas: 2,
		Seed:     testSeed,
		Deadline: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl
}

// waitFor polls cond for up to ~5s; goroutine teardown and counter
// propagation are asynchronous.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestHTTPInflightCapSheds parks one /classify request on the stub backend
// and checks that a second request over the MaxHTTPInflight cap is refused
// 503 immediately instead of queueing behind it.
func TestHTTPInflightCapSheds(t *testing.T) {
	b := newStub(func(text string) bool { return text == "slow" })
	s := startServer(t, b, Config{HTTPAddr: "127.0.0.1:0", MaxHTTPInflight: 1})
	url := "http://" + s.HTTPAddr().String() + "/classify"

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"text": "slow"}`))
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitFor(t, func() bool { return b.accepted.Load() == 1 })

	resp, err := http.Post(url, "application/json", strings.NewReader(`{"text": "fast"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap request: status %d, want 503", resp.StatusCode)
	}
	if st := s.Stats(); st.HTTPShed != 1 {
		t.Fatalf("HTTPShed = %d, want 1", st.HTTPShed)
	}

	close(b.release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("parked request: status %d, want 200", code)
	}
}
