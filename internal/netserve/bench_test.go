package netserve

import (
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/fleet"
	"hdam/internal/serve"
)

// serveFrames serves backend on a loopback binary listener and returns a
// closed-loop asker sending text i of texts as a one-text query frame, one
// in flight, warmed on every text first. The server and the client close
// with tb.
func serveFrames(tb testing.TB, backend Backend, texts []string) func(i int) {
	s, err := New(backend, Config{BinaryAddr: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	c, err := Dial(s.BinaryAddr().String(), time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	ask := func(i int) {
		as, err := c.Ask([]string{texts[i%len(texts)]}, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if st := as[0].Status; st != StatusOK && st != StatusNoNGrams {
			tb.Fatalf("frame %d: %+v", i, as[0])
		}
	}
	for i := range texts {
		ask(i) // warm the encoder scratch and the connection buffers
	}
	return ask
}

// BenchmarkServeFrame sends one-text query frames closed loop over
// loopback, one in flight, through an engine backend and through an
// in-process fleet. ns/op is one frame's round trip; allocs/op counts the
// client and the server together, which share the process.
func BenchmarkServeFrame(b *testing.B) {
	mem, newEnc, texts := buildFixture(b, 8, 64)
	run := func(b *testing.B, backend Backend) {
		ask := serveFrames(b, backend, texts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ask(i)
		}
	}
	b.Run("engine", func(b *testing.B) {
		eng, err := serve.New(mem, assoc.NewExact(mem), newEnc, serve.Config{Seed: testSeed})
		if err != nil {
			b.Fatal(err)
		}
		run(b, EngineBackend(eng))
	})
	b.Run("fleet", func(b *testing.B) {
		fl, err := fleet.New(mem, newEnc, fleet.Config{Seed: testSeed})
		if err != nil {
			b.Fatal(err)
		}
		run(b, FleetBackend(fl))
	})
}

// TestServeFrameAllocs pins a steady-state one-text frame's allocations on
// both backends, counted process-wide over loopback (client and server
// share the process): the fleet's encode-once scatter-gather over 4
// partitions allocates no more per frame than the single engine's search.
func TestServeFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled scratch at random; allocation counts are not the program's")
	}
	mem, newEnc, texts := buildFixture(t, 8, 64)
	perFrame := func(backend Backend) float64 {
		ask, i := serveFrames(t, backend, texts), 0
		return testing.AllocsPerRun(200, func() {
			ask(i)
			i++
		})
	}
	eng, err := serve.New(mem, assoc.NewExact(mem), newEnc, serve.Config{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.New(mem, newEnc, fleet.Config{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	engAllocs, flAllocs := perFrame(EngineBackend(eng)), perFrame(FleetBackend(fl))
	t.Logf("allocs per frame: engine %v, fleet %v", engAllocs, flAllocs)
	if flAllocs > engAllocs {
		t.Fatalf("a fleet frame makes %v allocations, an engine frame %v: the fleet may make no more", flAllocs, engAllocs)
	}
}
