package netserve

import (
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/fleet"
	"hdam/internal/serve"
)

// BenchmarkServeFrame sends one-text query frames closed loop over
// loopback, one in flight, through an engine backend and through an
// in-process fleet. ns/op is one frame's round trip; allocs/op counts the
// client and the server together, which share the process.
func BenchmarkServeFrame(b *testing.B) {
	mem, newEnc, texts := buildFixture(b, 8, 64)
	run := func(b *testing.B, backend Backend) {
		s, err := New(backend, Config{BinaryAddr: "127.0.0.1:0"})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		c, err := Dial(s.BinaryAddr().String(), time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		ask := func(i int) {
			as, err := c.Ask([]string{texts[i%len(texts)]}, 0)
			if err != nil {
				b.Fatal(err)
			}
			if st := as[0].Status; st != StatusOK && st != StatusNoNGrams {
				b.Fatalf("frame %d: %+v", i, as[0])
			}
		}
		for i := range texts {
			ask(i) // warm the encoder scratch and the connection buffers
		}
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
