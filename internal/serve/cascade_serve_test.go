package serve

import (
	"context"
	"testing"

	"hdam/internal/assoc"
)

// cascadeSearcher builds a conservatively-gated cascade over the fixture
// memory: the encoded test texts are a margin-free workload for random
// classes, so the certificate bound is kept tight enough (1e-9) that strict
// identity with the exact scan is the expected outcome, exactly as the
// assoc-level property tests pin it.
func cascadeSearcher(t *testing.T, f *fixture) *assoc.Cascade {
	t.Helper()
	c, err := assoc.NewCascade(f.mem, assoc.CascadeConfig{
		SliceOffset: -1,
		MaxFailProb: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineCascadeMatchesSerial drives the engine with the cascaded
// searcher through the full serving path — batching, worker pool, encoder
// scratch — and requires bit-identical responses to the serial exact loop.
func TestEngineCascadeMatchesSerial(t *testing.T) {
	f := buildFixture(t, 8, 64)
	want := serialResponses(f, assoc.NewExact(f.mem), testSeed)
	casc := cascadeSearcher(t, f)
	eng, err := New(f.mem, casc, f.newEnc, Config{
		Workers: 2, MaxBatch: 8, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i, text := range f.texts {
		resp, err := eng.Submit(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result != want[i].Result || resp.Label != want[i].Label {
			t.Fatalf("text %d: cascade engine %+v, serial exact %+v", i, resp, want[i])
		}
	}
	if st := casc.Stats(); st.Queries == 0 {
		t.Fatal("cascade saw no queries through the engine")
	}
}

// TestSwapToCascade hot-swaps a running exact-search engine to the cascaded
// searcher over the same memory: the swap must drain cleanly and every
// post-swap answer must stay bit-identical to the serial exact loop.
func TestSwapToCascade(t *testing.T) {
	f := buildFixture(t, 8, 48)
	want := serialResponses(f, assoc.NewExact(f.mem), testSeed)
	eng, err := New(f.mem, assoc.NewExact(f.mem), f.newEnc, Config{
		Workers: 2, MaxBatch: 4, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < len(f.texts)/2; i++ {
		resp, err := eng.Submit(context.Background(), f.texts[i])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result != want[i].Result {
			t.Fatalf("pre-swap text %d: %+v, want %+v", i, resp.Result, want[i].Result)
		}
	}
	casc := cascadeSearcher(t, f)
	if _, err := eng.Swap(f.mem, casc, f.newEnc); err != nil {
		t.Fatal(err)
	}
	for i := len(f.texts) / 2; i < len(f.texts); i++ {
		resp, err := eng.Submit(context.Background(), f.texts[i])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result != want[i].Result {
			t.Fatalf("post-swap text %d: cascade %+v, serial exact %+v", i, resp.Result, want[i].Result)
		}
	}
	if st := casc.Stats(); st.Queries == 0 {
		t.Fatal("cascade saw no queries after swap")
	}
}
