package fleet

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/hv"
	"hdam/internal/itemmem"
	"hdam/internal/serve"
	"hdam/internal/textgen"
)

const (
	testDim  = 1000 // 15 full packed words + a 40-bit tail word
	testSeed = 2017
)

// fixture builds a small memory plus the encoder factory and texts the
// fleet tests share (the serve package's fixture idiom).
type fixture struct {
	mem    *core.Memory
	newEnc func() *encoder.Encoder
	texts  []string
}

func buildFixture(t testing.TB, classes, texts int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewPCG(testSeed, 0xf1ee7))
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
		ts[i] = langs[i%len(langs)].GenerateSentence(120, rng)
	}
	return &fixture{
		mem: mem,
		newEnc: func() *encoder.Encoder {
			im := itemmem.New(testDim, testSeed)
			im.Preload(itemmem.LatinAlphabet)
			return encoder.New(im, 3)
		},
		texts: ts,
	}
}

// altMemory builds a second memory with the same labels but different class
// vectors, for swap tests.
func altMemory(t testing.TB, mem *core.Memory) *core.Memory {
	t.Helper()
	rng := rand.New(rand.NewPCG(testSeed, 0xa17))
	cs := make([]*hv.Vector, mem.Classes())
	for i := range cs {
		cs[i] = hv.Random(mem.Dim(), rng)
	}
	m2, err := core.NewMemory(cs, mem.Labels())
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

// reference encodes every fixture text with the fleet's seed and returns
// the exact nearest class per text — the bit-identity ground truth.
func reference(f *fixture, mem *core.Memory) []core.Result {
	enc := f.newEnc()
	out := make([]core.Result, len(f.texts))
	for i, text := range f.texts {
		q, n := enc.EncodeText(text, testSeed)
		if n == 0 {
			out[i] = core.Result{Index: -1}
			continue
		}
		wi, wd := mem.ClassMatrix().Nearest(q)
		out[i] = core.Result{Index: wi, Distance: wd}
	}
	return out
}

func TestPlanPartsCoverEverything(t *testing.T) {
	f := buildFixture(t, 7, 1)
	for n := 1; n <= 5; n++ {
		parts, err := planParts(f.mem, n, ByWords)
		if err != nil {
			t.Fatal(err)
		}
		bits, word := 0, 0
		for i, p := range parts {
			if p.lo != word {
				t.Fatalf("n=%d: partition %d starts at word %d, want %d", n, i, p.lo, word)
			}
			word = p.hi
			bits += p.bits
		}
		if word != f.mem.ClassMatrix().Words() || bits != testDim {
			t.Fatalf("n=%d: partitions cover %d words / %d bits, want %d / %d",
				n, word, bits, f.mem.ClassMatrix().Words(), testDim)
		}
		parts, err = planParts(f.mem, n, ByClasses)
		if err != nil {
			t.Fatal(err)
		}
		row := 0
		for i, p := range parts {
			if p.rlo != row {
				t.Fatalf("n=%d: partition %d starts at row %d, want %d", n, i, p.rlo, row)
			}
			row = p.rhi
		}
		if row != 7 {
			t.Fatalf("n=%d: partitions cover %d rows, want 7", n, row)
		}
	}
	if _, err := planParts(f.mem, 8, ByClasses); err == nil {
		t.Fatal("no error for more partitions than classes")
	}
	if _, err := planParts(f.mem, 17, ByWords); err == nil {
		t.Fatal("no error for more partitions than words")
	}
}

func TestFleetRejectsBadConfig(t *testing.T) {
	f := buildFixture(t, 4, 1)
	if _, err := New(nil, f.newEnc, Config{}); err == nil {
		t.Fatal("no error for nil memory")
	}
	if _, err := New(f.mem, nil, Config{}); err == nil {
		t.Fatal("no error for nil encoder factory")
	}
	if _, err := New(f.mem, f.newEnc, Config{Replicas: 2, Partitions: 4}); err == nil {
		t.Fatal("no error for more partitions than replicas")
	}
}

func TestFleetNoNGramsAndClosed(t *testing.T) {
	f := buildFixture(t, 4, 1)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 2, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Ask(context.Background(), "??!"); !errors.Is(err, serve.ErrNoNGrams) {
		t.Fatalf("empty text: %v, want ErrNoNGrams", err)
	}
	if st := fl.Stats(); st.Empty != 1 {
		t.Fatalf("Empty=%d, want 1", st.Empty)
	}
	// The coordinator's own encode settles an empty text: no replica sees it.
	for _, rs := range fl.ReplicaStats() {
		if rs.Engine.Submitted != 0 || rs.Dispatches != 0 {
			t.Fatalf("replica %d saw the empty text: %d submitted, %d dispatches", rs.ID, rs.Engine.Submitted, rs.Dispatches)
		}
	}
	fl.Close()
	if _, err := fl.Ask(context.Background(), f.texts[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ask after close: %v, want ErrClosed", err)
	}
	if _, err := fl.Swap(f.mem); !errors.Is(err, ErrClosed) {
		t.Fatalf("swap after close: %v, want ErrClosed", err)
	}
	fl.Close() // idempotent
}

func TestFleetStopStartReplica(t *testing.T) {
	f := buildFixture(t, 8, 8)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 4, Scheme: ByWords, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ref := reference(f, f.mem)
	ctx := context.Background()

	ans, err := fl.Ask(ctx, f.texts[0])
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded || ans.Coverage != 1 || ans.CoveredBits != testDim {
		t.Fatalf("healthy answer degraded: %+v", ans)
	}
	if ans.Result != ref[0] {
		t.Fatalf("healthy answer %+v, want %+v", ans.Result, ref[0])
	}

	if err := fl.StopReplica(2); err != nil {
		t.Fatal(err)
	}
	if err := fl.StopReplica(2); err == nil {
		t.Fatal("no error stopping a stopped replica")
	}
	if err := fl.StopReplica(99); err == nil {
		t.Fatal("no error for out-of-range replica")
	}
	lostBits := fl.parts[2].bits // replica 2 is partition 2's only holder
	for i, text := range f.texts {
		ans, err := fl.Ask(ctx, text)
		if err != nil {
			t.Fatalf("ask %d with stopped replica: %v", i, err)
		}
		if !ans.Degraded || ans.Erasures != 1 {
			t.Fatalf("ask %d: not degraded with a dead partition: %+v", i, ans)
		}
		if ans.CoveredBits != testDim-lostBits {
			t.Fatalf("ask %d: covered %d bits, want %d", i, ans.CoveredBits, testDim-lostBits)
		}
		if ans.WidenedMargin != ans.Margin-2*certSlack(ans.CoveredBits, testDim, f.mem.Classes(), 1e-3) {
			t.Fatalf("ask %d: widened margin %d inconsistent with certificate", i, ans.WidenedMargin)
		}
	}

	if err := fl.StartReplica(2); err != nil {
		t.Fatal(err)
	}
	if err := fl.StartReplica(2); err == nil {
		t.Fatal("no error starting a running replica")
	}
	ans, err = fl.Ask(ctx, f.texts[1])
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded || ans.Result != ref[1] {
		t.Fatalf("recovered answer %+v, want healthy %+v", ans, ref[1])
	}
}

func TestFleetSwapGenerations(t *testing.T) {
	f := buildFixture(t, 6, 10)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 4, Partitions: 2, Scheme: ByWords})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ctx := context.Background()
	mem2 := altMemory(t, f.mem)
	ref2 := reference(f, mem2)

	ans, err := fl.Ask(ctx, f.texts[0])
	if err != nil {
		t.Fatal(err)
	}
	if ans.Gen != 1 {
		t.Fatalf("pre-swap gen %d, want 1", ans.Gen)
	}

	// Bad swaps are rejected before any engine is touched.
	if _, err := fl.Swap(nil); err == nil {
		t.Fatal("no error for nil swap")
	}
	other := buildFixture(t, 5, 1) // different label set
	if _, err := fl.Swap(other.mem); err == nil {
		t.Fatal("no error for label-mismatched swap")
	}

	gen, err := fl.Swap(mem2)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || fl.Gen() != 2 {
		t.Fatalf("swap produced gen %d (fleet %d), want 2", gen, fl.Gen())
	}
	for i, text := range f.texts {
		ans, err := fl.Ask(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Gen != 2 || ans.Degraded {
			t.Fatalf("post-swap ask %d: gen %d degraded=%v", i, ans.Gen, ans.Degraded)
		}
		if ans.Result != ref2[i] {
			t.Fatalf("post-swap ask %d: %+v, want %+v", i, ans.Result, ref2[i])
		}
	}
	if st := fl.Stats(); st.Swaps != 1 {
		t.Fatalf("Swaps=%d, want 1", st.Swaps)
	}
}

// TestFleetSwapWhileReplicaStopped: a replica that misses a generation roll
// rejoins at the fleet's current generation, so its partials stay
// reducible with everyone else's.
func TestFleetSwapWhileReplicaStopped(t *testing.T) {
	f := buildFixture(t, 6, 6)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 3, Scheme: ByClasses})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ctx := context.Background()
	mem2 := altMemory(t, f.mem)
	ref2 := reference(f, mem2)

	if err := fl.StopReplica(1); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Swap(mem2); err != nil {
		t.Fatal(err)
	}
	if err := fl.StartReplica(1); err != nil {
		t.Fatal(err)
	}
	for i, text := range f.texts {
		ans, err := fl.Ask(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Gen != 2 || ans.Degraded || ans.CoveredClasses != 6 {
			t.Fatalf("ask %d after rejoin: gen %d degraded=%v covered=%d", i, ans.Gen, ans.Degraded, ans.CoveredClasses)
		}
		if ans.Result != ref2[i] {
			t.Fatalf("ask %d after rejoin: %+v, want %+v", i, ans.Result, ref2[i])
		}
	}
	if st := fl.Stats(); st.GenDropped != 0 {
		t.Fatalf("GenDropped=%d after a quiesced roll, want 0", st.GenDropped)
	}
}

func TestFleetDrain(t *testing.T) {
	f := buildFixture(t, 4, 4)
	fl, err := New(f.mem, f.newEnc, Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Ask(context.Background(), f.texts[0]); err != nil {
		t.Fatal(err)
	}
	abandoned, err := fl.Drain(context.Background())
	if err != nil || abandoned != 0 {
		t.Fatalf("idle drain: abandoned=%d err=%v", abandoned, err)
	}
	if _, err := fl.Ask(context.Background(), f.texts[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ask after drain: %v, want ErrClosed", err)
	}
}
