package hdam

// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation (§IV), regenerating the corresponding rows/series each
// iteration, plus micro-benchmarks of the substrate's hot paths. The
// data-dependent experiments (Fig. 1, Table III, Fig. 13) share a single
// reduced-scale trained environment built once outside the timer; run
// cmd/hambench for the full-protocol numbers recorded in EXPERIMENTS.md.

import (
	"math/rand/v2"
	"sync"
	"testing"

	"hdam/internal/experiments"
	"hdam/internal/hv"
	"hdam/internal/switching"
	"hdam/internal/textgen"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// benchEnvironment returns the shared reduced-scale environment with the
// D = 10,000 bundle pre-trained.
func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.Scale{
			TrainChars:  40_000,
			TestPerLang: 10,
			MCRuns:      1000,
		}, 2017)
	})
	return benchEnv
}

// --- one benchmark per paper artifact ---

func BenchmarkFig1(b *testing.B) {
	env := benchEnvironment(b)
	if _, err := env.Bundle(10000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig1(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table2(); len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if vs := experiments.Fig4(); len(vs) != 3 {
			b.Fatal("wrong variant count")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if points := experiments.Fig7(); len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	// Table III trains one model per dimensionality; keep the sweep to the
	// two extreme dimensions inside the benchmark loop by pre-building all
	// bundles once, so the timed portion is the accuracy evaluation.
	env := benchEnvironment(b)
	for _, d := range experiments.Dims {
		if _, err := env.Bundle(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(experiments.Dims) {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	env := benchEnvironment(b)
	if _, err := env.Bundle(10000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corners, err := experiments.Fig13(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(corners) == 0 {
			b.Fatal("no corners")
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkHamming10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := hv.Random(Dim, rng)
	y := hv.Random(Dim, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hv.Hamming(x, y) < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkBind10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	x := hv.Random(Dim, rng)
	y := hv.Random(Dim, rng)
	dst := hv.New(Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv.BindInto(dst, x, y)
	}
}

// BenchmarkAccumulateAdd10k measures steady-state majority bundling; the
// accumulator must not allocate once its counter storage exists.
func BenchmarkAccumulateAdd10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	acc := hv.NewAccumulator(Dim, 0)
	vs := make([]*hv.Vector, 32)
	for i := range vs {
		vs[i] = hv.Random(Dim, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(vs[i%len(vs)])
	}
}

// BenchmarkDistancesInto10k measures the packed class-matrix distance
// kernel over the paper's 21 classes at D = 10,000; allocs/op must be 0.
func BenchmarkDistancesInto10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	classes := make([]*hv.Vector, 21)
	labels := make([]string, 21)
	for i := range classes {
		classes[i] = hv.Random(Dim, rng)
		labels[i] = string(rune('a' + i))
	}
	mem, err := NewMemory(classes, labels)
	if err != nil {
		b.Fatal(err)
	}
	q := hv.Random(Dim, rng)
	ds := make([]int, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.DistancesInto(ds, q)
	}
}

// BenchmarkDistancesBatch10k measures the query-blocked batch variant used
// by the experiment distance matrices.
func BenchmarkDistancesBatch10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 6))
	classes := make([]*hv.Vector, 21)
	labels := make([]string, 21)
	for i := range classes {
		classes[i] = hv.Random(Dim, rng)
		labels[i] = string(rune('a' + i))
	}
	mem, err := NewMemory(classes, labels)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*hv.Vector, 32)
	for i := range queries {
		queries[i] = hv.Random(Dim, rng)
	}
	dst := make([]int, len(queries)*21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.DistancesBatchInto(dst, queries)
	}
}

// BenchmarkEncodeSentence encodes the ~150-character generated sentences
// the serving harnesses and the end-to-end benchmark send, with the fixed
// tie-break seed a serving engine uses. The odd-G case never ties; the
// even-G case takes the tie-break path.
func BenchmarkEncodeSentence(b *testing.B) {
	im := NewItemMemory(Dim, 2017)
	im.Preload(LatinAlphabet)
	enc := NewEncoder(im, 3)
	cfg := textgen.DefaultConfig()
	cfg.Seed = 2017
	langs := textgen.Catalog(cfg)
	rng := rand.New(rand.NewPCG(2017, 0x5e12e))
	sentences := map[string]string{}
	for i := 0; len(sentences) < 2; i++ {
		s := langs[i%len(langs)].GenerateSentence(150, rng)
		_, g := enc.EncodeText(s, 2017)
		parity := "odd-G"
		if g%2 == 0 {
			parity = "even-G"
		}
		if _, ok := sentences[parity]; !ok {
			sentences[parity] = s
		}
	}
	for _, parity := range []string{"odd-G", "even-G"} {
		sentence := sentences[parity]
		b.Run(parity, func(b *testing.B) {
			b.SetBytes(int64(len(sentence)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, n := enc.EncodeText(sentence, 2017); n == 0 {
					b.Fatal("no n-grams")
				}
			}
		})
	}
}

func BenchmarkExactSearch21Classes(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	classes := make([]*hv.Vector, 21)
	labels := make([]string, 21)
	for i := range classes {
		classes[i] = hv.Random(Dim, rng)
		labels[i] = string(rune('a' + i))
	}
	mem, err := NewMemory(classes, labels)
	if err != nil {
		b.Fatal(err)
	}
	s := NewExactSearcher(mem)
	q := hv.Random(Dim, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Search(q).Index < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkSwitchingTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := switching.ThermometerActivity(4); a <= 0 {
			b.Fatal("impossible")
		}
	}
}

// --- ablation and extension benchmarks ---

func BenchmarkAblateBlockSize(b *testing.B) {
	env := benchEnvironment(b)
	if _, err := env.Bundle(10000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateBlockSize(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateErrorModel(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateErrorModel(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.AblateStages(); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkStandby(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Standby(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- structural simulator benchmarks ---

func BenchmarkDHAMDatapathSearch(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	classes := make([]*hv.Vector, 21)
	labels := make([]string, 21)
	for i := range classes {
		classes[i] = hv.Random(Dim, rng)
		labels[i] = string(rune('a' + i))
	}
	mem, err := NewMemory(classes, labels)
	if err != nil {
		b.Fatal(err)
	}
	dp, err := NewDHAMDatapath(DHAMConfig{D: Dim, C: 21}, mem)
	if err != nil {
		b.Fatal(err)
	}
	q := hv.Random(Dim, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.Search(q)
	}
}

func BenchmarkAHAMCircuitSearch(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 8))
	classes := make([]*hv.Vector, 21)
	labels := make([]string, 21)
	for i := range classes {
		classes[i] = hv.Random(Dim, rng)
		labels[i] = string(rune('a' + i))
	}
	mem, err := NewMemory(classes, labels)
	if err != nil {
		b.Fatal(err)
	}
	chip, err := NewAHAMCircuit(AHAMConfig{D: Dim, C: 21}, mem, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := hv.Random(Dim, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Search(q)
	}
}
