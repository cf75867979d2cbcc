// Package perf measures the substrate's kernel hot paths — encoding,
// bundling, distance computation, associative search — via the standard
// testing.Benchmark driver, and serializes the results as JSON so the
// benchmark trajectory of the repository can be tracked across commits
// (cmd/hambench -json).
package perf

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/encoder"
	"hdam/internal/hv"
	"hdam/internal/itemmem"
	"hdam/internal/textgen"
)

// Result is one kernel's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is a full kernel-suite run plus enough machine context to compare
// trajectories across commits honestly. Serve holds the closed-loop load
// harness measurements when the run included them.
type Report struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Kernel is the popcount kernel the build selected (core.KernelName), so
	// trajectory entries from generic and GOAMD64=v3 builds stay attributable.
	Kernel    string            `json:"kernel,omitempty"`
	Dim       int               `json:"dim"`
	Classes   int               `json:"classes"`
	Results   []Result          `json:"results"`
	Serve     []ServeResult     `json:"serve,omitempty"`
	Fleet     []FleetResult     `json:"fleet,omitempty"`
	Cascade   []CascadeResult   `json:"cascade,omitempty"`
	ColdStart []ColdStartResult `json:"cold_start,omitempty"`
	Net       []NetResult       `json:"net,omitempty"`
	// RemoteFleet is the over-the-wire scatter-gather chaos soak:
	// coordinator plus TCP replica servers under kills and blackholes.
	RemoteFleet []RemoteFleetResult `json:"remote_fleet,omitempty"`
	// Learn is the train-while-serve harness: search qps/p99 with ingest
	// off vs on, reconcile latency, and the accuracy-vs-examples trajectory
	// as new classes arrive mid-run.
	Learn []LearnResult `json:"learn,omitempty"`
}

// WriteJSON serializes the report, indented for diff-friendly check-in.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Trajectory is the checked-in benchmark history (BENCH.json): one entry per
// recorded run, oldest first, so regressions are visible as diffs instead of
// overwrites.
type Trajectory struct {
	Entries []*Report `json:"entries"`
}

// LoadTrajectory reads a trajectory file. A file in the legacy single-Report
// format (the seed's BENCH.json) is migrated to a one-entry trajectory; a
// missing file yields an empty trajectory.
func LoadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &Trajectory{}, nil
	}
	if err != nil {
		return nil, err
	}
	var tr Trajectory
	if err := json.Unmarshal(data, &tr); err == nil && len(tr.Entries) > 0 {
		return &tr, nil
	}
	var legacy Report
	if err := json.Unmarshal(data, &legacy); err == nil && len(legacy.Results) > 0 {
		return &Trajectory{Entries: []*Report{&legacy}}, nil
	}
	return nil, fmt.Errorf("perf: %s is neither a trajectory nor a report", path)
}

// AppendReport appends rep to the trajectory at path (creating or migrating
// the file as needed) and writes it back indented.
func AppendReport(path string, rep *Report) error {
	tr, err := LoadTrajectory(path)
	if err != nil {
		return err
	}
	tr.Entries = append(tr.Entries, rep)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultOf converts a testing.BenchmarkResult.
func resultOf(name string, br testing.BenchmarkResult) Result {
	r := Result{
		Name:        name,
		Iterations:  br.N,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
	if br.Bytes > 0 && br.T > 0 {
		r.MBPerSec = float64(br.Bytes) * float64(br.N) / 1e6 / br.T.Seconds()
	}
	return r
}

const (
	benchDim     = hv.Dim // 10,000, the paper's D
	benchClasses = 21     // the paper's language count
	benchSeed    = 2017
)

// KernelName re-exports the popcount kernel this build selected, so commands
// that already depend on perf need not import internal/core for the label.
const KernelName = core.KernelName

// fixtures holds everything the kernel benchmarks share; building it is
// untimed.
type fixtures struct {
	enc      *encoder.Encoder
	sentence string
	chunk    string
	vecs     []*hv.Vector
	mem      *core.Memory
	queries  []*hv.Vector
}

// benchEncoderFactory returns the encoder factory the serve harness hands
// the engine: fresh scratch over the deterministic benchmark item memory.
func benchEncoderFactory() func() *encoder.Encoder {
	return func() *encoder.Encoder {
		return encoder.New(itemmem.New(benchDim, benchSeed), 3)
	}
}

// benchTexts generates n request texts from the benchmark language models.
func benchTexts(f *fixtures, n int) []string {
	cfg := textgen.DefaultConfig()
	cfg.Seed = benchSeed
	langs := textgen.Catalog(cfg)
	rng := rand.New(rand.NewPCG(benchSeed, 0x5e12e))
	texts := make([]string, n)
	for i := range texts {
		texts[i] = langs[i%len(langs)].GenerateSentence(150, rng)
	}
	return texts
}

func buildFixtures() *fixtures {
	f := &fixtures{}
	im := itemmem.New(benchDim, benchSeed)
	im.Preload(itemmem.LatinAlphabet)
	f.enc = encoder.New(im, 3)

	// Synthetic text from the same generator the experiments train on.
	cfg := textgen.DefaultConfig()
	cfg.Seed = benchSeed
	langs := textgen.Catalog(cfg)
	rng := rand.New(rand.NewPCG(benchSeed, 0xbe7c4))
	f.sentence = langs[0].GenerateSentence(150, rng)
	f.chunk = langs[0].GenerateText(1<<16, rng)

	f.vecs = make([]*hv.Vector, 32)
	for i := range f.vecs {
		f.vecs[i] = hv.Random(benchDim, rng)
	}

	classes := make([]*hv.Vector, benchClasses)
	labels := make([]string, benchClasses)
	for i := range classes {
		classes[i] = hv.Random(benchDim, rng)
		labels[i] = string(rune('a' + i))
	}
	mem, err := core.NewMemory(classes, labels)
	if err != nil {
		panic(err)
	}
	f.mem = mem

	f.queries = make([]*hv.Vector, 32)
	for i := range f.queries {
		f.queries[i] = hv.Random(benchDim, rng)
	}
	return f
}

// kernels is the benchmark suite: name → body. Each body must be steady
// state (all fixtures prebuilt) so allocs/op reflects the hot path alone.
func kernels(f *fixtures) []struct {
	name  string
	bytes int64
	fn    func(b *testing.B)
} {
	acc := hv.NewAccumulator(benchDim, benchSeed)
	bundleAcc := hv.NewAccumulator(benchDim, benchSeed)
	cm := f.mem.ClassMatrix()
	ds := make([]int, benchClasses)
	batch := make([]int, len(f.queries)*benchClasses)
	exact := assoc.NewExact(f.mem)
	noisy := assoc.NewNoisySeeded(f.mem, 200, benchSeed)
	quant := assoc.NewQuantizedSeeded(f.mem, 16, benchSeed)
	var buf []int

	return []struct {
		name  string
		bytes int64
		fn    func(b *testing.B)
	}{
		{"encode/sentence", int64(len(f.sentence)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, n := f.enc.EncodeText(f.sentence, uint64(i)); n == 0 {
					b.Fatal("no n-grams")
				}
			}
		}},
		{"encode/train-64k", int64(len(f.chunk)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc.Reset()
				if f.enc.AccumulateText(acc, f.chunk) == 0 {
					b.Fatal("no n-grams")
				}
			}
		}},
		{"accumulate/add", 0, func(b *testing.B) {
			bundleAcc.Reset()
			for i := 0; i < b.N; i++ {
				bundleAcc.Add(f.vecs[i%len(f.vecs)])
			}
		}},
		{"distance/into-21x10k", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cm.DistancesInto(ds, f.queries[i%len(f.queries)])
			}
		}},
		{"distance/batch-32x21x10k", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cm.DistancesBatchInto(batch, f.queries)
			}
		}},
		{"search/exact", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if exact.Search(f.queries[i%len(f.queries)]).Index < 0 {
					b.Fatal("impossible")
				}
			}
		}},
		{"search/noisy-e200", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if noisy.SearchBuf(f.queries[i%len(f.queries)], &buf).Index < 0 {
					b.Fatal("impossible")
				}
			}
		}},
		{"search/quantized-d16", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if quant.SearchBuf(f.queries[i%len(f.queries)], &buf).Index < 0 {
					b.Fatal("impossible")
				}
			}
		}},
	}
}

// RunKernels executes the kernel suite and returns the report.
func RunKernels() *Report {
	f := buildFixtures()
	rep := &Report{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Kernel:    core.KernelName,
		Dim:       benchDim,
		Classes:   benchClasses,
	}
	for _, k := range kernels(f) {
		k := k
		br := testing.Benchmark(func(b *testing.B) {
			if k.bytes > 0 {
				b.SetBytes(k.bytes)
			}
			b.ReportAllocs()
			b.ResetTimer()
			k.fn(b)
		})
		rep.Results = append(rep.Results, resultOf(k.name, br))
	}
	return rep
}
