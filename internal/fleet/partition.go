package fleet

// partition.go: how one learned model splits across replicas.
//
// Two schemes, with opposite failure semantics:
//
//   - ByWords slices the packed word axis. Every partition scores every
//     class over one contiguous word range, so the partials SUM to the
//     exact full-D Hamming distances. Losing a partition erases its bits:
//     the surviving sum is exactly the paper's d-sampled distance over the
//     covered bits (§III-A1), so the reduce can keep answering with the
//     d-sampling error model and a widened confidence margin.
//   - ByClasses slices the row axis. Every partition scores its band of
//     classes at full dimensionality, so covered classes keep exact
//     distances. Losing a partition excludes exactly its classes from the
//     answer — correct over what survives, silent about the rest.

import (
	"context"
	"errors"
	"fmt"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/hv"
	"hdam/internal/serve"
)

// Scheme selects how the class matrix splits across partitions.
type Scheme int

const (
	// ByWords partitions the packed word axis: partial distances sum to
	// the exact full-dimension distances, and a lost partition degrades
	// the answer to a d-sampled one over the surviving bits (the default).
	ByWords Scheme = iota
	// ByClasses partitions the class-row axis: each partition answers
	// exactly for its band of classes, and a lost partition excludes its
	// classes from the answer.
	ByClasses
)

// String names the scheme for reports.
func (s Scheme) String() string {
	switch s {
	case ByWords:
		return "by-words"
	case ByClasses:
		return "by-classes"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ParseScheme maps a scheme name (as String prints it, with "words" and
// "classes" accepted as shorthand) back to the Scheme — the -scheme flag's
// parser.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "by-words", "words":
		return ByWords, nil
	case "by-classes", "classes":
		return ByClasses, nil
	}
	return 0, fmt.Errorf("fleet: unknown scheme %q (want by-words or by-classes)", name)
}

// PartitionModel builds the memory and searcher a standalone replica
// process (hamserve -replica) serves for partition p of n under sc: the
// same plan the coordinator computes, so remote partials line up with the
// reduce's partition geometry bit for bit.
func PartitionModel(mem *core.Memory, sc Scheme, p, n int) (*core.Memory, core.Searcher, error) {
	pt, err := planPart(mem, sc, p, n)
	if err != nil {
		return nil, nil, err
	}
	return buildModel(mem, sc, pt)
}

// planPart is partition p of the n-way plan of mem under sc.
func planPart(mem *core.Memory, sc Scheme, p, n int) (part, error) {
	parts, err := planParts(mem, n, sc)
	if err != nil {
		return part{}, err
	}
	if p < 0 || p >= n {
		return part{}, fmt.Errorf("fleet: partition %d out of range [0,%d)", p, n)
	}
	return parts[p], nil
}

// ErrQueryRange is a replica's answer to an encoded query whose word range
// or dimension is not the one its partition scores: the coordinator and
// the replica disagree on the partition index, count or scheme, and scoring
// the query would return silently wrong partial distances. Match with
// errors.Is.
var ErrQueryRange = errors.New("fleet: query word range does not match the replica's partition")

// ReplicaEngine is a standalone partition replica (hamserve -replica): a
// pure associative memory — a distance-reporting serve.Engine with no
// encoder — over one partition, plus the packed word range of the query
// that partition scores. It answers the coordinator's encoded queries;
// text submitted to it fails with serve.ErrNoEncoder.
type ReplicaEngine struct {
	*serve.Engine
	dim, lo, hi int
}

// NewReplicaEngine builds the replica for partition p of n of mem under sc,
// from the same plan the coordinator computes. cfg is the engine's
// configuration; ReportDistances is forced on and cfg.Seed is unused (the
// replica never encodes).
func NewReplicaEngine(mem *core.Memory, sc Scheme, p, n int, cfg serve.Config) (*ReplicaEngine, error) {
	pt, err := planPart(mem, sc, p, n)
	if err != nil {
		return nil, err
	}
	m, s, err := buildModel(mem, sc, pt)
	if err != nil {
		return nil, err
	}
	cfg.ReportDistances = true
	eng, err := serve.New(m, s, nil, cfg)
	if err != nil {
		return nil, err
	}
	return &ReplicaEngine{Engine: eng, dim: mem.Dim(), lo: pt.lo, hi: pt.hi}, nil
}

// GoWords submits one encoded query as it crosses the wire: words are the
// packed words [off, off+len(words)) of a dim-bit query that bundled ngrams
// n-grams. done receives the response on the engine's worker, as in
// serve.Engine.GoEncodedFunc. A range or dimension other than the
// partition's fails with ErrQueryRange before anything is queued.
func (r *ReplicaEngine) GoWords(ctx context.Context, dim, off int, words []uint64, ngrams int, done func(serve.Response)) error {
	if dim != r.dim || off != r.lo || off+len(words) != r.hi {
		return fmt.Errorf("%w: got words [%d,%d) of a %d-bit query, partition scores [%d,%d) of %d bits",
			ErrQueryRange, off, off+len(words), dim, r.lo, r.hi, r.dim)
	}
	full := hv.New(dim).Words()
	copy(full[off:], words)
	q, err := hv.FromWords(dim, full)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrQueryRange, err)
	}
	return r.GoEncodedFunc(ctx, q, ngrams, done)
}

// part is one partition of the model. [lo,hi) is the packed word range of
// the query the partition scores: its slice of the word axis under ByWords
// (covering bits query bits), every word under ByClasses, whose partitions
// instead use the global class-row range [rlo,rhi).
type part struct {
	index  int
	lo, hi int // packed-word range [lo,hi) of the query scored
	bits   int // ByWords: query bits the range covers (tail word aware)
	rlo    int // ByClasses: first global class row
	rhi    int // ByClasses: one past the last global class row
}

// span splits total into n near-equal contiguous pieces and returns piece
// i's [lo,hi) bounds.
func span(total, n, i int) (lo, hi int) {
	return i * total / n, (i + 1) * total / n
}

// planParts computes the n partitions of a memory under the scheme.
func planParts(mem *core.Memory, n int, sc Scheme) ([]part, error) {
	dim, words, rows := mem.Dim(), mem.ClassMatrix().Words(), mem.Classes()
	parts := make([]part, n)
	switch sc {
	case ByWords:
		if n > words {
			return nil, fmt.Errorf("fleet: %d partitions over %d packed words", n, words)
		}
		for i := range parts {
			lo, hi := span(words, n, i)
			bits := hi * 64
			if bits > dim {
				bits = dim // the last range includes the zero-padded tail word
			}
			parts[i] = part{index: i, lo: lo, hi: hi, bits: bits - lo*64}
		}
	case ByClasses:
		if n > rows {
			return nil, fmt.Errorf("fleet: %d partitions over %d classes", n, rows)
		}
		for i := range parts {
			rlo, rhi := span(rows, n, i)
			parts[i] = part{index: i, hi: words, rlo: rlo, rhi: rhi}
		}
	default:
		return nil, fmt.Errorf("fleet: unknown scheme %v", sc)
	}
	return parts, nil
}

// buildModel constructs the memory and searcher one replica engine serves
// for its partition of mem. Both schemes are zero-copy over mem's packed
// class matrix (which may itself be a view of an mmap-ed snapshot): ByWords
// replicas serve the full memory through a word-range searcher; ByClasses
// replicas serve a row-band view built with core.ClassMatrix.SliceRows.
func buildModel(mem *core.Memory, sc Scheme, p part) (*core.Memory, core.Searcher, error) {
	switch sc {
	case ByWords:
		return mem, &rangeSearcher{cm: mem.ClassMatrix(), lo: p.lo, hi: p.hi}, nil
	case ByClasses:
		sub, err := mem.ClassMatrix().SliceRows(p.rlo, p.rhi)
		if err != nil {
			return nil, nil, err
		}
		m, err := core.NewMemoryFromMatrix(sub, mem.Labels()[p.rlo:p.rhi])
		if err != nil {
			return nil, nil, err
		}
		return m, assoc.NewExact(m), nil
	}
	return nil, nil, fmt.Errorf("fleet: unknown scheme %v", sc)
}

// rangeSearcher scores every class over one packed-word range of the class
// matrix: the word-range replica's partial-distance kernel. It implements
// core.RowSearcher — the capability the replica engine's ReportDistances
// mode needs — and its own Search answers the argmin of the partials, the
// best the partition alone can say.
type rangeSearcher struct {
	cm     *core.ClassMatrix
	lo, hi int
}

// Name implements core.Searcher.
func (r *rangeSearcher) Name() string {
	return fmt.Sprintf("range[%d,%d)", r.lo, r.hi)
}

// ObservedDistances implements core.RowSearcher: the partial Hamming
// distance from q to every class, restricted to words [lo,hi).
func (r *rangeSearcher) ObservedDistances(dst []int, q *hv.Vector) []int {
	rows := r.cm.Rows()
	if cap(dst) < rows {
		dst = make([]int, rows)
	}
	dst = dst[:rows]
	r.cm.RangeDistancesInto(dst, q, r.lo, r.hi)
	return dst
}

// Search implements core.Searcher.
func (r *rangeSearcher) Search(q *hv.Vector) core.Result {
	var buf []int
	return r.SearchBuf(q, &buf)
}

// SearchBuf implements core.BufferedSearcher: the deterministic
// lowest-index argmin over the partial distances.
func (r *rangeSearcher) SearchBuf(q *hv.Vector, buf *[]int) core.Result {
	*buf = r.ObservedDistances(*buf, q)
	ds := *buf
	best, bestD := 0, ds[0]
	for i, d := range ds[1:] {
		if d < bestD {
			best, bestD = i+1, d
		}
	}
	return core.Result{Index: best, Distance: bestD}
}

// Compile-time capability checks.
var (
	_ core.RowSearcher      = (*rangeSearcher)(nil)
	_ core.BufferedSearcher = (*rangeSearcher)(nil)
)
