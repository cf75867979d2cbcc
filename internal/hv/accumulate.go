package hv

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
)

// maxPlanes is the fixed per-word counter width: each component's ones-count
// is a maxPlanes-bit integer, so an accumulator holds up to 2^maxPlanes − 1
// total weight — far beyond any training corpus — while keeping every
// word's counter bits contiguous in memory.
const maxPlanes = 32

// unrollPlanes is how many counter planes the Add fast path touches
// unconditionally. A carry survives k planes with probability ~2^−k on
// bundling workloads, so after three branch-free plane updates only ~12% of
// words fall through to the generic ripple loop; the rest run straight-line
// code with no unpredictable branches.
const unrollPlanes = 3

// Accumulator bundles many hypervectors by component-wise majority, the
// paper's [A + B + C] operation. Internally it keeps a bit-sliced counter in
// word-major order: the counter bits of packed word w live contiguously at
// data[w·maxPlanes … w·maxPlanes+planes), so adding a vector ripples each
// word's carry chain in registers over adjacent memory and never allocates
// after the first Add. This is what makes training on megabytes of text
// (millions of bundled n-grams) practical.
//
// The paper augments the majority with "a method for breaking ties if the
// number of component hypervectors is even"; Accumulator implements that by
// consulting a deterministic pseudo-random tie-break vector derived from the
// accumulator's seed.
type Accumulator struct {
	dim  int
	nw   int      // packed words per vector
	data []uint64 // nw × maxPlanes, word-major bit-sliced counters
	n    int      // total weight accumulated
	seed uint64
}

// NewAccumulator returns an empty majority accumulator for the given
// dimension. seed determines the tie-break pattern used when an even number
// of vectors has been added.
func NewAccumulator(dim int, seed uint64) *Accumulator {
	if dim <= 0 {
		panic(fmt.Sprintf("hv: non-positive dimension %d", dim))
	}
	return &Accumulator{dim: dim, nw: wordsFor(dim), seed: seed}
}

// Dim returns the dimensionality of the accumulator.
func (a *Accumulator) Dim() int { return a.dim }

// Count returns the total weight of vectors added so far.
func (a *Accumulator) Count() int { return a.n }

// SetSeed replaces the tie-break seed. Combined with Reset this lets one
// accumulator be reused across many bundling sessions (e.g. encoding every
// test sentence with its own tie-break stream) without reallocating.
func (a *Accumulator) SetSeed(seed uint64) { a.seed = seed }

// planes returns how many counter bits can be non-zero: the per-component
// count never exceeds the total weight n, so bits.Len(n) bounds it exactly.
func (a *Accumulator) planes() int {
	p := bits.Len64(uint64(a.n))
	if p > maxPlanes {
		panic("hv: accumulator counter overflow")
	}
	return p
}

// counters returns the backing array, allocating it on first use.
func (a *Accumulator) counters() []uint64 {
	if a.data == nil {
		a.data = make([]uint64, a.nw*maxPlanes)
	}
	return a.data
}

// Add accumulates one hypervector with weight 1. This is the bundling hot
// path: for every packed word it updates the first unrollPlanes counter
// planes branch-free, falling back to the generic ripple only for the rare
// long carry chains.
func (a *Accumulator) Add(v *Vector) {
	if v.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, vector dim %d", a.dim, v.dim))
	}
	data := a.counters()
	for w, c := range v.words {
		if c == 0 {
			continue
		}
		d := data[w*maxPlanes:]
		_ = d[unrollPlanes-1]
		t := d[0]
		d[0] = t ^ c
		c &= t
		t = d[1]
		d[1] = t ^ c
		c &= t
		t = d[2]
		d[2] = t ^ c
		c &= t
		if c != 0 {
			ripple(d, c, unrollPlanes)
		}
	}
	a.n++
	a.planes() // overflow check
}

// ripple propagates a carry c through counter planes d starting at plane
// from. Updating plane p with carry c leaves it at d[p]^c and forwards
// d[p]&c; the chain ends when the carry dies out.
func ripple(d []uint64, c uint64, from int) {
	for p := from; ; p++ {
		if p == maxPlanes {
			panic("hv: accumulator counter overflow")
		}
		t := d[p]
		d[p] = t ^ c
		c &= t
		if c == 0 {
			return
		}
	}
}

// addWords ripple-adds the single-bit-per-component vector `words` into the
// counters at bit position `from` (i.e. adds words · 2^from).
func (a *Accumulator) addWords(words []uint64, from int) {
	data := a.counters()
	for w, c := range words {
		if c == 0 {
			continue
		}
		ripple(data[w*maxPlanes:], c, from)
	}
}

// AddWeighted accumulates one hypervector with a non-negative integer
// weight. Weighted bundling is used, e.g., when merging pre-aggregated class
// accumulators.
func (a *Accumulator) AddWeighted(v *Vector, weight int) {
	if v.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, vector dim %d", a.dim, v.dim))
	}
	if weight < 0 {
		panic(fmt.Sprintf("hv: negative bundle weight %d", weight))
	}
	if weight == 0 {
		return
	}
	for j := 0; weight>>uint(j) != 0; j++ {
		if weight>>uint(j)&1 == 1 {
			a.addWords(v.words, j)
		}
	}
	a.n += weight
	a.planes() // overflow check
}

// Merge adds the contents of another accumulator into a.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, other dim %d", a.dim, b.dim))
	}
	if b.n == 0 {
		return
	}
	data := a.counters()
	bdata := b.counters()
	bp := b.planes()
	for w := 0; w < a.nw; w++ {
		base := w * maxPlanes
		for p := 0; p < bp; p++ {
			if c := bdata[base+p]; c != 0 {
				ripple(data[base:], c, p)
			}
		}
	}
	a.n += b.n
	a.planes() // overflow check
}

// Clone returns a deep copy of the accumulator: same dimensionality, seed,
// weight and per-component counters, sharing no storage with the receiver.
// Reconciliation uses it to export a live stripe's counters while the
// original keeps accumulating.
func (a *Accumulator) Clone() *Accumulator {
	b := &Accumulator{dim: a.dim, nw: a.nw, n: a.n, seed: a.seed}
	if a.data != nil {
		b.data = make([]uint64, len(a.data))
		copy(b.data, a.data)
	}
	return b
}

// Reset empties the accumulator for reuse. The counter storage is kept, so
// a reused accumulator runs at a zero-allocation steady state.
func (a *Accumulator) Reset() {
	if a.data != nil {
		// Only planes that could hold bits need clearing, but the branch-free
		// Add path writes (value-preserving) stores into the first
		// unrollPlanes planes regardless, so clear at least those.
		p := a.planes()
		if p < unrollPlanes {
			p = unrollPlanes
		}
		for w := 0; w < a.nw; w++ {
			base := w * maxPlanes
			clear(a.data[base : base+p])
		}
	}
	a.n = 0
}

// Majority thresholds the accumulator into a hypervector. Components where
// more than half the accumulated vectors had a 1 become 1; fewer than half
// become 0; exact ties (possible only for even counts) are broken by a
// deterministic pseudo-random pattern seeded from the accumulator seed, as
// the paper prescribes for even-way majorities.
func (a *Accumulator) Majority() *Vector {
	v := New(a.dim)
	if a.n == 0 || a.data == nil {
		return v
	}
	// Majority at component i ⇔ ones(i) > floor(n/2); tie ⇔ n even and
	// ones(i) == n/2.
	t := uint64(a.n / 2)
	np := a.planes()
	var tie *Vector
	for w := 0; w < a.nw; w++ {
		base := w * maxPlanes
		gt, eq := compareWord(a.data[base:base+np], t)
		if a.n%2 == 0 && eq != 0 {
			if tie == nil {
				tie = tieBreak(a.dim, a.seed)
			}
			gt |= eq & tie.words[w]
		}
		v.words[w] = gt
	}
	v.words[a.nw-1] &= tailMask(a.dim)
	return v
}

// Counts materializes the per-component ones counters. It allocates; use it
// for inspection and tests, not in hot loops.
func (a *Accumulator) Counts() []int32 {
	return a.CountsInto(make([]int32, a.dim))
}

// CountsInto is Counts into a caller-provided buffer, which must have length
// Dim. It returns dst. This is the zero-allocation counter-export path the
// learn reconciliation uses to audit stripe merges.
func (a *Accumulator) CountsInto(dst []int32) []int32 {
	if len(dst) != a.dim {
		panic(fmt.Sprintf("hv: counts buffer length %d, dim %d", len(dst), a.dim))
	}
	if a.data == nil {
		clear(dst)
		return dst
	}
	np := a.planes()
	for i := 0; i < a.dim; i++ {
		base := (i / wordBits) * maxPlanes
		off := uint(i) % wordBits
		var c int32
		for p := 0; p < np; p++ {
			c += int32(a.data[base+p]>>off&1) << uint(p)
		}
		dst[i] = c
	}
	return dst
}

// Margin returns, for component i, the signed margin 2·ones − n: positive
// means the majority is 1, negative 0, zero a tie. Hardware models use it to
// reason about bundling confidence.
func (a *Accumulator) Margin(i int) int {
	if i < 0 || i >= a.dim {
		panic(fmt.Sprintf("hv: index %d out of range [0,%d)", i, a.dim))
	}
	ones := 0
	if a.data != nil {
		base := (i / wordBits) * maxPlanes
		off := uint(i) % wordBits
		np := a.planes()
		for p := 0; p < np; p++ {
			ones += int(a.data[base+p]>>off&1) << uint(p)
		}
	}
	return 2*ones - a.n
}

// tieCacheMax bounds the tie-break cache. Serving encodes every query with
// one fixed seed, so a handful of entries gives it a ~100% hit rate; callers
// that derive a seed per sample only churn the cache, never grow it.
const tieCacheMax = 64

type tieKey struct {
	dim  int
	seed uint64
}

// ties memoizes tie-break vectors per (dim, seed). The vectors are shared
// and must never be mutated.
var ties struct {
	sync.Mutex
	m map[tieKey]*Vector
}

// tieBreak returns the deterministic tie-break vector for a seed: a PCG
// stream keyed by the seed, cached so that the even-count majorities of a
// serving loop neither reseed a generator nor allocate.
func tieBreak(dim int, seed uint64) *Vector {
	k := tieKey{dim, seed}
	ties.Lock()
	defer ties.Unlock()
	if v, ok := ties.m[k]; ok {
		return v
	}
	v := Random(dim, rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)))
	if ties.m == nil {
		ties.m = make(map[tieKey]*Vector)
	}
	if len(ties.m) >= tieCacheMax {
		for old := range ties.m { // evict an arbitrary entry
			delete(ties.m, old)
			break
		}
	}
	ties.m[k] = v
	return v
}

// MajorityOf bundles the given vectors in one call. It is a convenience
// wrapper over Accumulator for small sets; ties break via seed.
func MajorityOf(seed uint64, vs ...*Vector) *Vector {
	if len(vs) == 0 {
		panic("hv: majority of zero vectors")
	}
	acc := NewAccumulator(vs[0].dim, seed)
	for _, v := range vs {
		acc.Add(v)
	}
	return acc.Majority()
}
