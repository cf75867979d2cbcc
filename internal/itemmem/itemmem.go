// Package itemmem implements the item memory of an HD computing system: a
// fixed table that assigns every basic symbol (e.g. the 26 Latin letters
// plus space) a seed hypervector with an equal number of randomly placed 0s
// and 1s. The assignment is fixed throughout the computation (paper §II-A1)
// and, here, deterministic in a seed so that training and inference across
// processes agree.
package itemmem

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"hdam/internal/hv"
)

// ItemMemory maps symbols to fixed seed hypervectors. ASCII symbols — the
// whole normalized alphabet of the language application — resolve through a
// dense array instead of the map, so the encode hot path never pays for map
// hashing.
type ItemMemory struct {
	dim   int
	seed  uint64
	items map[rune]*hv.Vector
	ascii [128]*hv.Vector // dense fast path for ASCII symbols
	order []rune          // insertion order, for deterministic iteration

	sorted []rune // cached sorted symbols; nil when stale
}

// New returns an empty item memory producing vectors of the given dimension.
// All vectors are derived deterministically from (seed, symbol), so two item
// memories built with the same seed agree symbol-by-symbol regardless of the
// order symbols were requested in.
func New(dim int, seed uint64) *ItemMemory {
	if dim <= 0 {
		panic(fmt.Sprintf("itemmem: non-positive dimension %d", dim))
	}
	return &ItemMemory{dim: dim, seed: seed, items: make(map[rune]*hv.Vector)}
}

// Dim returns the dimensionality of stored vectors.
func (m *ItemMemory) Dim() int { return m.dim }

// Len returns the number of distinct symbols assigned so far.
func (m *ItemMemory) Len() int { return len(m.items) }

// Get returns the hypervector for symbol r, creating and memoizing it on
// first use. Creation is a pure function of (seed, r).
func (m *ItemMemory) Get(r rune) *hv.Vector {
	if uint32(r) < 128 {
		if v := m.ascii[r]; v != nil {
			return v
		}
	} else if v, ok := m.items[r]; ok {
		return v
	}
	v := Item(m.dim, m.seed, r)
	m.items[r] = v
	if uint32(r) < 128 {
		m.ascii[r] = v
	}
	m.order = append(m.order, r)
	m.sorted = nil
	return v
}

// Item returns the hypervector an item memory of dimension dim and the
// given seed assigns symbol r, without storing it: Get is Item memoized.
// Encoders use it to derive symbol tables without growing a caller's
// memory.
func Item(dim int, seed uint64, r rune) *hv.Vector {
	rng := rand.New(rand.NewPCG(seed, uint64(r)*0x9e3779b97f4a7c15+1))
	return hv.RandomBalanced(dim, rng)
}

// Seed returns the seed every item vector is derived from.
func (m *ItemMemory) Seed() uint64 { return m.seed }

// Has reports whether symbol r has been assigned.
func (m *ItemMemory) Has(r rune) bool {
	_, ok := m.items[r]
	return ok
}

// sortedSymbols returns the assigned symbols in sorted order, recomputing
// the cached slice only after an insertion invalidated it. Callers must not
// mutate the result.
func (m *ItemMemory) sortedSymbols() []rune {
	if m.sorted == nil && len(m.order) > 0 {
		m.sorted = make([]rune, len(m.order))
		copy(m.sorted, m.order)
		sort.Slice(m.sorted, func(i, j int) bool { return m.sorted[i] < m.sorted[j] })
	}
	return m.sorted
}

// Symbols returns the assigned symbols sorted for deterministic reporting.
func (m *ItemMemory) Symbols() []rune {
	out := make([]rune, len(m.order))
	copy(out, m.sortedSymbols())
	return out
}

// Preload assigns vectors for all runes in the alphabet up front. The
// paper's language application preloads the 26 Latin letters plus space,
// forming "27 unique orthogonal hypervectors".
func (m *ItemMemory) Preload(alphabet string) {
	for _, r := range alphabet {
		m.Get(r)
	}
}

// Cleanup performs item-memory cleanup: given a possibly noisy hypervector,
// it returns the stored symbol whose vector is nearest in Hamming distance,
// together with that distance. It is the auto-associative counterpart of the
// hetero-associative search the HAM designs implement.
func (m *ItemMemory) Cleanup(v *hv.Vector) (rune, int) {
	if len(m.items) == 0 {
		panic("itemmem: cleanup on empty item memory")
	}
	if v.Dim() != m.dim {
		panic(fmt.Sprintf("itemmem: vector dim %d, memory dim %d", v.Dim(), m.dim))
	}
	best := rune(-1)
	bestD := m.dim + 1
	// Iterate in sorted-symbol order so ties resolve deterministically.
	for _, r := range m.sortedSymbols() {
		if d := hv.Hamming(v, m.items[r]); d < bestD {
			best, bestD = r, d
		}
	}
	return best, bestD
}

// LatinAlphabet is the 27-symbol alphabet of the paper's language
// recognition application: the 26 lower-case Latin letters and the space.
const LatinAlphabet = "abcdefghijklmnopqrstuvwxyz "
