// Package encoder implements the paper's text encoding module: it projects
// a stream of letters onto a single hypervector by forming letter n-grams
// with permutation and binding, then bundling all n-gram hypervectors with
// component-wise majority (§II-A1).
//
// A trigram a-b-c is encoded as ρ(ρ(A) ⊕ B) ⊕ C = ρ²(A) ⊕ ρ(B) ⊕ C, where
// ρ is a cyclic rotation by one and ⊕ is component-wise XOR. Because ρ
// distributes over ⊕, packed word w of a gram needs only word w of each
// rotated item: the encoder looks those up in an immutable per-word symbol
// table (hv.NGramTable) shared by every encoder of the process with the
// same (dim, item seed, n), and counts each word's grams in registers with
// a carry-save tree. No gram vector is ever materialized, and EncodeText
// thresholds the counts straight into the majority without an accumulator.
// AccumulateText, the training path, counts the text's distinct grams
// first and bundles each once, weighted by its count.
package encoder

import (
	"fmt"
	"sync"

	"hdam/internal/hv"
	"hdam/internal/itemmem"
)

// Encoder turns text into hypervectors using letter n-grams over an item
// memory. The zero value is unusable; use New.
//
// An Encoder keeps scratch (symbol ids, and gram counts once it has
// accumulated a text) so the encode hot path does not allocate in steady
// state; consequently an Encoder must not be shared between goroutines. Its
// symbol table is immutable and shared, so per-goroutine encoders over
// item memories with the same seed are cheap and agree bit-for-bit.
type Encoder struct {
	im  *itemmem.ItemMemory
	n   int
	dim int
	tab *hv.NGramTable // shared and immutable

	ids    []byte        // per-text symbol-id scratch
	counts hv.GramCounts // AccumulateText's gram-count scratch
}

// New returns an n-gram encoder over the given item memory. The paper uses
// n = 3 (trigrams) for language recognition. The encoder derives its symbol
// table from the memory's dimension and seed; it never adds symbols to im.
func New(im *itemmem.ItemMemory, n int) *Encoder {
	if n < 1 {
		panic(fmt.Sprintf("encoder: n-gram size %d < 1", n))
	}
	return &Encoder{im: im, n: n, dim: im.Dim(), tab: tableFor(im.Dim(), im.Seed(), n)}
}

// tableCacheMax bounds the process-wide table cache. A serving process
// uses one (dim, seed, n); experiment sweeps use a few. A table evicted
// while encoders still hold it stays alive with them.
const tableCacheMax = 8

type tableKey struct {
	dim  int
	seed uint64
	n    int
}

// tables shares one symbol table per (dim, seed, n) across the process:
// serving pools, learn stripes and hot-swapped generations each build
// fresh encoders, and none of them should pay for a table of its own.
var tables struct {
	sync.Mutex
	m map[tableKey]*hv.NGramTable
}

// tableFor returns the shared symbol table for n-grams over the normalized
// alphabet of an item memory with the given dimension and seed. Symbol id i
// is itemmem.LatinAlphabet[i].
func tableFor(dim int, seed uint64, n int) *hv.NGramTable {
	k := tableKey{dim, seed, n}
	tables.Lock()
	defer tables.Unlock()
	if t, ok := tables.m[k]; ok {
		return t
	}
	items := make([]*hv.Vector, len(itemmem.LatinAlphabet))
	for i, r := range itemmem.LatinAlphabet {
		items[i] = itemmem.Item(dim, seed, r)
	}
	t := hv.NewNGramTable(items, n)
	if tables.m == nil {
		tables.m = make(map[tableKey]*hv.NGramTable)
	}
	if len(tables.m) >= tableCacheMax {
		for old := range tables.m { // evict an arbitrary entry
			delete(tables.m, old)
			break
		}
	}
	tables.m[k] = t
	return t
}

// N returns the n-gram order.
func (e *Encoder) N() int { return e.n }

// Dim returns the hypervector dimensionality.
func (e *Encoder) Dim() int { return e.dim }

// ItemMemory returns the underlying item memory.
func (e *Encoder) ItemMemory() *itemmem.ItemMemory { return e.im }

// Seed returns the item memory's seed. Two encoders with the same Dim, N
// and Seed encode every text bit-identically.
func (e *Encoder) Seed() uint64 { return e.im.Seed() }

// NGram encodes a single n-gram directly from its definition:
// ρ^{n-1}(g[0]) ⊕ ρ^{n-2}(g[1]) ⊕ … ⊕ g[n-1]. It exists as the reference
// implementation that the table kernel is tested against.
func (e *Encoder) NGram(gram []rune) *hv.Vector {
	if len(gram) != e.n {
		panic(fmt.Sprintf("encoder: gram length %d, want %d", len(gram), e.n))
	}
	acc := hv.New(e.dim)
	for _, r := range gram {
		acc = hv.Rotate1(acc)
		hv.BindInto(acc, acc, e.im.Get(r))
	}
	return acc
}

// AccumulateText normalizes text and adds every n-gram hypervector into
// acc. Use it to build a class (language) hypervector from many megabytes of
// training text, or to fold many examples into one accumulator. It returns
// the number of n-grams added. It counts the text's grams first, in the
// encoder's scratch, and when the text repeats its grams enough (a
// training corpus does; a 100-character example does not) bundles each
// distinct gram once per set bit of its count (hv.NGramTable.Accumulate).
// The counts left in acc are those of one Add per gram either way.
func (e *Encoder) AccumulateText(acc *hv.Accumulator, text string) int {
	if acc.Dim() != e.dim {
		panic(fmt.Sprintf("encoder: accumulator dim %d, encoder dim %d", acc.Dim(), e.dim))
	}
	return e.tab.Accumulate(acc, e.symbols(text), &e.counts)
}

// EncodeText encodes one text sample into a single hypervector (the paper's
// "text hypervector"): all n-gram hypervectors bundled by majority. seed
// controls tie-breaking for even n-gram counts, exactly as an Accumulator
// with that seed would. The returned vector is freshly allocated and is the
// only allocation of a warm encoder.
func (e *Encoder) EncodeText(text string, seed uint64) (*hv.Vector, int) {
	v := hv.New(e.dim)
	return v, e.tab.Bundle(v, e.symbols(text), seed)
}

// symbols normalizes text into the encoder's symbol-id scratch.
func (e *Encoder) symbols(text string) []byte {
	e.ids = normalize(e.ids[:0], text, 0, spaceID)
	return e.ids
}
