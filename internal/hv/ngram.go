package hv

import (
	"fmt"
	"math/bits"
)

// ngramSymbols is the symbol capacity of an NGramTable. Symbol ids are
// masked to five bits, so every table row is a 32-entry array and no
// lookup needs a bounds check.
const ngramSymbols = 32

// NGramTable is the immutable symbol table of the n-gram bundling kernel.
// Because ρ distributes over ⊕, an n-gram s₀…sₙ₋₁ encodes as
// ρⁿ⁻¹(s₀) ⊕ ρⁿ⁻²(s₁) ⊕ … ⊕ sₙ₋₁, and word w of that vector depends only
// on word w of each rotated item. Row w·n+k of the table holds word w of
// ρⁿ⁻¹⁻ᵏ(item[s]) for every symbol s, so word w of the gram starting at
// letter p is the XOR of rows[w·n+k][ids[p+k]] over k: n loads and n−1
// XORs, with no rotation at encode time. The rows of one packed word are
// adjacent (n·256 bytes), so the kernel's word-major sweep keeps them in
// L1. A table is read-only after construction and safe for concurrent use.
type NGramTable struct {
	dim, n, nw int
	rows       [][ngramSymbols]uint64
}

// NewNGramTable builds the table for n-grams over the given symbol item
// vectors: symbol id s stands for items[s]. All items must share one
// dimension, and there may be at most 32 of them.
func NewNGramTable(items []*Vector, n int) *NGramTable {
	if n < 1 {
		panic(fmt.Sprintf("hv: n-gram size %d < 1", n))
	}
	if len(items) == 0 || len(items) > ngramSymbols {
		panic(fmt.Sprintf("hv: %d n-gram symbols, want 1..%d", len(items), ngramSymbols))
	}
	dim := items[0].dim
	nw := wordsFor(dim)
	t := &NGramTable{dim: dim, n: n, nw: nw, rows: make([][ngramSymbols]uint64, nw*n)}
	for s, v := range items {
		mustSameDim(v, items[0])
		rot := v // ρʲ(item), the term of gram position k = n−1−j
		for j := 0; j < n; j++ {
			if j > 0 {
				rot = Rotate1(rot)
			}
			k := n - 1 - j
			for w, x := range rot.words {
				t.rows[w*n+k][s] = x
			}
		}
	}
	return t
}

// grams returns the number of n-grams in a text of len(ids) symbols.
func (t *NGramTable) grams(ids []byte) int {
	return max(len(ids)-t.n+1, 0)
}

// Bundle writes the majority of every n-gram of the symbol-id text into
// dst and returns the gram count: a lane is 1 where more than ⌊G/2⌋ of the
// G grams have a 1, and exact ties (even G) take the seed's tie-break bit —
// bit-identical to adding every gram to an Accumulator seeded with seed and
// calling Majority. No gram vector or counter array is ever materialized:
// each packed word's count lives in registers and is thresholded at once.
// With fewer than n symbols dst is zeroed and 0 returned. Bundle does not
// allocate unless the seed's tie-break vector is not yet cached.
func (t *NGramTable) Bundle(dst *Vector, ids []byte, seed uint64) int {
	if dst.dim != t.dim {
		panic(fmt.Sprintf("hv: n-gram table dim %d, vector dim %d", t.dim, dst.dim))
	}
	g := t.grams(ids)
	if g == 0 {
		dst.Zero()
		return 0
	}
	half := uint64(g / 2)
	var tie *Vector
	var wc wordCount
	for w := range dst.words {
		np := t.countWord(&wc, w, ids, nil, g)
		gt, eq := compareWord(wc.planes[:np], half)
		if g%2 == 0 && eq != 0 {
			if tie == nil {
				tie = tieBreak(t.dim, seed)
			}
			gt |= eq & tie.words[w]
		}
		dst.words[w] = gt
	}
	dst.words[t.nw-1] &= tailMask(t.dim)
	return g
}

// Accumulate adds every n-gram of the symbol-id text to acc with weight 1
// and returns the gram count. The counts are exactly those of one Add per
// gram. It works in two steps. A counting pass keys each gram by its packed
// 5-bit symbol ids and counts it in sc, with O(1) work per gram. Bundling
// is a per-lane sum, so Σ_grams H(g) = Σ_distinct c_g·H(g): when the text
// repeats its grams enough that the distinct grams, weighted by the set
// bits of their counts, are fewer than half the grams, each distinct gram
// is bundled once per set bit of its count. The grams that share count bit
// j run through the carry-save tree as one group, whose planes ripple in
// at weight 2ʲ. Otherwise, and for n > 12 where a key does not fit a word,
// the grams stream through the tree one by one. Either way each packed
// word's counter planes are touched once per group, not once per gram. sc
// is scratch the caller keeps for its next text; a warm sc makes
// Accumulate allocation-free for texts no larger than it has seen.
func (t *NGramTable) Accumulate(acc *Accumulator, ids []byte, sc *GramCounts) int {
	if acc.dim != t.dim {
		panic(fmt.Sprintf("hv: n-gram table dim %d, accumulator dim %d", t.dim, acc.dim))
	}
	g := t.grams(ids)
	if g == 0 {
		return 0
	}
	data := acc.counters()
	var wc wordCount
	if t.n <= maxKeyedN && 2*sc.count(ids, t.n) <= g {
		groups := sc.group()
		for w := range t.nw {
			d := data[w*maxPlanes : (w+1)*maxPlanes]
			for j, keys := range groups {
				if len(keys) > 0 {
					addPlanes(d, wc.planes[:t.countWord(&wc, w, nil, keys, len(keys))], j)
				}
			}
		}
	} else {
		sc.reset()
		for w := range t.nw {
			addPlanes(data[w*maxPlanes:(w+1)*maxPlanes], wc.planes[:t.countWord(&wc, w, ids, nil, g)], 0)
		}
	}
	acc.n += g
	acc.planes() // overflow check
	return g
}

// countWord counts word w of g grams into wc.planes: on return, bit i of
// planes[p] is bit p of lane i's count, for p below the returned plane count
// bits.Len(g). The grams are those of the symbol-id text ids, or, when keys
// is non-nil, the g packed gram keys in keys. A Harley-Seal carry-save tree
// adds the grams 16 at a time. The trigrams of a text run through
// trigramBlocks, which computes each gram-word as an operand of the tree
// and keeps all eight planes, ones through 128s, in registers. Other
// orders, keyed grams and the final partial block of a text write their
// gram-words to wc.x (gramBlock, keyTerms, gramTail) and go through the
// tree below, which keeps ones through eights in registers and ripples its
// sixteens carry into planes[4:]. A text's final partial block is
// padded with zero terms, which add nothing to any count: when the text has
// at least 16 grams it is the block that ends at the last gram, with the
// grams already counted zeroed. The keyed tail is added one gram at a time
// instead: count groups are often only a few grams, for which a padded
// block costs more than the adds.
func (t *NGramTable) countWord(wc *wordCount, w int, ids []byte, keys []uint64, g int) int {
	planes, x := &wc.planes, &wc.x
	n := t.n
	rows := t.rows[w*n : w*n+n]
	np := bits.Len(uint(g))
	if np > maxPlanes {
		panic("hv: accumulator counter overflow")
	}
	if np > 4 {
		clear(planes[4:np])
	}
	var ones, twos, fours, eights uint64
	p := 0
	if n == 3 && keys == nil {
		p = g &^ 15
		ones, twos, fours, eights = trigramBlocks(planes, (*[3][ngramSymbols]uint64)(rows), ids[:p+2])
	}
	end := g
	if keys != nil {
		end = g &^ 15
	}
	for ; p < end; p += 16 {
		switch {
		case keys != nil:
			keyTerms(x[:], rows, keys[p:p+16])
		case p+16 <= g:
			gramBlock(x, rows, ids[p:])
		case g >= 16:
			gramBlock(x, rows, ids[g-16:])
			clear(x[:p+16-g])
		default:
			gramTail(x[:g], rows, ids)
			clear(x[g:])
		}
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		twosA, ones = csa(ones, x[0], x[1])
		twosB, ones = csa(ones, x[2], x[3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, x[4], x[5])
		twosB, ones = csa(ones, x[6], x[7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, x[8], x[9])
		twosB, ones = csa(ones, x[10], x[11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, x[12], x[13])
		twosB, ones = csa(ones, x[14], x[15])
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		sixteens, eights = csa(eights, eightsA, eightsB)
		if sixteens != 0 {
			ripple(planes[:], sixteens, 4)
		}
	}
	if p < g { // the keyed tail, one gram at a time
		keyTerms(x[:g-p], rows, keys[p:g])
		for _, c := range x[:g-p] {
			ones, c = ones^c, ones&c
			twos, c = twos^c, twos&c
			fours, c = fours^c, fours&c
			eights, c = eights^c, eights&c
			if c != 0 {
				ripple(planes[:], c, 4)
			}
		}
	}
	planes[0], planes[1], planes[2], planes[3] = ones, twos, fours, eights
	return np
}

// wordCount is countWord's scratch: the count planes it returns and one
// block's gram-words. Bundle and Accumulate keep one for all words.
type wordCount struct {
	planes [maxPlanes]uint64
	x      [16]uint64
}

// trigramBlocks adds word w of the trigrams of ids, given that word's three
// table rows, to the planes: len(ids)−2 must be a multiple of 16. It is
// countWord's tree with each gram-word r0[b[q]] ⊕ r1[b[q+1]] ⊕ r2[b[q+2]]
// computed as the tree's operand (3 loads and 2 XORs; each id is loaded
// once for the three grams that read it), and with the sixteens through
// 128s planes held in registers too. Only a carry out of the 128s plane
// ripples into planes[8:]. It stores the 16s … 128s planes into planes[4:8]
// and returns the four lower ones.
func trigramBlocks(planes *[maxPlanes]uint64, r *[3][ngramSymbols]uint64, ids []byte) (ones, twos, fours, eights uint64) {
	var s16, s32, s64, s128 uint64
	var twosA, twosB, foursA, foursB, eightsA, eightsB, c uint64
	for ; len(ids) >= 18; ids = ids[16:] {
		b := (*[18]byte)(ids)
		twosA, ones = csa(ones, gram3(r, b, 0), gram3(r, b, 1))
		twosB, ones = csa(ones, gram3(r, b, 2), gram3(r, b, 3))
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, gram3(r, b, 4), gram3(r, b, 5))
		twosB, ones = csa(ones, gram3(r, b, 6), gram3(r, b, 7))
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, gram3(r, b, 8), gram3(r, b, 9))
		twosB, ones = csa(ones, gram3(r, b, 10), gram3(r, b, 11))
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, gram3(r, b, 12), gram3(r, b, 13))
		twosB, ones = csa(ones, gram3(r, b, 14), gram3(r, b, 15))
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		c, eights = csa(eights, eightsA, eightsB)
		s16, c = s16^c, s16&c
		s32, c = s32^c, s32&c
		s64, c = s64^c, s64&c
		s128, c = s128^c, s128&c
		if c != 0 {
			ripple(planes[:], c, 8)
		}
	}
	planes[4], planes[5], planes[6], planes[7] = s16, s32, s64, s128
	return ones, twos, fours, eights
}

// gram3 is word w of the trigram starting at b[q]: the three rows of word w
// looked up at b[q], b[q+1] and b[q+2].
func gram3(r *[3][ngramSymbols]uint64, b *[18]byte, q int) uint64 {
	const m = ngramSymbols - 1
	return r[0][b[q]&m] ^ r[1][b[q+1]&m] ^ r[2][b[q+2]&m]
}

// addPlanes adds the bit-sliced counts in planes, times 2^from, into the
// counter planes d of one packed word.
func addPlanes(d, planes []uint64, from int) {
	for p, c := range planes {
		if c != 0 {
			ripple(d, c, p+from)
		}
	}
}

// keyTerms writes one packed word of each gram given by its packed key into
// x, given that word's n table rows. The key holds the gram's last symbol id in its
// low five bits, and that id meets the last row. Like gramBlock it sweeps
// the terms three at a time over all keys, here from the last row back, so
// each sweep takes its three ids at fixed shifts of one shifted key.
func keyTerms(x []uint64, rows [][ngramSymbols]uint64, keys []uint64) {
	const m = ngramSymbols - 1
	x = x[:len(keys)]
	k := len(rows) // rows[k:] are in x
	if k >= 3 {
		r0, r1, r2 := &rows[k-3], &rows[k-2], &rows[k-1]
		for q, key := range keys {
			x[q] = r0[key>>10&m] ^ r1[key>>5&m] ^ r2[key&m]
		}
		k -= 3
	} else {
		clear(x)
	}
	for ; k >= 3; k -= 3 {
		r0, r1, r2 := &rows[k-3], &rows[k-2], &rows[k-1]
		s := uint(5 * (len(rows) - k))
		for q, key := range keys {
			key >>= s
			x[q] ^= r0[key>>10&m] ^ r1[key>>5&m] ^ r2[key&m]
		}
	}
	for ; k > 0; k-- {
		r, s := &rows[k-1], uint(5*(len(rows)-k))
		for q, key := range keys {
			x[q] ^= r[key>>s&m]
		}
	}
}

// gramBlock writes one packed word of each of the 16 grams starting at
// ids[0], ids[1], …, ids[15] into x, given that word's n table rows. It
// sweeps the terms three at a time, and each sweep is 16 independent
// lookups. It serves orders other than 3 and the last block of a trigram
// text; full trigram blocks skip x (trigramBlocks).
func gramBlock(x *[16]uint64, rows [][ngramSymbols]uint64, ids []byte) {
	k := 0
	if len(rows) >= 3 {
		setTerms3(x, &rows[0], &rows[1], &rows[2], (*[18]byte)(ids))
		k = 3
	} else {
		*x = [16]uint64{}
	}
	for ; k+3 <= len(rows); k += 3 {
		xorTerms3(x, &rows[k], &rows[k+1], &rows[k+2], (*[18]byte)(ids[k:]))
	}
	for ; k < len(rows); k++ {
		xorTerm(x, &rows[k], (*[16]byte)(ids[k:]))
	}
}

// setTerms3 sets x to three consecutive gram terms: term rows r0, r1, r2
// looked up at b[q], b[q+1], b[q+2] for gram q.
func setTerms3(x *[16]uint64, r0, r1, r2 *[ngramSymbols]uint64, b *[18]byte) {
	const m = ngramSymbols - 1
	x[0] = r0[b[0]&m] ^ r1[b[1]&m] ^ r2[b[2]&m]
	x[1] = r0[b[1]&m] ^ r1[b[2]&m] ^ r2[b[3]&m]
	x[2] = r0[b[2]&m] ^ r1[b[3]&m] ^ r2[b[4]&m]
	x[3] = r0[b[3]&m] ^ r1[b[4]&m] ^ r2[b[5]&m]
	x[4] = r0[b[4]&m] ^ r1[b[5]&m] ^ r2[b[6]&m]
	x[5] = r0[b[5]&m] ^ r1[b[6]&m] ^ r2[b[7]&m]
	x[6] = r0[b[6]&m] ^ r1[b[7]&m] ^ r2[b[8]&m]
	x[7] = r0[b[7]&m] ^ r1[b[8]&m] ^ r2[b[9]&m]
	x[8] = r0[b[8]&m] ^ r1[b[9]&m] ^ r2[b[10]&m]
	x[9] = r0[b[9]&m] ^ r1[b[10]&m] ^ r2[b[11]&m]
	x[10] = r0[b[10]&m] ^ r1[b[11]&m] ^ r2[b[12]&m]
	x[11] = r0[b[11]&m] ^ r1[b[12]&m] ^ r2[b[13]&m]
	x[12] = r0[b[12]&m] ^ r1[b[13]&m] ^ r2[b[14]&m]
	x[13] = r0[b[13]&m] ^ r1[b[14]&m] ^ r2[b[15]&m]
	x[14] = r0[b[14]&m] ^ r1[b[15]&m] ^ r2[b[16]&m]
	x[15] = r0[b[15]&m] ^ r1[b[16]&m] ^ r2[b[17]&m]
}

// xorTerms3 is setTerms3 XOR-ing into x.
func xorTerms3(x *[16]uint64, r0, r1, r2 *[ngramSymbols]uint64, b *[18]byte) {
	const m = ngramSymbols - 1
	x[0] ^= r0[b[0]&m] ^ r1[b[1]&m] ^ r2[b[2]&m]
	x[1] ^= r0[b[1]&m] ^ r1[b[2]&m] ^ r2[b[3]&m]
	x[2] ^= r0[b[2]&m] ^ r1[b[3]&m] ^ r2[b[4]&m]
	x[3] ^= r0[b[3]&m] ^ r1[b[4]&m] ^ r2[b[5]&m]
	x[4] ^= r0[b[4]&m] ^ r1[b[5]&m] ^ r2[b[6]&m]
	x[5] ^= r0[b[5]&m] ^ r1[b[6]&m] ^ r2[b[7]&m]
	x[6] ^= r0[b[6]&m] ^ r1[b[7]&m] ^ r2[b[8]&m]
	x[7] ^= r0[b[7]&m] ^ r1[b[8]&m] ^ r2[b[9]&m]
	x[8] ^= r0[b[8]&m] ^ r1[b[9]&m] ^ r2[b[10]&m]
	x[9] ^= r0[b[9]&m] ^ r1[b[10]&m] ^ r2[b[11]&m]
	x[10] ^= r0[b[10]&m] ^ r1[b[11]&m] ^ r2[b[12]&m]
	x[11] ^= r0[b[11]&m] ^ r1[b[12]&m] ^ r2[b[13]&m]
	x[12] ^= r0[b[12]&m] ^ r1[b[13]&m] ^ r2[b[14]&m]
	x[13] ^= r0[b[13]&m] ^ r1[b[14]&m] ^ r2[b[15]&m]
	x[14] ^= r0[b[14]&m] ^ r1[b[15]&m] ^ r2[b[16]&m]
	x[15] ^= r0[b[15]&m] ^ r1[b[16]&m] ^ r2[b[17]&m]
}

// xorTerm XORs one gram term into x: row r looked up at b[q] for gram q.
func xorTerm(x *[16]uint64, r *[ngramSymbols]uint64, b *[16]byte) {
	const m = ngramSymbols - 1
	x[0] ^= r[b[0]&m]
	x[1] ^= r[b[1]&m]
	x[2] ^= r[b[2]&m]
	x[3] ^= r[b[3]&m]
	x[4] ^= r[b[4]&m]
	x[5] ^= r[b[5]&m]
	x[6] ^= r[b[6]&m]
	x[7] ^= r[b[7]&m]
	x[8] ^= r[b[8]&m]
	x[9] ^= r[b[9]&m]
	x[10] ^= r[b[10]&m]
	x[11] ^= r[b[11]&m]
	x[12] ^= r[b[12]&m]
	x[13] ^= r[b[13]&m]
	x[14] ^= r[b[14]&m]
	x[15] ^= r[b[15]&m]
}

// gramTail is gramBlock for a text of fewer than 16 grams: it writes word
// w of the len(x) grams starting at ids[0], ids[1], … into x. The unrolled
// gramBlock would read 15+n ids, more than the text has. Longer texts end
// with a gramBlock over their last 16 grams instead.
func gramTail(x []uint64, rows [][ngramSymbols]uint64, ids []byte) {
	const m = ngramSymbols - 1
	r := &rows[0]
	b := ids[:len(x)]
	for q, s := range b {
		x[q] = r[s&m]
	}
	for k := 1; k < len(rows); k++ {
		r = &rows[k]
		b = ids[k : k+len(x)]
		for q, s := range b {
			x[q] ^= r[s&m]
		}
	}
}

// csa is a carry-save adder: it compresses three bit planes into a sum
// plane lo and a carry plane hi of twice the weight.
func csa(a, b, c uint64) (hi, lo uint64) {
	u := a ^ b
	return (a & b) | (u & c), u ^ c
}

// compareWord compares the bit-sliced counts in planes (least significant
// plane first) against the constant t, lane-parallel: gt marks lanes whose
// count exceeds t, eq lanes whose count equals it. Counts are scanned from
// the most significant plane down, so t must fit in len(planes) bits.
func compareWord(planes []uint64, t uint64) (gt, eq uint64) {
	eq = ^uint64(0)
	for p := len(planes) - 1; p >= 0; p-- {
		cw := planes[p]
		var tbit uint64 // broadcast of bit p of t
		if t>>uint(p)&1 == 1 {
			tbit = ^uint64(0)
		}
		gt |= eq & cw &^ tbit
		eq &^= cw ^ tbit
	}
	return gt, eq
}
