package hv

import (
	"math/rand/v2"
	"testing"
)

// TestNGramTableMatchesAdd checks the kernel against grams built from the
// definition ρⁿ⁻¹(s₀) ⊕ … ⊕ sₙ₋₁ with Permute and Bind, over the full
// 32-symbol id range, for both outputs: Bundle against Add + Majority, and
// Accumulate against Add counts. Gram counts straddle the 16-gram block.
// Random ids repeat few grams and stream; the periodic texts of the last
// three cases repeat a few grams hundreds of times and take the counted
// path.
func TestNGramTableMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 5))
	for _, n := range []int{1, 2, 3, 7} {
		for _, dim := range []int{1, 64, 130} {
			items := make([]*Vector, ngramSymbols)
			for i := range items {
				items[i] = Random(dim, rng)
			}
			tab := NewNGramTable(items, n)
			for _, g := range []int{1, 15, 16, 17, 48, 50, 601, 602, 605} {
				ids := make([]byte, g+n-1)
				for i := range ids {
					ids[i] = byte(rng.IntN(ngramSymbols))
				}
				if period := g - 600; period > 0 {
					for i := range ids {
						ids[i] = byte(ngramSymbols - 1 - i%period)
					}
				}
				want := NewAccumulator(dim, 21)
				for p := 0; p < g; p++ {
					gram := New(dim)
					for k := 0; k < n; k++ {
						BindInto(gram, gram, Permute(items[ids[p+k]], n-1-k))
					}
					want.Add(gram)
				}
				got := NewAccumulator(dim, 21)
				if c := tab.Accumulate(got, ids, new(GramCounts)); c != g {
					t.Fatalf("n=%d dim=%d: Accumulate counted %d grams, want %d", n, dim, c, g)
				}
				gc, wc := got.Counts(), want.Counts()
				for i := range gc {
					if gc[i] != wc[i] {
						t.Fatalf("n=%d dim=%d G=%d: component %d count %d, want %d", n, dim, g, i, gc[i], wc[i])
					}
				}
				v := Random(dim, rng) // Bundle must overwrite every word
				if c := tab.Bundle(v, ids, 21); c != g || !v.Equal(want.Majority()) {
					t.Fatalf("n=%d dim=%d G=%d: Bundle differs from Add + Majority", n, dim, g)
				}
			}
			short := make([]byte, n-1)
			v := Random(dim, rng)
			if tab.Bundle(v, short, 1) != 0 || v.Ones() != 0 {
				t.Fatalf("n=%d: text shorter than n must bundle to zero grams and the zero vector", n)
			}
		}
	}
}

// TestTieBreakCacheBounded: the tie-break cache holds at most tieCacheMax
// vectors however many seeds pass through it, and a cached or re-derived
// vector always equals the seed's PCG stream.
func TestTieBreakCacheBounded(t *testing.T) {
	for seed := uint64(0); seed < 3*tieCacheMax; seed++ {
		got := tieBreak(100, seed%(tieCacheMax+7))
		want := Random(100, rand.New(rand.NewPCG(seed%(tieCacheMax+7), 0x9e3779b97f4a7c15)))
		if !got.Equal(want) {
			t.Fatalf("seed %d: tie-break vector differs from its PCG stream", seed)
		}
	}
	ties.Lock()
	size := len(ties.m)
	ties.Unlock()
	if size > tieCacheMax {
		t.Fatalf("tie-break cache holds %d vectors, bound %d", size, tieCacheMax)
	}
}
