package encoder

import (
	"math/rand/v2"
	"sync"
	"testing"

	"hdam/internal/hv"
	"hdam/internal/itemmem"
)

// referenceAccumulate adds every n-gram of text to acc from the definitions:
// each gram built by NGram (rotate and bind, symbol by symbol) and bundled
// by Accumulator.Add. It is what the table kernel must reproduce exactly.
func referenceAccumulate(e *Encoder, acc *hv.Accumulator, text string) int {
	letters := Normalize(text)
	g := 0
	for i := 0; i+e.n <= len(letters); i++ {
		acc.Add(e.NGram(letters[i : i+e.n]))
		g++
	}
	return g
}

// referenceEncode is EncodeText from the definitions: NGram + Add +
// Majority with the tie-break seed.
func referenceEncode(e *Encoder, text string, seed uint64) (*hv.Vector, int) {
	acc := hv.NewAccumulator(e.dim, seed)
	if g := referenceAccumulate(e, acc, text); g > 0 {
		return acc.Majority(), g
	}
	return hv.New(e.dim), 0
}

// normalizedText returns a random text of exactly letters symbols that
// Normalize leaves unchanged: a–z with single inner spaces.
func normalizedText(rng *rand.Rand, letters int) string {
	out := make([]rune, letters)
	for i := range out {
		r := rune(itemmem.LatinAlphabet[rng.IntN(len(itemmem.LatinAlphabet))])
		if r == ' ' && (i == 0 || i == letters-1 || out[i-1] == ' ') {
			r = 'a' + rune(rng.IntN(26))
		}
		out[i] = r
	}
	return string(out)
}

// TestAccumulateTextCountsMatchReference pins the learn-ingest pattern:
// several AccumulateText calls into one accumulator that already holds
// counts must leave Counts() exactly as one Add per gram would.
func TestAccumulateTextCountsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 3))
	for _, n := range []int{1, 3, 5} {
		for _, dim := range []int{65, 10000} {
			e := newTestEncoder(dim, n)
			got := hv.NewAccumulator(dim, 4)
			want := hv.NewAccumulator(dim, 4)
			for i := 0; i < 5; i++ { // a non-empty starting point
				v := hv.Random(dim, rng)
				got.Add(v)
				want.Add(v)
			}
			for _, g := range []int{17, 1, 256, 70_001, 32} {
				text := normalizedText(rng, g+n-1)
				if gn, wn := e.AccumulateText(got, text), referenceAccumulate(e, want, text); gn != wn {
					t.Fatalf("n=%d dim=%d: gram counts %d vs %d", n, dim, gn, wn)
				}
			}
			if got.Count() != want.Count() {
				t.Fatalf("n=%d dim=%d: weight %d vs %d", n, dim, got.Count(), want.Count())
			}
			gc, wc := got.Counts(), want.Counts()
			for i := range gc {
				if gc[i] != wc[i] {
					t.Fatalf("n=%d dim=%d: component %d count %d, want %d", n, dim, i, gc[i], wc[i])
				}
			}
		}
	}
}

// TestEncodersShareTableConcurrently: encoders from two factories with
// equal parameters — each building its own item memory, as
// learn.EncoderFactory does per stripe and per generation — share one
// symbol table, and encode concurrently and bit-identically. Run under
// -race. Building the table must not grow the factories' item memories.
func TestEncodersShareTableConcurrently(t *testing.T) {
	const dim, n, seed = 2048, 3, 77
	factory := func() func() *Encoder {
		return func() *Encoder { return New(itemmem.New(dim, seed), n) }
	}
	f1, f2 := factory(), factory()
	a, b := f1(), f2()
	if a.tab != b.tab {
		t.Fatal("encoders with equal (dim, seed, n) built separate tables")
	}
	if a.im.Len() != 0 || len(b.im.Symbols()) != 0 {
		t.Fatal("building the symbol table grew the caller's item memory")
	}
	rng := rand.New(rand.NewPCG(15, 4))
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = normalizedText(rng, 140+i%2) // odd and even G
	}
	encodeAll := func(e *Encoder) []*hv.Vector {
		out := make([]*hv.Vector, len(texts))
		for i, text := range texts {
			out[i], _ = e.EncodeText(text, seed)
		}
		return out
	}
	var wg sync.WaitGroup
	var ra, rb []*hv.Vector
	wg.Add(2)
	go func() { defer wg.Done(); ra = encodeAll(a) }()
	go func() { defer wg.Done(); rb = encodeAll(b) }()
	wg.Wait()
	ref := New(itemmem.New(dim, seed), n)
	for i, text := range texts {
		want, _ := referenceEncode(ref, text, seed)
		if !ra[i].Equal(want) || !rb[i].Equal(want) {
			t.Fatalf("text %d: concurrent encodes differ from the reference", i)
		}
	}
}
