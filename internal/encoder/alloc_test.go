package encoder

import (
	"testing"

	"hdam/internal/hv"
	"hdam/internal/itemmem"
)

// TestAccumulateTextSteadyStateZeroAlloc pins the zero-allocation encode
// path: once an Encoder's symbol-id buffer is warm, accumulating a text of
// no greater length allocates nothing.
func TestAccumulateTextSteadyStateZeroAlloc(t *testing.T) {
	im := itemmem.New(10000, 3)
	im.Preload(itemmem.LatinAlphabet)
	enc := New(im, 3)
	acc := hv.NewAccumulator(10000, 0)
	const text = "the quick brown fox jumps over the lazy dog again and again"
	enc.AccumulateText(acc, text) // warm scratch and symbol tables
	if n := testing.AllocsPerRun(50, func() {
		acc.Reset()
		if enc.AccumulateText(acc, text) == 0 {
			t.Fatal("no n-grams")
		}
	}); n != 0 {
		t.Fatalf("AccumulateText allocates %v per op in steady state, want 0", n)
	}
}

// TestEncodeTextAllocatesOnlyResult: a warm EncodeText allocates its
// result vector and nothing else, for odd gram counts and for even ones,
// whose tie-break vector comes from the per-seed cache.
func TestEncodeTextAllocatesOnlyResult(t *testing.T) {
	im := itemmem.New(10000, 3)
	im.Preload(itemmem.LatinAlphabet)
	enc := New(im, 3)
	result := testing.AllocsPerRun(50, func() { _ = hv.New(10000) })
	for _, text := range []string{
		"the quick brown fox jumps over the lazy dog",  // 41 grams
		"the quick brown fox jumps over the lazy dogs", // 42 grams
	} {
		_, g := enc.EncodeText(text, 11) // warm scratch and the tie-break cache
		if n := testing.AllocsPerRun(50, func() { enc.EncodeText(text, 11) }); n != result {
			t.Fatalf("G=%d: EncodeText allocates %v per op, want %v (the result vector)", g, n, result)
		}
	}
}

// TestEncodeTextReusedAccumulatorMatchesFresh: EncodeText recycles its
// scratch across calls; results must match a one-shot encoder.
func TestEncodeTextReusedAccumulatorMatchesFresh(t *testing.T) {
	im := itemmem.New(2000, 3)
	im.Preload(itemmem.LatinAlphabet)
	reused := New(im, 3)
	texts := []string{
		"hello world this is a test",
		"an entirely different sentence",
		"short",
		"the majority rule needs a tie break for even gram counts",
	}
	for i, text := range texts {
		im2 := itemmem.New(2000, 3)
		im2.Preload(itemmem.LatinAlphabet)
		fresh := New(im2, 3)
		a, na := reused.EncodeText(text, uint64(i))
		b, nb := fresh.EncodeText(text, uint64(i))
		if na != nb || hv.Hamming(a, b) != 0 {
			t.Fatalf("text %d: reused encoder diverged (n %d vs %d)", i, na, nb)
		}
	}
}
