package encoder

import (
	"math/rand/v2"
	"strings"
	"testing"

	"hdam/internal/hv"
	"hdam/internal/itemmem"
)

func newTestEncoder(dim, n int) *Encoder {
	im := itemmem.New(dim, 1234)
	im.Preload(itemmem.LatinAlphabet)
	return New(im, n)
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"abc", "abc"},
		{"AbC", "abc"},
		{"a  b", "a b"},
		{"  a b  ", "a b"},
		{"a,b.c!", "a b c"},
		{"a\nb\tc", "a b c"},
		{"héllo", "h llo"},
		{"123", ""},
		{"", ""},
		{"...", ""},
	}
	for _, c := range cases {
		got := string(Normalize(c.in))
		if got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNGramMatchesPaperFormula(t *testing.T) {
	// ρ(ρ(A) ⊕ B) ⊕ C == ρ²(A) ⊕ ρ(B) ⊕ C (paper §II-A1).
	e := newTestEncoder(1000, 3)
	A := e.im.Get('a')
	B := e.im.Get('b')
	C := e.im.Get('c')
	nested := hv.Bind(hv.Rotate1(hv.Bind(hv.Rotate1(A), B)), C)
	flat := hv.Bind(hv.Bind(hv.Rotate1(hv.Rotate1(A)), hv.Rotate1(B)), C)
	if !nested.Equal(flat) {
		t.Fatal("the distributivity identity the encoding relies on fails")
	}
	if got := e.NGram([]rune("abc")); !got.Equal(nested) {
		t.Fatal("NGram does not match the paper's trigram formula")
	}
}

func TestNGramOrderSensitive(t *testing.T) {
	// a-b-c must differ from a-c-b (sequence, not set; paper §II-A1).
	e := newTestEncoder(hv.Dim, 3)
	abc := e.NGram([]rune("abc"))
	acb := e.NGram([]rune("acb"))
	if d := hv.Hamming(abc, acb); d < 4700 {
		t.Fatalf("δ(abc, acb) = %d, want ≈ 5000 (uncorrelated)", d)
	}
}

// TestSlidingWindowMatchesReference is the kernel's bit-identity property
// suite: EncodeText must equal NGram + Add + Majority bit for bit for every
// n-gram order, dimension and gram count G around the carry-save block
// boundaries (odd and even G, so both tie-break paths), for texts of one
// repeated symbol (every lane's count is 0 or G) and past 2^16 grams, where
// counts need a seventeenth plane.
func TestSlidingWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	type textCase struct {
		n, dim int
		text   string
	}
	var cases []textCase
	for _, n := range []int{1, 2, 3, 4, 5, 64} {
		for _, dim := range []int{1, 63, 64, 65, 100, 10000} {
			for _, g := range []int{1, 15, 16, 17, 31, 32, 33, 255, 256, 257} {
				cases = append(cases, textCase{n, dim, normalizedText(rng, g+n-1)})
			}
		}
	}
	for _, g := range []int{16, 33, 256} {
		cases = append(cases, textCase{3, 1000, strings.Repeat("q", g+2)})
	}
	for _, g := range []int{65_536, 70_001} {
		cases = append(cases, textCase{3, 1000, normalizedText(rng, g+2)})
	}
	encoders := map[[2]int]*Encoder{}
	for _, c := range cases {
		e := encoders[[2]int{c.n, c.dim}]
		if e == nil {
			e = newTestEncoder(c.dim, c.n)
			encoders[[2]int{c.n, c.dim}] = e
		}
		seed := rng.Uint64()
		got, gn := e.EncodeText(c.text, seed)
		want, wn := referenceEncode(e, c.text, seed)
		if g := len(c.text) - c.n + 1; gn != g || wn != g {
			t.Fatalf("n=%d dim=%d: gram counts %d/%d, want %d", c.n, c.dim, gn, wn, g)
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d dim=%d G=%d: EncodeText differs from reference in %d bits",
				c.n, c.dim, gn, hv.Hamming(got, want))
		}
	}
}

func TestAccumulateShortText(t *testing.T) {
	e := newTestEncoder(256, 3)
	acc := hv.NewAccumulator(256, 0)
	if n := e.AccumulateText(acc, "ab"); n != 0 {
		t.Fatalf("text shorter than n produced %d grams", n)
	}
	if n := e.AccumulateText(acc, ""); n != 0 {
		t.Fatalf("empty text produced %d grams", n)
	}
	if n := e.AccumulateText(acc, "abc"); n != 1 {
		t.Fatalf("3-letter text produced %d grams, want 1", n)
	}
}

func TestEncodeTextDeterministic(t *testing.T) {
	e := newTestEncoder(hv.Dim, 3)
	v1, n1 := e.EncodeText("hello world", 1)
	v2, n2 := e.EncodeText("hello world", 1)
	if n1 != n2 || !v1.Equal(v2) {
		t.Fatal("EncodeText is not deterministic")
	}
	empty, n := e.EncodeText("", 1)
	if n != 0 || empty.Ones() != 0 {
		t.Fatal("empty text should produce the zero vector")
	}
}

func TestSimilarTextsCloserThanDissimilar(t *testing.T) {
	// Texts sharing trigram statistics must be closer than unrelated texts —
	// the property language identification rests on.
	e := newTestEncoder(hv.Dim, 3)
	a1, _ := e.EncodeText(strings.Repeat("the cat sat on the mat ", 20), 1)
	a2, _ := e.EncodeText(strings.Repeat("the mat sat on the cat ", 20), 2)
	b, _ := e.EncodeText(strings.Repeat("zyx wvu tsr qpo nml kji ", 20), 3)
	dSame := hv.Hamming(a1, a2)
	dDiff := hv.Hamming(a1, b)
	if dSame >= dDiff {
		t.Fatalf("related texts distance %d ≥ unrelated %d", dSame, dDiff)
	}
	if dDiff < 4500 {
		t.Fatalf("unrelated texts distance %d, want near 5000", dDiff)
	}
}

func TestNewPanicsOnBadN(t *testing.T) {
	im := itemmem.New(100, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic for n=0")
		}
	}()
	New(im, 0)
}

func TestNGramWrongLengthPanics(t *testing.T) {
	e := newTestEncoder(100, 3)
	defer func() {
		if recover() == nil {
			t.Error("no panic for wrong gram length")
		}
	}()
	e.NGram([]rune("ab"))
}

func TestAccumulatorDimMismatchPanics(t *testing.T) {
	e := newTestEncoder(100, 3)
	defer func() {
		if recover() == nil {
			t.Error("no panic for accumulator dim mismatch")
		}
	}()
	e.AccumulateText(hv.NewAccumulator(101, 0), "abc")
}

func BenchmarkAccumulateText(b *testing.B) {
	e := newTestEncoder(hv.Dim, 3)
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 100)
	acc := hv.NewAccumulator(hv.Dim, 0)
	e.AccumulateText(acc, text) // grow the count scratch: report the steady state
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AccumulateText(acc, text)
	}
}
