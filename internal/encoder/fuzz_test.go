package encoder

import (
	"math/rand/v2"
	"strings"
	"testing"

	"hdam/internal/hv"
	"hdam/internal/itemmem"
	"hdam/internal/textgen"
)

// FuzzNormalize checks the normalizer's invariants on arbitrary input:
// output stays inside the 27-symbol alphabet, never contains double
// spaces, and never starts or ends with a space.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		"", "hello world", "ÜBER døden 123!?", "  a  b  ", "\x00\xff\xfe",
		"ñandú çedilla ß", "a\tb\nc\rd", "ALLCAPS", "....", "日本語テキスト",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		out := Normalize(input)
		for i, r := range out {
			if !(r >= 'a' && r <= 'z') && r != ' ' {
				t.Fatalf("rune %q escaped the alphabet", r)
			}
			if r == ' ' {
				if i == 0 || i == len(out)-1 {
					t.Fatal("leading or trailing space")
				}
				if out[i-1] == ' ' {
					t.Fatal("double space")
				}
			}
		}
		// Idempotence: normalizing normalized text is identity.
		again := Normalize(string(out))
		if string(again) != string(out) {
			t.Fatalf("normalize not idempotent: %q → %q", string(out), string(again))
		}
	})
}

// FuzzEncodeText checks the table kernel against the definitional
// reference on arbitrary text: the whole vector and the gram count of
// EncodeText must equal NGram + Add + Majority with the same tie-break
// seed, for an order-n chosen by the fuzzer (n = 1 + order%8). The
// generated 150- and 600-character trigram seeds are the served query
// shape: full 16-gram blocks, then a zero-padded final block.
func FuzzEncodeText(f *testing.F) {
	f.Add("the quick brown fox", uint64(1), uint8(3))
	f.Add("", uint64(2), uint8(3))
	f.Add("ab", uint64(3), uint8(3))
	f.Add("ÅÄÖ!!!", uint64(4), uint8(3))
	f.Add("a sentence of exactly thirty four", uint64(5), uint8(1))
	f.Add("seventeen grams and some more", uint64(6), uint8(5))
	cfg := textgen.DefaultConfig()
	cfg.Seed = 2017
	langs := textgen.Catalog(cfg)
	rng := rand.New(rand.NewPCG(2017, 150))
	f.Add(langs[0].GenerateSentence(150, rng), uint64(7), uint8(2))
	f.Add(langs[1].GenerateSentence(150, rng), uint64(8), uint8(2))
	f.Add(langs[2].GenerateText(600, rng), uint64(9), uint8(2))
	encoders := map[int]*Encoder{}
	f.Fuzz(func(t *testing.T, text string, seed uint64, order uint8) {
		if len(text) > 4096 {
			text = text[:4096]
		}
		n := 1 + int(order%8)
		enc := encoders[n]
		if enc == nil {
			im := itemmem.New(100, 99)
			im.Preload(itemmem.LatinAlphabet)
			enc = New(im, n)
			encoders[n] = enc
		}
		v, g := enc.EncodeText(text, seed)
		want, wg := referenceEncode(enc, text, seed)
		if g != wg || g != max(len(Normalize(text))-n+1, 0) {
			t.Fatalf("n=%d: gram count %d, reference %d", n, g, wg)
		}
		if !v.Equal(want) {
			t.Fatalf("n=%d G=%d: vector differs from reference in %d bits", n, g, hv.Hamming(v, want))
		}
	})
}

// FuzzAccumulateText checks AccumulateText against the definitional
// reference on arbitrary text repeated reps times, so that the fuzzer
// reaches both accumulate paths: texts that repeat few grams stream, and
// texts that repeat many are bundled once per distinct gram and count bit.
// Count and every component count must equal one Add per gram, into an
// accumulator that already holds a vector, for an order-n chosen by the
// fuzzer on both sides of n = 12.
func FuzzAccumulateText(f *testing.F) {
	f.Add("the quick brown fox", uint8(1), uint8(3))
	f.Add("the quick brown fox ", uint8(40), uint8(3))
	f.Add("aaaa", uint8(200), uint8(12))
	f.Add("ab", uint8(90), uint8(13))
	f.Add("", uint8(5), uint8(1))
	f.Add("ÅÄÖ!!! Øre", uint8(17), uint8(5))
	encoders := map[int]*Encoder{}
	f.Fuzz(func(t *testing.T, text string, reps, order uint8) {
		if len(text) > 256 {
			text = text[:256]
		}
		text = strings.Repeat(text, 1+int(reps%64))
		n := 1 + int(order%16)
		enc := encoders[n]
		if enc == nil {
			im := itemmem.New(100, 99)
			im.Preload(itemmem.LatinAlphabet)
			enc = New(im, n)
			encoders[n] = enc
		}
		got, want := hv.NewAccumulator(100, 7), hv.NewAccumulator(100, 7)
		start := hv.Random(100, rand.New(rand.NewPCG(uint64(len(text)), 1)))
		got.Add(start)
		want.Add(start)
		if g, wg := enc.AccumulateText(got, text), referenceAccumulate(enc, want, text); g != wg {
			t.Fatalf("n=%d: gram count %d, reference %d", n, g, wg)
		}
		if got.Count() != want.Count() {
			t.Fatalf("n=%d: weight %d, reference %d", n, got.Count(), want.Count())
		}
		gc, wc := got.Counts(), want.Counts()
		for i := range gc {
			if gc[i] != wc[i] {
				t.Fatalf("n=%d: component %d count %d, reference %d", n, i, gc[i], wc[i])
			}
		}
	})
}
