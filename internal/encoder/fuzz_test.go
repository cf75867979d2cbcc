package encoder

import (
	"testing"

	"hdam/internal/hv"
	"hdam/internal/itemmem"
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
// seed, for trigrams and for an order-n chosen by the fuzzer.
func FuzzEncodeText(f *testing.F) {
	f.Add("the quick brown fox", uint64(1), uint8(3))
	f.Add("", uint64(2), uint8(3))
	f.Add("ab", uint64(3), uint8(3))
	f.Add("ÅÄÖ!!!", uint64(4), uint8(3))
	f.Add("a sentence of exactly thirty four", uint64(5), uint8(1))
	f.Add("seventeen grams and some more", uint64(6), uint8(5))
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
