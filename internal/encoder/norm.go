package encoder

// spaceID is the symbol id of the space: letters a–z are ids 0–25, the
// positions of itemmem.LatinAlphabet.
const spaceID = 26

// Normalize maps raw text onto the paper's 27-symbol alphabet: the 26
// lower-case Latin letters and space. Upper-case letters fold to lower case;
// every other rune (digits, punctuation, accented characters outside a–z,
// newlines) becomes a space; runs of spaces collapse to a single space, and
// leading/trailing spaces are dropped. The result is the letter stream the
// n-gram window slides over.
func Normalize(text string) []rune {
	return normalize(make([]rune, 0, len(text)), text, 'a', ' ')
}

// normalize is Normalize appending into dst, with letter r written as
// a+(r−'a') and the space as space: runes for Normalize, symbol ids for the
// encoder, from one rule.
func normalize[T rune | byte](dst []T, text string, a, space T) []T {
	out := dst
	prevSpace := true // suppress leading spaces
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z':
			out = append(out, a+T(r-'a'))
			prevSpace = false
		case r >= 'A' && r <= 'Z':
			out = append(out, a+T(r-'A'))
			prevSpace = false
		default:
			if !prevSpace {
				out = append(out, space)
				prevSpace = true
			}
		}
	}
	// Drop a trailing space.
	if n := len(out); n > 0 && out[n-1] == space {
		out = out[:n-1]
	}
	return out
}
