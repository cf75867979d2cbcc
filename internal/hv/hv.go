// Package hv implements binary hypervectors and the arithmetic the paper's
// HD computing substrate is built on: binding (component-wise XOR), bundling
// (component-wise majority), permutation (cyclic rotation) and Hamming
// distance. Hypervectors are dense bit vectors packed into 64-bit words.
//
// Terminology follows Kanerva and the HPCA'17 paper: with dimensionality D
// in the thousands (D = 10,000 by default), randomly drawn vectors are
// nearly orthogonal — their pairwise Hamming distance concentrates around
// D/2 — which is what makes the associative-memory search meaningful.
package hv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"
)

// Dim is the default hypervector dimensionality used throughout the paper.
const Dim = 10000

// wordBits is the number of bits per packed word.
const wordBits = 64

// Vector is a binary hypervector of fixed dimensionality. The zero value is
// not usable; construct vectors with New, Random or FromBits.
//
// Invariant: bits at positions >= Dim() in the last word are always zero, so
// popcount-based operations never need to special-case the tail.
type Vector struct {
	dim   int
	words []uint64
}

// wordsFor returns the number of 64-bit words needed for dim bits.
func wordsFor(dim int) int { return (dim + wordBits - 1) / wordBits }

// tailMask returns the mask of valid bits in the final word for dim bits.
func tailMask(dim int) uint64 {
	r := dim % wordBits
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(r)) - 1
}

// New returns an all-zero hypervector of the given dimensionality.
func New(dim int) *Vector {
	if dim <= 0 {
		panic(fmt.Sprintf("hv: non-positive dimension %d", dim))
	}
	return &Vector{dim: dim, words: make([]uint64, wordsFor(dim))}
}

// Random returns a hypervector whose components are i.i.d. fair coin flips
// drawn from rng. With high probability it has close to dim/2 ones, matching
// the paper's "equal number of randomly placed 0s and 1s" seed vectors.
func Random(dim int, rng *rand.Rand) *Vector {
	v := New(dim)
	for i := range v.words {
		v.words[i] = rng.Uint64()
	}
	v.words[len(v.words)-1] &= tailMask(dim)
	return v
}

// RandomBalanced returns a hypervector with exactly floor(dim/2) ones placed
// uniformly at random: the exact "equal number of 0s and 1s" construction
// used for item-memory seeds in the paper.
func RandomBalanced(dim int, rng *rand.Rand) *Vector {
	v := New(dim)
	// Floyd-style sampling is overkill; a Fisher–Yates over positions is
	// simple and exact.
	perm := rng.Perm(dim)
	for _, p := range perm[:dim/2] {
		v.Set(p, 1)
	}
	return v
}

// FromWords wraps an existing packed word slice as a hypervector WITHOUT
// copying: the returned vector shares words as its backing store. It is the
// zero-copy entry point used by the snapshot store to view rows of an
// mmap-ed class matrix as vectors. The slice must hold exactly
// wordsFor(dim) words and obey the tail invariant (no bits set at positions
// >= dim); neither the caller nor the vector may mutate the words afterward.
func FromWords(dim int, words []uint64) (*Vector, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("hv: non-positive dimension %d", dim)
	}
	if len(words) != wordsFor(dim) {
		return nil, fmt.Errorf("hv: %d words for dim %d, want %d", len(words), dim, wordsFor(dim))
	}
	if words[len(words)-1]&^tailMask(dim) != 0 {
		return nil, errors.New("hv: words have non-zero bits beyond dimension")
	}
	return &Vector{dim: dim, words: words}, nil
}

// FromBits builds a hypervector from a slice of 0/1 values.
func FromBits(bits []byte) (*Vector, error) {
	if len(bits) == 0 {
		return nil, errors.New("hv: empty bit slice")
	}
	v := New(len(bits))
	for i, b := range bits {
		switch b {
		case 0:
		case 1:
			v.Set(i, 1)
		default:
			return nil, fmt.Errorf("hv: bit %d has non-binary value %d", i, b)
		}
	}
	return v, nil
}

// Dim returns the dimensionality of the hypervector.
func (v *Vector) Dim() int { return v.dim }

// Words exposes the packed words for read-only scanning (e.g. hardware
// models that walk the raw bits). Callers must not mutate the slice.
func (v *Vector) Words() []uint64 { return v.words }

// Bit returns component i (0 or 1).
func (v *Vector) Bit(i int) int {
	v.checkIndex(i)
	return int(v.words[i/wordBits] >> (uint(i) % wordBits) & 1)
}

// Set assigns component i to b (which must be 0 or 1).
func (v *Vector) Set(i, b int) {
	v.checkIndex(i)
	w, off := i/wordBits, uint(i)%wordBits
	switch b {
	case 0:
		v.words[w] &^= 1 << off
	case 1:
		v.words[w] |= 1 << off
	default:
		panic(fmt.Sprintf("hv: non-binary value %d", b))
	}
}

// Flip inverts component i.
func (v *Vector) Flip(i int) {
	v.checkIndex(i)
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

func (v *Vector) checkIndex(i int) {
	if i < 0 || i >= v.dim {
		panic(fmt.Sprintf("hv: index %d out of range [0,%d)", i, v.dim))
	}
}

// Zero clears every component in place, for reusing scratch vectors in
// allocation-free hot loops.
func (v *Vector) Zero() {
	clear(v.words)
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	c := New(v.dim)
	copy(c.words, v.words)
	return c
}

// Equal reports whether two hypervectors have identical dimensionality and
// components.
func (v *Vector) Equal(u *Vector) bool {
	if v.dim != u.dim {
		return false
	}
	for i, w := range v.words {
		if w != u.words[i] {
			return false
		}
	}
	return true
}

// Ones returns the number of 1 components (population count).
func (v *Vector) Ones() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bind returns the component-wise XOR of v and u: the paper's binding
// operation A ⊕ B. The result is dissimilar (distance ≈ dim/2) to both
// operands; binding is its own inverse: Bind(Bind(a,b), b) == a.
func Bind(v, u *Vector) *Vector {
	mustSameDim(v, u)
	r := New(v.dim)
	for i := range r.words {
		r.words[i] = v.words[i] ^ u.words[i]
	}
	return r
}

// BindInto computes dst = v XOR u without allocating. dst may alias v or u.
func BindInto(dst, v, u *Vector) {
	mustSameDim(v, u)
	mustSameDim(dst, v)
	for i := range dst.words {
		dst.words[i] = v.words[i] ^ u.words[i]
	}
}

// Not returns the component-wise complement of v.
func Not(v *Vector) *Vector {
	r := New(v.dim)
	for i := range r.words {
		r.words[i] = ^v.words[i]
	}
	r.words[len(r.words)-1] &= tailMask(v.dim)
	return r
}

// Permute returns v rotated right by k positions: the paper's ρ operation
// (implemented, as the paper notes, as a cyclic shift). PermuteInverse(
// Permute(v,k), k) == v, and Permute(v,1) is uncorrelated with v.
func Permute(v *Vector, k int) *Vector {
	k = normRot(k, v.dim)
	if k == 0 {
		return v.Clone()
	}
	r := New(v.dim)
	for i := 0; i < v.dim; i++ {
		if v.Bit(i) == 1 {
			r.Set((i+k)%v.dim, 1)
		}
	}
	return r
}

// PermuteInverse undoes Permute with the same k.
func PermuteInverse(v *Vector, k int) *Vector {
	return Permute(v, v.dim-normRot(k, v.dim))
}

func normRot(k, dim int) int {
	k %= dim
	if k < 0 {
		k += dim
	}
	return k
}

// Rotate1 returns Permute(v, 1) using word-level shifts.
func Rotate1(v *Vector) *Vector {
	r := New(v.dim)
	// A right rotation by one moves bit i to i+1; bit dim-1 wraps to bit 0.
	carry := (v.words[(v.dim-1)/wordBits] >> (uint(v.dim-1) % wordBits)) & 1
	for i, w := range v.words {
		r.words[i] = (w << 1) | carry
		carry = w >> (wordBits - 1)
	}
	r.words[len(r.words)-1] &= tailMask(v.dim)
	return r
}

// Hamming returns the Hamming distance δ(v, u): the number of components at
// which the two hypervectors differ. This is the similarity metric used for
// all associative-memory reasoning in the paper.
func Hamming(v, u *Vector) int {
	mustSameDim(v, u)
	d := 0
	for i, w := range v.words {
		d += bits.OnesCount64(w ^ u.words[i])
	}
	return d
}

// NormalizedHamming returns Hamming(v,u)/dim in [0,1].
func NormalizedHamming(v, u *Vector) float64 {
	return float64(Hamming(v, u)) / float64(v.dim)
}

func mustSameDim(v, u *Vector) {
	if v.dim != u.dim {
		panic(fmt.Sprintf("hv: dimension mismatch %d vs %d", v.dim, u.dim))
	}
}

// String renders a short diagnostic form: dimension, ones count and the
// first few bits.
func (v *Vector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hv(dim=%d ones=%d ", v.dim, v.Ones())
	n := v.dim
	if n > 32 {
		n = 32
	}
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('0' + v.Bit(i)))
	}
	if v.dim > 32 {
		sb.WriteString("…")
	}
	sb.WriteByte(')')
	return sb.String()
}

// MarshalBinary encodes the vector as little-endian: uint32 dim followed by
// the packed words.
func (v *Vector) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 4+8*len(v.words))
	binary.LittleEndian.PutUint32(buf, uint32(v.dim))
	for i, w := range v.words {
		binary.LittleEndian.PutUint64(buf[4+8*i:], w)
	}
	return buf, nil
}

// UnmarshalBinary decodes a vector encoded by MarshalBinary.
func (v *Vector) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return errors.New("hv: truncated vector encoding")
	}
	dim := int(binary.LittleEndian.Uint32(data))
	if dim <= 0 {
		return fmt.Errorf("hv: invalid encoded dimension %d", dim)
	}
	nw := wordsFor(dim)
	if len(data) != 4+8*nw {
		return fmt.Errorf("hv: encoding length %d does not match dim %d", len(data), dim)
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[4+8*i:])
	}
	if words[nw-1]&^tailMask(dim) != 0 {
		return errors.New("hv: encoding has non-zero bits beyond dimension")
	}
	v.dim = dim
	v.words = words
	return nil
}
