package hv

import "math/bits"

// maxKeyedN is the largest n-gram order whose packed key, five bits per
// symbol id, fits in a uint64.
const maxKeyedN = 64 / 5

// GramCounts is the scratch of NGramTable.Accumulate's counting pass: an
// open-addressing table from packed gram keys to their counts, and the
// distinct keys grouped by the set bits of their counts. The zero value is
// ready to use. It grows to the largest text it has counted and is reused
// from text to text, so keep it with the goroutine that accumulates; it
// must not be shared between goroutines.
type GramCounts struct {
	slots []gramSlot // len is a power of two; n == 0 marks an empty slot
	shift uint       // 64 − log2(len(slots))
	used  []uint32   // occupied slot indices

	sizes  [maxPlanes]int      // sizes[j]: distinct grams whose count has bit j set
	keys   []uint64            // backing store of groups
	groups [maxPlanes][]uint64 // groups[j]: the keys of those grams
}

type gramSlot struct {
	key uint64 // symbol ids of the gram, five bits each, last id lowest
	n   uint32
}

// count tallies the n-grams of ids, for 1 ≤ n ≤ maxKeyedN and at least n
// ids, and returns Σ popcount(c_g) over the distinct grams g: the number of
// gram terms the grouped kernel bundles instead of the G grams. Follow it
// with group or reset.
func (c *GramCounts) count(ids []byte, n int) int {
	if len(c.slots) == 0 {
		c.resize(64)
	}
	const m = ngramSymbols - 1
	mask := uint64(1)<<(5*n) - 1
	var key uint64
	for _, s := range ids[:n-1] {
		key = key<<5 | uint64(s&m)
	}
	for _, s := range ids[n-1:] {
		key = (key<<5 | uint64(s&m)) & mask
		h := key * 0x9e3779b97f4a7c15 >> c.shift
		for {
			sl := &c.slots[h]
			if sl.n == 0 {
				sl.key, sl.n = key, 1
				c.used = append(c.used, uint32(h))
				if 2*len(c.used) > len(c.slots) {
					c.resize(2 * len(c.slots))
				}
				break
			}
			if sl.key == key {
				sl.n++
				break
			}
			h = (h + 1) & uint64(len(c.slots)-1)
		}
	}
	c.sizes = [maxPlanes]int{}
	sum := 0
	for _, h := range c.used {
		for cnt := c.slots[h].n; cnt != 0; cnt &= cnt - 1 {
			c.sizes[bits.TrailingZeros32(cnt)]++
			sum++
		}
	}
	return sum
}

// group returns the counted grams grouped by count bit, the keys of the
// grams whose count has bit j set at index j, and empties the table. The
// groups stay valid until the next count.
func (c *GramCounts) group() [][]uint64 {
	sum, top := 0, 0
	for j, k := range c.sizes {
		sum += k
		if k > 0 {
			top = j + 1
		}
	}
	if cap(c.keys) < sum {
		c.keys = make([]uint64, sum)
	}
	off := 0
	for j, k := range c.sizes[:top] {
		c.groups[j] = c.keys[off : off : off+k]
		off += k
	}
	for _, h := range c.used {
		sl := &c.slots[h]
		for cnt := sl.n; cnt != 0; cnt &= cnt - 1 {
			j := bits.TrailingZeros32(cnt)
			c.groups[j] = append(c.groups[j], sl.key)
		}
		sl.n = 0
	}
	c.used = c.used[:0]
	return c.groups[:top]
}

// reset empties the table without grouping.
func (c *GramCounts) reset() {
	for _, h := range c.used {
		c.slots[h].n = 0
	}
	c.used = c.used[:0]
}

// resize rehashes the occupied slots into a table of size slots.
func (c *GramCounts) resize(size int) {
	old := c.slots
	c.slots = make([]gramSlot, size)
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, h := range c.used {
		sl := old[h]
		nh := sl.key * 0x9e3779b97f4a7c15 >> c.shift
		for c.slots[nh].n != 0 {
			nh = (nh + 1) & uint64(size-1)
		}
		c.slots[nh] = sl
		c.used[i] = uint32(nh)
	}
}
