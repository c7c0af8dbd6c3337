// The packer: the one layout every frozen block is written and read in.
//
// A block holds up to a fixed number of consecutive triples of one
// permutation index. Each of its three columns, taken in the index's sort
// order, is stored as the offsets of its values from the column's
// smallest value in the block (its base), each offset in exactly the
// column's width of bits — the bit length of the column's span, 0 to 32.
// The three columns follow each other in one bit stream, so a block's
// payload is ⌈rows × (w₀+w₁+w₂) / 8⌉ bytes. Sorted indexes make the spans
// small: the leading column is one run or a few adjacent ones, and the
// dense dictionary IDs of the others cluster.
//
// Every cell stays addressable: the value at row r of column c is one
// unaligned little-endian 64-bit load at the column's start plus r × w
// bits, a shift, a mask and an add (a width of at most 32 and a shift of
// at most 7 fit the load). Nothing is decoded ahead of a read, and the
// arena carries tailPad bytes after the last payload so the load at any
// cell stays in bounds. Blocks are self-contained, which is what lets
// them be packed concurrently.
package storage

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"repro/internal/dict"
)

// tailPad is the slack after an index's last payload byte: a cell read
// loads eight bytes from the byte its offset starts in.
const tailPad = 8

// fblock is one block's header, its entry in the fence directory.
// Column A's base is its first value, the fence key's; the header holds
// the other two. At 28 bytes it is a fifth of a byte per row of a full
// block.
type fblock struct {
	fence [3]dict.ID // the block's first triple in sort order: the fence key
	base  [2]uint32  // columns B and C: their smallest value
	off   uint32     // where the payload starts in the index's arena
	width [3]uint8   // per column, in sort order: bits per offset
}

// colBase returns the base of column c (in sort order).
func (h *fblock) colBase(c int) uint32 {
	if c == 0 {
		return uint32(h.fence[0])
	}
	return h.base[c-1]
}

// header returns the header of a block holding ts, sorted under perm; its
// payload offset is left to the caller.
func header(ts []Triple, perm [3]int) fblock {
	var h fblock
	for c, pos := range perm {
		h.fence[c] = key(ts[0])[pos]
		lo, hi := uint32(key(ts[0])[pos]), uint32(key(ts[0])[pos])
		if c == 0 { // the leading column never decreases
			hi = uint32(key(ts[len(ts)-1])[pos])
		} else {
			for _, t := range ts[1:] {
				v := uint32(key(t)[pos])
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		if c > 0 {
			h.base[c-1] = lo
		}
		h.width[c] = uint8(bits.Len32(hi - lo))
	}
	return h
}

// payloadBytes is the size of the payload of a block of n rows.
func (h *fblock) payloadBytes(n int) int {
	return (n*int(h.width[0]+h.width[1]+h.width[2]) + 7) / 8
}

// pack writes the columns of ts, sorted under perm, into dst — the block's
// zeroed payload, exactly h.payloadBytes(len(ts)) long — as one bit
// stream, column after column.
func pack(dst []byte, ts []Triple, perm [3]int, h *fblock) {
	var acc uint64 // bits not yet written, lowest first
	var n uint     // how many
	p := 0
	for c, pos := range perm {
		w, base := uint(h.width[c]), h.colBase(c)
		if w == 0 {
			continue
		}
		for _, t := range ts {
			acc |= uint64(uint32(key(t)[pos])-base) << n
			for n += w; n >= 8; n -= 8 {
				dst[p] = byte(acc)
				p++
				acc >>= 8
			}
		}
	}
	if n > 0 {
		dst[p] = byte(acc)
	}
}

// col is one column of one block, ready to read: the value at row r is
// base plus the w bits at bit bit0 + r·w of the index's arena, whose
// first byte p points at. The arena's tail padding keeps every such load
// inside it.
type col struct {
	p    unsafe.Pointer
	bit0 uint
	w    uint
	mask uint64
	base uint32
}

// load returns the eight arena bytes from bit's byte on, shifted so that
// bit is the lowest.
func (c *col) load(bit uint) uint64 {
	return binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(c.p, bit>>3))[:]) >> (bit & 7)
}

// at returns the value at row r.
func (c *col) at(r int) uint32 {
	return c.base + uint32(c.load(c.bit0+uint(r)*c.w)&c.mask)
}

// lower returns the first row in [lo, hi) whose value is at least v, hi if
// none; the column must not decrease over [lo, hi). The search compares
// raw offsets against v's, and halves the range without a branch on the
// comparison, which a sorted column would mispredict half the time: the
// sign of the difference is the mask of the step.
func (c *col) lower(v uint32, lo, hi int) int {
	if v <= c.base {
		return lo
	}
	t := int64(v - c.base)
	if uint64(t) > c.mask {
		return hi
	}
	p, w, mask := c.p, c.w, c.mask
	blo := c.bit0 + uint(lo)*w // row lo's first bit, moved with lo
	for n := hi - lo; n > 1; {
		half := n >> 1
		hw := uint(half) * w
		bit := blo + hw - w
		x := binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(p, bit>>3))[:]) >> (bit & 7) & mask
		below := (int64(x) - t) >> 63 // all ones when row lo+half-1 holds less than v
		lo += half & int(below)
		blo += hw & uint(below)
		n -= half
	}
	if lo < hi && int64(c.load(blo)&mask) < t {
		lo++
	}
	return lo
}

// near is lower for an answer expected within nearRows rows of lo — the
// end of a run, the next key of an ascending probe sequence: one read
// decides which side of that window the answer lies on, and a branch-free
// search of that side finds it.
func (c *col) near(v uint32, lo, hi int) int {
	if w := lo + nearRows; w < hi {
		if c.at(w-1) >= v {
			return c.lower(v, lo, w-1)
		}
		return c.lower(v, w, hi)
	}
	return c.lower(v, lo, hi)
}

// nearRows is the window near tries first: a few subjects' or objects'
// runs.
const nearRows = 16
