// The frozen form every sorted index takes, and the one way it is read.
// A frozen permutation index is a sequence of bit-packed blocks (see
// encode.go) of a fixed row count, their payloads back to back in one
// exactly sized arena, under a fence directory of block headers — each
// block's first triple, column bases and widths, and payload offset.
//
// Probes read the packed columns in place; nothing is decoded ahead of a
// read and nothing decoded is kept. A seek binary-searches the fence
// keys for the block that can hold the key, then, inside it, column A
// (which never decreases within a block), then column B inside A's run
// and column C inside the (A,B) run. Counting and membership are pure
// seeks. A range is walked through a Span, which unpacks only the rows
// being walked into a block-sized scratch buffer its probe site owns.
// Whole-index walks (Scan, Each, Triples, Compact's merge) unpack
// consecutive rows through the same code into a small stack buffer.
// The index is immutable, so every read is safe for concurrent use
// without synchronization.
package storage

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/dict"
)

const (
	// defaultBlockTriples is the row count of a block. Column widths are
	// the bit length of a column's span within the block, so smaller
	// blocks pack tighter but pay a header each (EXPERIMENTS.md,
	// "Bit-packed blocks", has the 128-versus-256 measurement).
	defaultBlockTriples = 128

	// maxSpanTriples bounds the range Range copies out into one slice.
	// A range wider than this is declined (Range reports ok=false) and
	// the caller streams through Scan or walks RangeFrom's span instead:
	// copying it would cost O(range) memory per call.
	maxSpanTriples = 1 << 16

	// walkChunk is how many rows a whole-index walk unpacks at a time.
	walkChunk = 64

	// tripleSize is the in-memory size of a Triple.
	tripleSize = unsafe.Sizeof(Triple{})
)

// frozenIndex is one immutable packed permutation index.
type frozenIndex struct {
	order        Order
	perm         [3]int
	blockTriples int      // rows per block; only the last block may hold fewer
	blocks       []fblock // the fence directory
	data         []byte   // every payload, then tailPad bytes
	n            int      // total triples
}

// rows returns the row count of block b.
func (fi *frozenIndex) rows(b int) int { return min(fi.blockTriples, fi.n-b*fi.blockTriples) }

// read unpacks rows [r, r+len(dst)) of block b, which must hold them,
// into dst, column by column: each column's values go to their position
// (0=S, 1=P, 2=O) of the triples. The first bound columns hold the values
// of key on every row (a probe's bound prefix over its own range), and a
// zero-width column its base, so neither is read.
func (fi *frozenIndex) read(b, r int, dst []Triple, bound int, key [3]dict.ID) {
	if len(dst) == 0 {
		return
	}
	h, n := &fi.blocks[b], uint(fi.rows(b))
	p := unsafe.Pointer(unsafe.SliceData(fi.data))
	bit0 := 8 * uint(h.off)
	for c, at := range fi.perm {
		w, base := uint(h.width[c]), h.colBase(c)
		ids := unsafe.Add(unsafe.Pointer(&dst[0]), uintptr(at)*unsafe.Sizeof(dict.None))
		switch {
		case c < bound:
			fill(ids, len(dst), key[c])
		case w == 0:
			fill(ids, len(dst), dict.ID(base))
		default:
			unpack(ids, len(dst), p, bit0+uint(r)*w, w, base)
		}
		bit0 += n * w
	}
}

// fill writes v to the n IDs at ids, ids+tripleSize, and so on. The
// pointer arithmetic never leaves the triples: an address past the last
// one would keep whatever object follows them alive, or a freed one.
func fill(ids unsafe.Pointer, n int, v dict.ID) {
	for i := 0; i < n; i++ {
		*(*dict.ID)(unsafe.Add(ids, uintptr(i)*tripleSize)) = v
	}
}

// unpack writes n values of one column, starting at bit bit of the arena
// p points at, to the IDs at ids, ids+tripleSize, and so on (see fill).
func unpack(ids unsafe.Pointer, n int, p unsafe.Pointer, bit, w uint, base uint32) {
	mask := uint64(1)<<w - 1
	for i := 0; i < n; i++ {
		x := binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(p, bit>>3))[:])
		*(*dict.ID)(unsafe.Add(ids, uintptr(i)*tripleSize)) = dict.ID(base + uint32(x>>(bit&7)&mask))
		bit += w
	}
}

// readRange unpacks the triples at global positions [pos, pos+len(dst))
// into dst.
func (fi *frozenIndex) readRange(pos int, dst []Triple) {
	b, r := pos/fi.blockTriples, pos%fi.blockTriples
	for len(dst) > 0 {
		k := min(fi.rows(b)-r, len(dst))
		fi.read(b, r, dst[:k], 0, [3]dict.ID{})
		dst, b, r = dst[k:], b+1, 0
	}
}

// iterate streams the triples of the global range [lo, hi) to f in index
// order, stopping early if f returns false. It holds walkChunk unpacked
// triples at a time, however wide the range. The range's first bound
// columns hold key's values (see read).
func (fi *frozenIndex) iterate(lo, hi, bound int, key [3]dict.ID, f func(Triple) bool) {
	var buf [walkChunk]Triple
	for lo < hi {
		k := min(hi-lo, walkChunk, fi.blockTriples-lo%fi.blockTriples)
		fi.read(lo/fi.blockTriples, lo%fi.blockTriples, buf[:k], bound, key)
		for _, t := range buf[:k] {
			if !f(t) {
				return
			}
		}
		lo += k
	}
}

// firstBlock returns the first block in [lo, hi) whose fence key compares
// >= thr against the probe (hi if none).
func (fi *frozenIndex) firstBlock(q *probe, lo, hi, thr int) int {
	blocks := fi.blocks
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.cmp(blocks[m].fence) >= thr {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// run returns the rows [lo, hi) of block b that match the probe's bound
// prefix, searching from row from on (every row before it must lie below
// the key): column A, then each further bound column inside the run of
// the one before — near from while it is still the start, if the key is
// expected there (near). A run's end is searched for near its start,
// unless the column's last row shows that it reaches the end; a fully
// bound key's run is at most one row, since the triples are distinct.
// An empty run's lo is where the key would be.
func (fi *frozenIndex) run(q *probe, b, from int, near bool) (lo, hi int) {
	h, n := &fi.blocks[b], fi.rows(b)
	lo, hi = from, n
	col := col{p: unsafe.Pointer(unsafe.SliceData(fi.data)), bit0: 8 * uint(h.off)}
	for c := 0; c < q.prefix && lo < hi; c++ {
		if c > 0 {
			col.bit0 += uint(n) * col.w
		}
		col.w, col.base = uint(h.width[c]), h.colBase(c)
		col.mask = 1<<col.w - 1
		v := uint32(q.want[c])
		if near && lo == from { // nothing narrowed the expected start yet
			lo = col.near(v, lo, hi)
		} else {
			lo = col.lower(v, lo, hi)
		}
		switch {
		case lo == hi || col.at(hi-1) == v: // the run reaches hi
		case col.at(lo) != v: // no row holds v
			hi = lo
		case c == 2 || col.at(lo+1) > v: // a fully bound run is at most one row
			hi = lo + 1
		default:
			hi = col.near(v+1, lo+2, hi-1)
		}
	}
	return lo, hi
}

// seek returns the [lo, hi) global range of triples matching the probe's
// bound prefix. The fence directory names the one block whose first key
// lies below the key and whose successor's does not — the block that
// holds the lower bound, or ends right before it — and a search of its
// columns finds the run. Only when the run reaches the block's end does
// a second directory search find the block it stops in, and a search of
// that block's columns the upper bound. A hint that saw the same key
// returns its range; one whose block still brackets the key skips the
// directory, and searches on from its last lower bound when the key
// ascends; one whose block lies below the key gallops through the
// directory from there and searches the block it lands in from its
// start, and one whose block lies above it narrows the directory search
// to the blocks before. An unbound probe is the whole index and reads no
// block.
func (fi *frozenIndex) seek(q *probe, h *Hint) (lo, hi int) {
	blocks := fi.blocks
	nb := len(blocks)
	if q.prefix == 0 || nb == 0 {
		h.at = -1
		return 0, fi.n
	}
	if h.at >= 0 && q.want == h.want { // the key repeats: so does its range
		return h.lo, h.hi
	}
	b, from, near := 0, 0, false
	switch c := h.blk; {
	case h.at < 0:
		b = max(fi.firstBlock(q, 0, nb, 0)-1, 0)
	case c+1 < nb && q.cmp(blocks[c+1].fence) < 0: // block c+1 starts below the key
		below, end, step := c+1, c+2, 2
		for end < nb && q.cmp(blocks[end].fence) < 0 {
			below, end, step = end, end+step, step<<1
		}
		b, near = fi.firstBlock(q, below+1, min(end, nb), 0)-1, true // an ascending key lands early in b
	case c > 0 && q.cmp(blocks[c].fence) >= 0: // block c starts at or above the key
		b = max(fi.firstBlock(q, 0, c, 0)-1, 0)
	default:
		b = c
		if q.cmp(h.want) < 0 {
			from, near = h.at, true // the key ascended: its bound is not before the last one
		}
	}
	in, end := fi.run(q, b, from, near)
	h.blk, h.at, h.want = b, in, q.want
	lo, hi = b*fi.blockTriples+in, b*fi.blockTriples+end
	if end == fi.rows(b) && b+1 < nb && q.cmp(blocks[b+1].fence) == 0 {
		last := fi.firstBlock(q, b+2, nb, 1) - 1 // the run stops inside this block or at its end
		_, end = fi.run(q, last, 0, true)
		hi = last*fi.blockTriples + end
	}
	h.lo, h.hi = lo, hi
	return lo, hi
}

// frozenBuilder packs a sorted triple stream into a frozenIndex without
// materializing it as one slice — the streaming packer the merge-based
// compaction feeds. Blocks are cut every blockTriples.
type frozenBuilder struct {
	order        Order
	perm         [3]int
	blockTriples int
	arena        []byte
	blocks       []fblock
	buf          []Triple
	n            int
	tally        *tally // fed each block before it is packed, if set
}

func newFrozenBuilder(order Order, blockTriples int) *frozenBuilder {
	if blockTriples <= 0 {
		blockTriples = defaultBlockTriples
	}
	return &frozenBuilder{
		order:        order,
		perm:         order.perm(),
		blockTriples: blockTriples,
		buf:          make([]Triple, 0, blockTriples),
	}
}

func (fb *frozenBuilder) add(t Triple) {
	fb.buf = append(fb.buf, t)
	if len(fb.buf) == fb.blockTriples {
		fb.flush()
	}
}

func (fb *frozenBuilder) flush() {
	if len(fb.buf) == 0 {
		return
	}
	if fb.tally != nil {
		fb.tally.add(fb.buf)
	}
	h := header(fb.buf, fb.perm)
	h.off = uint32(len(fb.arena))
	size := h.payloadBytes(len(fb.buf))
	fb.arena = append(fb.arena, make([]byte, size)...)
	pack(fb.arena[h.off:], fb.buf, fb.perm, &h)
	fb.blocks = append(fb.blocks, h)
	fb.n += len(fb.buf)
	fb.buf = fb.buf[:0]
}

// finish seals the index. The arena and directory were built by append,
// so they are copied into exactly sized allocations now, when they stop
// growing: their spare capacity would otherwise stay resident with the
// index.
func (fb *frozenBuilder) finish() *frozenIndex {
	fb.flush()
	data := make([]byte, len(fb.arena)+tailPad)
	copy(data, fb.arena)
	return &frozenIndex{
		order:        fb.order,
		perm:         fb.perm,
		blockTriples: fb.blockTriples,
		blocks:       append([]fblock(nil), fb.blocks...),
		data:         data,
		n:            fb.n,
	}
}

// fblockDirBytes is the in-memory size of one fence-directory entry.
const fblockDirBytes = int(unsafe.Sizeof(fblock{}))
