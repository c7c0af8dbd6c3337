// The compressed block-columnar frozen form every sorted index takes. A
// frozen permutation index is a sequence of independently-decodable compressed
// blocks (see encode.go) plus an in-memory fence-key directory — the
// first triple key and global offset of every block — over which range
// lookups binary-search without touching the payload: the fences narrow
// any bound-prefix pattern to at most two boundary blocks, and only
// those are decoded.
//
// Decoded blocks come out of a size-class pool of ref-counted triple
// buffers (the mbuf idiom: explicit retain/release, zero-copy views)
// shared process-wide. A frozenView is the cursor layer on top: it
// decodes each block a probe touches once and keeps it, so the decoded
// state of one store generation is exactly the blocks its queries
// touched. Ranges are handed out in place, as per-block segments of
// those cached blocks (Span), never as copies. Whole-index walks read the
// cached blocks in place and decode the rest transiently. The view is
// shared by every snapshot of one store generation and returns its
// blocks to the pool when the last holder releases it.
package storage

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// defaultBlockTriples is the target triple count per block. At the
	// observed ~2.5 bytes/triple this makes blocks a few KB: big enough
	// to amortize fence-directory overhead, small enough that a point
	// lookup decodes little.
	defaultBlockTriples = 1024

	// minBufClass is the smallest pooled decode-buffer capacity;
	// numBufClasses size classes double from there (256 .. 64Ki
	// triples). Larger requests are served unpooled.
	minBufClass   = 256
	numBufClasses = 9

	// maxSpanTriples bounds the multi-block range Range copies out into
	// one slice. A range wider than this is declined (Range reports
	// ok=false) and the caller streams through Scan or walks RangeFrom's
	// span instead: copying it would cost O(range) memory per call.
	maxSpanTriples = 1 << 16

	// tripleBytes is the in-memory size of one decoded Triple.
	tripleBytes = int(unsafe.Sizeof(Triple{}))
)

// fblock is one compressed block plus its fence-directory entry.
type fblock struct {
	first Triple // the block's first triple — the fence key
	off   int    // global position of the first triple in the index
	n     int    // triples in the block
	data  []byte // compressed payload
}

// frozenIndex is one immutable compressed permutation index.
type frozenIndex struct {
	order     Order
	perm      [3]int
	blocks    []fblock
	n         int // total triples
	dataBytes int // compressed payload bytes across blocks
}

// blockOf returns the index of the block containing global position pos.
func (fi *frozenIndex) blockOf(pos int) int {
	// First block whose off exceeds pos, minus one.
	return sort.Search(len(fi.blocks), func(i int) bool { return fi.blocks[i].off > pos }) - 1
}

// blockBuf is a pooled, ref-counted decode buffer (the mbuf idiom).
// The triples slice is a zero-copy view for as long as the holder's
// reference is live; release returns the buffer to its size class once
// the last reference drops.
type blockBuf struct {
	ts    []Triple
	refs  atomic.Int32
	class int8 // pool size class, -1 for unpooled
}

func (b *blockBuf) retain() { b.refs.Add(1) }

// release drops one reference; the last release returns the buffer to
// the pool. The holder must not touch b.ts afterwards. Releasing nil — what
// acquire hands out beside a cached block — is a no-op.
func (b *blockBuf) release() {
	if b == nil || b.refs.Add(-1) != 0 {
		return
	}
	if b.class >= 0 {
		decodePool.classes[b.class].Put(b)
	}
}

// bufPool hands out decode buffers by size class.
type bufPool struct {
	classes [numBufClasses]sync.Pool
}

var decodePool bufPool

// classFor returns the smallest size class with capacity ≥ n, or -1.
func classFor(n int) int {
	c, size := 0, minBufClass
	for c < numBufClasses {
		if n <= size {
			return c
		}
		c++
		size <<= 1
	}
	return -1
}

// get returns a buffer with len n and one reference.
func (p *bufPool) get(n int) *blockBuf {
	c := classFor(n)
	if c < 0 {
		b := &blockBuf{ts: make([]Triple, n), class: -1}
		b.refs.Store(1)
		return b
	}
	if v := p.classes[c].Get(); v != nil {
		b := v.(*blockBuf)
		b.ts = b.ts[:n]
		b.refs.Store(1)
		return b
	}
	b := &blockBuf{ts: make([]Triple, n, minBufClass<<c), class: int8(c)}
	b.refs.Store(1)
	return b
}

// frozenView is the read cursor over one frozen index: it decodes each
// block a probe touches into a pooled buffer, once, and keeps it for its
// lifetime. One view is shared by the owning store and every snapshot of
// that store generation — the view is ref-counted, and the last release
// (store compaction replacing the generation, or the last snapshot done
// with it) returns every cached buffer to the pool. Its decoded state is
// therefore bounded by the blocks the generation's probes touched: at
// most 12 bytes per triple of every order they read. All methods are
// safe for concurrent lock-free use.
type frozenView struct {
	fi   *frozenIndex
	refs atomic.Int32

	// dec caches decoded blocks, installed by CAS.
	dec []atomic.Pointer[blockBuf]
	// decodes counts the blocks acquire decoded, a lost install race
	// included: one per touched block when probes do not race.
	decodes atomic.Int64
}

func newFrozenView(fi *frozenIndex) *frozenView {
	v := &frozenView{fi: fi, dec: make([]atomic.Pointer[blockBuf], len(fi.blocks))}
	v.refs.Store(1)
	return v
}

func (v *frozenView) retain() { v.refs.Add(1) }

// release drops one reference; the last holder's release returns every
// cached block to the pool. The caller must guarantee that no reads
// through its reference are still in flight — the engine releases its
// snapshot only after joining all evaluation workers.
func (v *frozenView) release() {
	if v.refs.Add(-1) != 0 {
		return
	}
	for i := range v.dec {
		if b := v.dec[i].Swap(nil); b != nil {
			b.release()
		}
	}
}

// acquire returns the decoded triples of block i, decoding and caching
// the block on first touch; the slice stays valid until the view's
// release.
func (v *frozenView) acquire(i int) []Triple {
	if b := v.dec[i].Load(); b != nil {
		return b.ts
	}
	fb := &v.fi.blocks[i]
	b := decodePool.get(fb.n)
	decodeBlockInto(b.ts, fb.data, v.fi.perm)
	v.decodes.Add(1)
	if !v.dec[i].CompareAndSwap(nil, b) { // lost the race: use the winner
		b.release()
	}
	return v.dec[i].Load().ts
}

// firstBlock returns the first block in [lo, hi) whose fence key compares
// >= thr against the probe (hi if none).
func (v *frozenView) firstBlock(q *probe, lo, hi, thr int) int {
	blocks := v.fi.blocks
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.cmp(blocks[m].first) >= thr {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// seek returns the [lo, hi) global range of triples matching the probe's
// bound prefix, in one descent: the fence directory names the one
// block that can hold the lower bound, a search inside its decoded
// triples finds it, and the upper bound is galloped to from there, in
// the same block unless the run reaches the block's end (then one more
// directory search finds the block it stops in). A hint whose block still
// brackets the key skips the directory and the block lookup; one whose
// block lies wholly below or above the key narrows the directory search
// to the blocks on that side. The hint leaves holding the landing block,
// cached on the view, so its slice stays valid as long as the snapshot
// that owns the hint's view reference does. An unbound probe is the whole
// index and touches no block.
func (v *frozenView) seek(q *probe, h *Hint) (lo, hi int) {
	blocks := v.fi.blocks
	ts, c, in := h.ts, h.blk, 0
	h.ts = nil
	if q.prefix == 0 || len(blocks) == 0 {
		return 0, v.fi.n
	}
	from, to := 0, len(blocks) // the directory range left to search
	switch {
	case ts == nil:
	case q.cmp(ts[len(ts)-1]) < 0: // the whole block is below the key
		ts, from = nil, c+1
	case c > 0 && q.cmp(ts[0]) >= 0: // the bound may lie in an earlier block
		ts, to = nil, c+1
	default:
		in = q.lowerFrom(ts, h.at)
	}
	if ts == nil {
		c, in = v.firstBlock(q, from, to, 0), 0
		if c > from { // block c-1 starts below the key: the bound is inside it or at its end
			if ts = v.acquire(c - 1); q.cmp(ts[len(ts)-1]) >= 0 {
				c, in = c-1, q.bound(ts, 0, len(ts)-1, 0)
			} else {
				ts = nil
			}
		}
		if c == len(blocks) {
			return v.fi.n, v.fi.n
		}
		if ts == nil {
			ts = v.acquire(c)
		}
	}
	end := q.gallop(ts, in, 1)
	lo, hi = blocks[c].off+in, blocks[c].off+end
	if end == len(ts) && c+1 < len(blocks) && q.cmp(blocks[c+1].first) == 0 {
		last := v.firstBlock(q, c+2, len(blocks), 1) - 1 // the run stops inside this block or at its end
		lts := v.acquire(last)
		hi = blocks[last].off + q.bound(lts, 0, len(lts), 1)
	}
	h.ts, h.blk, h.at = ts, c, in
	return lo, hi
}

// iterate streams the triples of the global range [lo, hi) to f in index
// order, stopping early if f returns false. A probe's range (keep) reads
// through acquire, caching what it decodes. A whole-index walk reads the
// cached blocks in place and decodes the rest transiently into one pooled
// buffer, reused block after block: it holds O(block) decoded memory and
// leaves the view as it found it.
func (v *frozenView) iterate(lo, hi int, keep bool, f func(Triple) bool) {
	var tmp *blockBuf
	defer func() { tmp.release() }()
	for i := v.fi.blockOf(lo); lo < hi && i < len(v.fi.blocks) && v.fi.blocks[i].off < hi; i++ {
		fb := &v.fi.blocks[i]
		var ts []Triple
		switch b := v.dec[i].Load(); {
		case b != nil:
			ts = b.ts
		case keep:
			ts = v.acquire(i)
		default:
			if tmp == nil || cap(tmp.ts) < fb.n {
				tmp.release()
				tmp = decodePool.get(fb.n)
			}
			ts = tmp.ts[:fb.n]
			decodeBlockInto(ts, fb.data, v.fi.perm)
		}
		for _, t := range ts[max(lo-fb.off, 0):min(hi-fb.off, fb.n)] {
			if !f(t) {
				return
			}
		}
	}
}

// decoded reports the view's cached blocks and their resident bytes.
func (v *frozenView) decoded() (blocks, bytes int) {
	for i := range v.dec {
		if b := v.dec[i].Load(); b != nil {
			blocks++
			bytes += cap(b.ts) * tripleBytes
		}
	}
	return blocks, bytes
}

// frozenBuilder encodes a sorted triple stream into a frozenIndex
// without materializing it as one slice — the streaming encoder the
// merge-based compaction feeds. Blocks are cut every blockTriples.
type frozenBuilder struct {
	order        Order
	perm         [3]int
	blockTriples int
	arena        []byte
	starts       []int // arena offset where each block's payload begins
	firsts       []Triple
	counts       []int
	buf          []Triple
	n            int
	tally        *tally // fed each block before it is encoded, if set
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
	fb.starts = append(fb.starts, len(fb.arena))
	fb.firsts = append(fb.firsts, fb.buf[0])
	fb.counts = append(fb.counts, len(fb.buf))
	fb.arena = encodeBlock(fb.arena, fb.buf, fb.perm)
	fb.n += len(fb.buf)
	fb.buf = fb.buf[:0]
}

// finish seals the index. The arena was built by append, so the block
// payloads are carved out only now, when it stops moving, and packed
// into an exactly sized copy: the append-grown arena's spare capacity
// would otherwise stay resident with the index.
func (fb *frozenBuilder) finish() *frozenIndex {
	fb.flush()
	fi := &frozenIndex{
		order:  fb.order,
		perm:   fb.perm,
		blocks: make([]fblock, len(fb.starts)),
		n:      fb.n,
	}
	off := 0
	for i, start := range fb.starts {
		end := len(fb.arena)
		if i+1 < len(fb.starts) {
			end = fb.starts[i+1]
		}
		fi.blocks[i] = fblock{
			first: fb.firsts[i],
			off:   off,
			n:     fb.counts[i],
			data:  fb.arena[start:end:end],
		}
		off += fb.counts[i]
	}
	fi.dataBytes = packPayloads(fi.blocks)
	return fi
}
