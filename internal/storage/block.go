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
// shared process-wide, so steady-state query traffic re-decodes hot
// blocks into recycled memory instead of allocating. A frozenView is
// the cursor layer on top: it caches decoded blocks and materialized
// multi-block spans for its lifetime, is shared by every snapshot of
// one store generation, and returns everything to the pool when the
// last holder releases it.
package storage

import (
	"sort"
	"sync"
	"sync/atomic"
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

	// maxSpanTriples bounds one materialized multi-block range. A range
	// wider than this is declined (Range reports ok=false) and the
	// caller streams through Scan instead: materializing such a range
	// from blocks would cost O(range) memory per call.
	maxSpanTriples = 1 << 16

	// maxCachedSpans bounds the per-view span cache; beyond it spans are
	// materialized into unpooled buffers owned by the caller alone.
	maxCachedSpans = 256

	// maxCachedBlocks bounds the per-view decoded-block cache; beyond
	// it blocks decode transiently through the pool. It caps the
	// decoded residency of one store generation at roughly
	// maxCachedBlocks × blockTriples × 24 bytes per order.
	maxCachedBlocks = 512
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

// spanKey identifies one materialized global range of a frozen index.
type spanKey struct{ lo, hi int }

// frozenView is the read cursor over one frozen index: it lazily decodes
// blocks into pooled buffers and caches them (and materialized
// multi-block spans) for its lifetime. One view is shared by the owning
// store and every snapshot of that store generation — the view is
// ref-counted, and the last release (store compaction replacing the
// generation, or the last snapshot done with it) returns every cached
// buffer to the pool. All methods are safe for concurrent lock-free use.
//
// The caches below are keyed purely by position within one immutable
// frozenIndex — a view never outlives its generation, so entries cannot
// go stale; the versionstamp discipline is satisfied structurally, which
// is what the suppressions on the span map record.
//
//lint:cache blockview
type frozenView struct {
	fi   *frozenIndex
	refs atomic.Int32

	// dec caches decoded blocks, installed by CAS; nCached bounds it.
	dec     []atomic.Pointer[blockBuf]
	nCached atomic.Int32

	// spans caches materialized multi-block ranges.
	mu    sync.Mutex
	spans map[spanKey][]Triple
	bufs  []*blockBuf // pooled backings of cached spans
}

func newFrozenView(fi *frozenIndex) *frozenView {
	v := &frozenView{fi: fi, dec: make([]atomic.Pointer[blockBuf], len(fi.blocks))}
	v.refs.Store(1)
	return v
}

func (v *frozenView) retain() { v.refs.Add(1) }

// release drops one reference; the last holder's release returns every
// cached block and span buffer to the pool. The caller must guarantee
// that no reads through its reference are still in flight — the engine
// releases its snapshot only after joining all evaluation workers.
func (v *frozenView) release() {
	if v.refs.Add(-1) != 0 {
		return
	}
	for i := range v.dec {
		if b := v.dec[i].Swap(nil); b != nil {
			b.release()
		}
	}
	v.mu.Lock()
	bufs := v.bufs
	v.bufs = nil
	v.spans = nil
	v.mu.Unlock()
	for _, b := range bufs {
		b.release()
	}
}

// acquire returns the decoded triples of block i. cached=true means the
// block is cached on the view and stays valid until the view's release;
// cached=false hands the caller a transient pooled buffer it must
// release via buf.release() when done (buf is nil iff cached).
func (v *frozenView) acquire(i int) (ts []Triple, buf *blockBuf, cached bool) {
	if b := v.dec[i].Load(); b != nil {
		return b.ts, nil, true
	}
	fb := &v.fi.blocks[i]
	b := decodePool.get(fb.n)
	decodeBlockInto(b.ts, fb.data, v.fi.perm)
	if v.nCached.Load() < maxCachedBlocks && v.dec[i].CompareAndSwap(nil, b) {
		v.nCached.Add(1)
		return b.ts, nil, true
	}
	if w := v.dec[i].Load(); w != nil { // lost the race: use the winner
		b.release()
		return w.ts, nil, true
	}
	return b.ts, b, false
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
// to the blocks on that side. The hint leaves holding the landing block
// only if that block is cached on the view, so its slice stays valid as
// long as the snapshot that owns the hint's view reference does.
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
	var buf *blockBuf
	if ts == nil {
		c, in = v.firstBlock(q, from, to, 0), 0
		if c > from { // block c-1 starts below the key: the bound is inside it or at its end
			if ts, buf, _ = v.acquire(c - 1); q.cmp(ts[len(ts)-1]) >= 0 {
				c, in = c-1, q.bound(ts, 0, len(ts)-1, 0)
			} else {
				buf.release()
				ts = nil
			}
		}
		if c == len(blocks) {
			return v.fi.n, v.fi.n
		}
		if ts == nil {
			ts, buf, _ = v.acquire(c)
		}
	}
	end := q.gallop(ts, in, 1)
	lo, hi = blocks[c].off+in, blocks[c].off+end
	if end == len(ts) && c+1 < len(blocks) && q.cmp(blocks[c+1].first) == 0 {
		last := v.firstBlock(q, c+2, len(blocks), 1) - 1 // the run stops inside this block or at its end
		lts, lbuf, _ := v.acquire(last)
		hi = blocks[last].off + q.bound(lts, 0, len(lts), 1)
		lbuf.release()
	}
	if buf == nil {
		h.ts, h.blk, h.at = ts, c, in
	}
	buf.release()
	return lo, hi
}

// iterate streams the triples of the global range [lo, hi) to f in index
// order, stopping early if f returns false. Blocks already cached on the
// view are walked in place; others decode transiently into one pooled
// buffer that is reused block after block, so a full-index scan holds
// O(block) decoded memory, not O(index).
func (v *frozenView) iterate(lo, hi int, f func(Triple) bool) {
	if lo >= hi {
		return
	}
	for i := v.fi.blockOf(lo); i < len(v.fi.blocks) && v.fi.blocks[i].off < hi; i++ {
		fb := &v.fi.blocks[i]
		ts, buf, cached := v.acquire(i)
		a, b := 0, fb.n
		if fb.off < lo {
			a = lo - fb.off
		}
		if fb.off+fb.n > hi {
			b = hi - fb.off
		}
		for _, t := range ts[a:b] {
			if !f(t) {
				if !cached {
					buf.release()
				}
				return
			}
		}
		if !cached {
			buf.release()
		}
	}
}

// slice materializes the global range [lo, hi) as one contiguous triple
// slice, valid until the view's release. A range within a single block
// is a zero-copy view of the cached decoded block; a multi-block range
// is assembled once into a pooled span buffer and cached under its
// (lo, hi) key. ok=false means the range is too wide to materialize
// (maxSpanTriples) — callers fall back to streaming.
func (v *frozenView) slice(lo, hi int) (ts []Triple, ok bool) {
	if lo >= hi {
		return nil, true
	}
	b0 := v.fi.blockOf(lo)
	fb0 := &v.fi.blocks[b0]
	if hi <= fb0.off+fb0.n {
		ts, buf, cached := v.acquire(b0)
		if cached {
			return ts[lo-fb0.off : hi-fb0.off : hi-fb0.off], true
		}
		// Block cache full: copy the range out so the transient buffer
		// can go back to the pool, and cache the copy as a span.
		out := v.copySpan(lo, hi, ts[lo-fb0.off:hi-fb0.off])
		buf.release()
		return out, true
	}
	if hi-lo > maxSpanTriples {
		return nil, false
	}
	v.mu.Lock()
	//lint:ignore versionstamp span cache keyed by position in one immutable frozenIndex; the view dies with its store generation, so entries cannot span versions
	if s, hit := v.spans[spanKey{lo, hi}]; hit {
		v.mu.Unlock()
		return s, true
	}
	v.mu.Unlock()
	out := v.materialize(lo, hi)
	return out, true
}

// copySpan installs a copy of src as the cached span for [lo, hi).
func (v *frozenView) copySpan(lo, hi int, src []Triple) []Triple {
	v.mu.Lock()
	defer v.mu.Unlock()
	//lint:ignore versionstamp span cache keyed by position in one immutable frozenIndex (see slice)
	if s, hit := v.spans[spanKey{lo, hi}]; hit {
		return s
	}
	out := v.newSpanLocked(hi - lo)
	copy(out, src)
	v.putSpanLocked(spanKey{lo, hi}, out)
	return out
}

// materialize assembles the multi-block range [lo, hi): interior blocks
// decode straight into the span buffer, boundary blocks decode through
// acquire and copy their overlap.
func (v *frozenView) materialize(lo, hi int) []Triple {
	v.mu.Lock()
	out := v.newSpanLocked(hi - lo)
	v.mu.Unlock()
	w := 0
	for i := v.fi.blockOf(lo); i < len(v.fi.blocks) && v.fi.blocks[i].off < hi; i++ {
		fb := &v.fi.blocks[i]
		if fb.off >= lo && fb.off+fb.n <= hi {
			decodeBlockInto(out[w:w+fb.n], fb.data, v.fi.perm)
			w += fb.n
			continue
		}
		ts, buf, cached := v.acquire(i)
		a, b := 0, fb.n
		if fb.off < lo {
			a = lo - fb.off
		}
		if fb.off+fb.n > hi {
			b = hi - fb.off
		}
		w += copy(out[w:], ts[a:b])
		if !cached {
			buf.release()
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	//lint:ignore versionstamp span cache keyed by position in one immutable frozenIndex (see slice)
	if s, hit := v.spans[spanKey{lo, hi}]; hit {
		return s // a concurrent materialization of the same range won
	}
	v.putSpanLocked(spanKey{lo, hi}, out)
	return out
}

// newSpanLocked allocates a span buffer of n triples: pooled while the
// span cache has room (the view retains the backing and releases it with
// the cache), plain otherwise.
func (v *frozenView) newSpanLocked(n int) []Triple {
	if v.spans != nil && len(v.spans) >= maxCachedSpans {
		return make([]Triple, n)
	}
	b := decodePool.get(n)
	v.bufs = append(v.bufs, b)
	return b.ts
}

// putSpanLocked caches a materialized span while there is room.
func (v *frozenView) putSpanLocked(k spanKey, s []Triple) {
	if v.spans == nil {
		v.spans = make(map[spanKey][]Triple, 16)
	}
	if len(v.spans) >= maxCachedSpans {
		return
	}
	//lint:ignore versionstamp span cache keyed by position in one immutable frozenIndex (see slice)
	v.spans[k] = s
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
	fb.starts = append(fb.starts, len(fb.arena))
	fb.firsts = append(fb.firsts, fb.buf[0])
	fb.counts = append(fb.counts, len(fb.buf))
	fb.arena = encodeBlock(fb.arena, fb.buf, fb.perm)
	fb.n += len(fb.buf)
	fb.buf = fb.buf[:0]
}

// finish seals the index. The arena was built by append, so the block
// payload subslices are carved out only now, when it stops moving.
func (fb *frozenBuilder) finish() *frozenIndex {
	fb.flush()
	fi := &frozenIndex{
		order:     fb.order,
		perm:      fb.perm,
		blocks:    make([]fblock, len(fb.starts)),
		n:         fb.n,
		dataBytes: len(fb.arena),
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
	return fi
}
