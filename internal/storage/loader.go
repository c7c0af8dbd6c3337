// The parallel sort-merge bulk loader. Builder.Build sorts every
// permutation index concurrently on a bounded worker gate; large inputs
// sort chunk-wise and k-way merge, so a multi-core loader is limited by
// the merge bandwidth rather than one serial sort. Compact folds the
// mutation delta by merging sorted runs — the existing sorted index
// (flat or frozen, streamed block by block), the tombstone filter, and
// the freshly sorted delta — instead of re-sorting the world, so
// write-heavy workloads pay O(n + d) per index, not O(n log n).
package storage

import (
	"runtime"
	"sync"
)

// Compression selects the frozen representation of a store's sorted
// indexes.
type Compression uint8

const (
	// CompressionAuto (the default) compresses stores with at least
	// compressMinTriples triples and keeps smaller ones flat.
	CompressionAuto Compression = iota
	// CompressionOn always builds the compressed block-columnar form.
	CompressionOn
	// CompressionOff always keeps flat sorted []Triple indexes.
	CompressionOff
)

const (
	// compressMinTriples is the CompressionAuto threshold: below it the
	// flat representation's zero-copy ranges beat compression's memory
	// savings.
	compressMinTriples = 4096

	// sortChunkTriples is the chunk size of the parallel sort: chunks
	// sort independently and k-way merge.
	sortChunkTriples = 1 << 16

	// parallelSortMin is the input size below which sorting is serial —
	// goroutine and merge overhead dominates under it.
	parallelSortMin = 1 << 15
)

// gate bounds the loader's concurrency: leaf work units (chunk sorts,
// merges, block encodes) run inside do, so however many index builds are
// in flight, at most cap(g) of them burn a CPU at once.
type gate chan struct{}

func (g gate) do(f func()) {
	g <- struct{}{}
	defer func() { <-g }()
	f()
}

// WithParallelism sets the loader's worker count: 0 (the default) means
// GOMAXPROCS, 1 forces the serial build. It returns the builder.
func (b *Builder) WithParallelism(n int) *Builder {
	b.par = n
	return b
}

// WithCompression selects the frozen representation (CompressionAuto by
// default). It returns the builder.
func (b *Builder) WithCompression(c Compression) *Builder {
	b.compress = c
	return b
}

// WithBlockSize sets the compressed block's target triple count (the
// default is defaultBlockTriples); tests use small blocks to exercise
// many boundaries. It returns the builder.
func (b *Builder) WithBlockSize(n int) *Builder {
	b.blockTriples = n
	return b
}

// Build sorts, deduplicates and indexes the triples, consuming the
// builder. Per-order sorts run concurrently on a bounded worker gate;
// large inputs sort chunk-wise and k-way merge. Depending on the
// compression policy the sorted indexes are kept flat or encoded into
// the compressed block-columnar form.
func (b *Builder) Build() *Store {
	par := b.par
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	bt := b.blockTriples
	if bt <= 0 {
		bt = defaultBlockTriples
	}
	s := &Store{orders: b.orders, compress: b.compress, blockTriples: bt, par: par}
	g := make(gate, par)

	base := b.triples
	b.triples = nil
	base = sortTriples(base, OrderSPO.perm(), g)
	base = dedupSorted(base)
	//lint:ignore lockguard construction: s is not shared until Build returns
	s.n = len(base)
	compressed := wantCompressed(b.compress, len(base))

	var wg sync.WaitGroup
	for _, o := range b.orders {
		if o == OrderSPO {
			continue
		}
		wg.Add(1)
		go func(o Order) {
			defer wg.Done()
			var cp []Triple
			g.do(func() {
				cp = make([]Triple, len(base))
				copy(cp, base)
			})
			cp = sortTriples(cp, o.perm(), g)
			s.installBuilt(o, cp, compressed, bt, g)
		}(o)
	}
	if hasOrder(b.orders, OrderSPO) {
		s.installBuilt(OrderSPO, base, compressed, bt, g)
	}
	wg.Wait()
	for _, o := range b.orders {
		if fz := s.frozen[o]; fz != nil {
			//lint:ignore lockguard construction: s is not shared until Build returns
			s.views[o] = newFrozenView(fz)
		}
	}
	return s
}

// installBuilt stores one sorted index in the representation the policy
// chose. Distinct orders write distinct array slots, so the concurrent
// per-order builders in Build never contend.
func (s *Store) installBuilt(o Order, ts []Triple, compressed bool, blockTriples int, g gate) {
	if compressed {
		//lint:ignore lockguard construction: s is not shared until Build returns
		s.frozen[o] = buildFrozenIndex(ts, o, blockTriples, g)
		return
	}
	//lint:ignore lockguard construction: s is not shared until Build returns
	s.indexes[o] = ts
}

// wantCompressed applies the compression policy for a store of n triples.
func wantCompressed(c Compression, n int) bool {
	switch c {
	case CompressionOn:
		return true
	case CompressionOff:
		return false
	default:
		return n >= compressMinTriples
	}
}

// sortTriples sorts ts by perm. Small inputs sort serially in place;
// large ones split into chunks sorted concurrently under the gate and
// k-way merged into a fresh slice, which is returned.
func sortTriples(ts []Triple, perm [3]int, g gate) []Triple {
	nch := (len(ts) + sortChunkTriples - 1) / sortChunkTriples
	if len(ts) < parallelSortMin || cap(g) <= 1 || nch < 2 {
		g.do(func() { sortByOrder(ts, perm) })
		return ts
	}
	chunks := make([][]Triple, nch)
	var wg sync.WaitGroup
	for i := range chunks {
		lo := i * sortChunkTriples
		hi := min(lo+sortChunkTriples, len(ts))
		chunks[i] = ts[lo:hi]
		wg.Add(1)
		go func(c []Triple) {
			defer wg.Done()
			g.do(func() { sortByOrder(c, perm) })
		}(chunks[i])
	}
	wg.Wait()
	var dst []Triple
	g.do(func() { dst = kwayMerge(chunks, perm, make([]Triple, 0, len(ts))) })
	return dst
}

// kwayMerge merges sorted chunks into dst (appended and returned) with a
// hand-rolled binary heap over the chunk heads. Ties between equal
// triples break by chunk index, so the output is deterministic — and
// since duplicates are identical values, byte-identical to a serial sort
// of the concatenation.
func kwayMerge(chunks [][]Triple, perm [3]int, dst []Triple) []Triple {
	pos := make([]int, len(chunks))
	h := make([]int, 0, len(chunks))
	lessChunk := func(a, b int) bool {
		ta, tb := chunks[a][pos[a]], chunks[b][pos[b]]
		if ta != tb {
			return less(perm, ta, tb)
		}
		return a < b
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && lessChunk(h[l], h[small]) {
				small = l
			}
			if r < len(h) && lessChunk(h[r], h[small]) {
				small = r
			}
			if small == i {
				return
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
	}
	for i := range chunks {
		if len(chunks[i]) > 0 {
			h = append(h, i)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		c := h[0]
		dst = append(dst, chunks[c][pos[c]])
		pos[c]++
		if pos[c] == len(chunks[c]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(0)
		}
	}
	return dst
}

// buildFrozenIndex encodes a sorted index into its compressed form.
// Blocks are self-contained, so they encode concurrently: each worker
// encodes a strided share of the blocks under one gate token.
func buildFrozenIndex(ts []Triple, order Order, blockTriples int, g gate) *frozenIndex {
	perm := order.perm()
	nb := (len(ts) + blockTriples - 1) / blockTriples
	fi := &frozenIndex{order: order, perm: perm, blocks: make([]fblock, nb), n: len(ts)}
	workers := min(cap(g), nb)
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g.do(func() {
				for i := w; i < nb; i += workers {
					lo := i * blockTriples
					hi := min(lo+blockTriples, len(ts))
					chunk := ts[lo:hi]
					fi.blocks[i] = fblock{
						first: chunk[0],
						off:   lo,
						n:     hi - lo,
						data:  encodeBlock(nil, chunk, perm),
					}
				}
			})
		}(w)
	}
	wg.Wait()
	for i := range fi.blocks {
		fi.dataBytes += len(fi.blocks[i].data)
	}
	return fi
}

// compactLocked folds the delta into the sorted indexes and drops
// tombstoned triples; the caller holds the write lock. Each index is
// rebuilt by a linear merge of sorted runs — the existing index
// (streamed block by block when frozen, never fully decoded), the
// tombstone filter, and the sorted delta — and re-encoded or kept flat
// per the compression policy. Orders rebuild concurrently under the
// loader gate.
func (s *Store) compactLocked() {
	if len(s.delta) == 0 && len(s.deleted) == 0 {
		return
	}
	newN := s.n + len(s.delta) - len(s.deleted)
	compressed := wantCompressed(s.compress, newN)
	bt := s.blockTriples
	par := s.par
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	g := make(gate, par)

	type rebuilt struct {
		flat []Triple
		fz   *frozenIndex
	}
	out := make([]rebuilt, len(s.orders))
	var wg sync.WaitGroup
	for i, o := range s.orders {
		// Capture the inputs outside the goroutine: the write lock is
		// held for the whole rebuild (wg.Wait below), so the snapshot of
		// fields taken here is stable.
		flat, fz, deleted, delta := s.indexes[o], s.frozen[o], s.deleted, s.delta
		wg.Add(1)
		go func(i int, o Order) {
			defer wg.Done()
			g.do(func() {
				perm := o.perm()
				d := make([]Triple, len(delta))
				copy(d, delta)
				sortByOrder(d, perm)
				if compressed {
					fb := newFrozenBuilder(o, bt)
					mergeRuns(flat, fz, deleted, d, perm, fb.add)
					out[i].fz = fb.finish()
				} else {
					merged := make([]Triple, 0, newN)
					mergeRuns(flat, fz, deleted, d, perm, func(t Triple) { merged = append(merged, t) })
					out[i].flat = merged
				}
			})
		}(i, o)
	}
	wg.Wait()
	for i, o := range s.orders {
		if v := s.views[o]; v != nil {
			v.release() // snapshots of the old generation keep their own refs
			s.views[o] = nil
		}
		s.indexes[o], s.frozen[o] = out[i].flat, out[i].fz
		if out[i].fz != nil {
			s.views[o] = newFrozenView(out[i].fz)
		}
	}
	s.n = newN
	s.delta = nil
	s.present = nil
	s.deleted = nil
	// The visible triple set is unchanged, but the physical layout the
	// zero-copy readers (Triples, snapshots) may be holding is not; a
	// bump keeps version-stamped consumers maximally conservative.
	s.version.Add(1)
}

// mergeRuns merges one sorted index (flat or frozen — exactly one is
// non-nil unless the store is empty) with a sorted delta, dropping
// tombstoned triples, and emits the merged run in order. Delta triples
// are never already present in the index (Add checks) and tombstones
// only name index entries, so the merge sees no equal pairs.
func mergeRuns(flat []Triple, fz *frozenIndex, deleted map[Triple]struct{}, d []Triple, perm [3]int, emit func(Triple)) {
	i := 0
	step := func(t Triple) {
		if _, dead := deleted[t]; dead {
			return
		}
		for i < len(d) && less(perm, d[i], t) {
			emit(d[i])
			i++
		}
		emit(t)
	}
	if fz != nil {
		for bi := range fz.blocks {
			fb := &fz.blocks[bi]
			buf := decodePool.get(fb.n)
			decodeBlockInto(buf.ts, fb.data, fz.perm)
			for _, t := range buf.ts {
				step(t)
			}
			buf.release()
		}
	} else {
		for _, t := range flat {
			step(t)
		}
	}
	for ; i < len(d); i++ {
		emit(d[i])
	}
}
