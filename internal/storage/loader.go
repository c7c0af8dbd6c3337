// The parallel sort-merge bulk loader. Builder.Build sorts every
// permutation index concurrently on a bounded worker gate and encodes it
// into the compressed block-columnar form; large inputs sort chunk-wise
// and k-way merge, so a multi-core loader is limited by the merge
// bandwidth rather than one serial sort. Compact folds the mutation
// delta by merging sorted runs — the existing index streamed block by
// block, the tombstone filter, and the freshly sorted delta — into a
// streaming block encoder instead of re-sorting the world, so
// write-heavy workloads pay O(n + d) per index, not O(n log n).
package storage

import (
	"runtime"
	"sync"
)

const (
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

// WithBlockSize sets the compressed block's target triple count (the
// default is defaultBlockTriples); tests use small blocks to exercise
// many boundaries. It returns the builder.
func (b *Builder) WithBlockSize(n int) *Builder {
	b.blockTriples = n
	return b
}

// Build sorts, deduplicates and indexes the triples, consuming the
// builder. Per-order sorts run concurrently on a bounded worker gate;
// large inputs sort chunk-wise and k-way merge, and every sorted index
// is encoded into the compressed block-columnar form. The store is
// assembled only once every index is built, so no goroutine writes a
// store another can see.
func (b *Builder) Build() *Store {
	par := b.par
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	bt := b.blockTriples
	if bt <= 0 {
		bt = defaultBlockTriples
	}
	g := make(gate, par)

	base := b.triples
	b.triples = nil
	base = sortTriples(base, OrderSPO.perm(), g)
	base = dedupSorted(base)

	// Distinct orders write distinct slots, so the concurrent per-order
	// builders never contend.
	var views [numOrders]*frozenView
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
			views[o] = newFrozenView(buildFrozenIndex(cp, o, bt, g))
		}(o)
	}
	if hasOrder(b.orders, OrderSPO) {
		views[OrderSPO] = newFrozenView(buildFrozenIndex(base, OrderSPO, bt, g))
	}
	wg.Wait()
	return &Store{orders: b.orders, views: views, n: len(base), blockTriples: bt, par: par}
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
// encodes a strided share of the blocks under one gate token. The
// payloads are then packed into one exactly sized allocation.
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
	fi.dataBytes = packPayloads(fi.blocks)
	return fi
}

// packPayloads copies the blocks' payloads back to back into one
// allocation of exactly their total size and points the blocks at it, so
// the index holds no capacity beyond its bytes; it returns that size.
func packPayloads(blocks []fblock) int {
	total := 0
	for _, b := range blocks {
		total += len(b.data)
	}
	arena := make([]byte, total)
	off := 0
	for i := range blocks {
		n := copy(arena[off:], blocks[i].data)
		blocks[i].data = arena[off : off+n : off+n]
		off += n
	}
	return total
}

// compactLocked folds the delta into the sorted indexes and drops
// tombstoned triples; the caller holds the write lock. Each index is
// rebuilt by a linear merge of sorted runs — the existing index
// (walked block by block: cached blocks in place, the rest decoded
// transiently, never fully decoded at once), the tombstone filter,
// and the sorted delta — straight into a streaming block encoder.
// Orders rebuild concurrently under the loader gate.
func (s *Store) compactLocked() {
	if len(s.delta) == 0 && len(s.deleted) == 0 {
		return
	}
	bt := s.blockTriples
	par := s.par
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	g := make(gate, par)

	out := make([]*frozenIndex, len(s.orders))
	var wg sync.WaitGroup
	for i, o := range s.orders {
		// Capture the inputs outside the goroutine: the write lock is
		// held for the whole rebuild (wg.Wait below), so the snapshot of
		// fields taken here is stable.
		view, deleted, delta := s.views[o], s.deleted, s.delta
		wg.Add(1)
		go func(i int, o Order) {
			defer wg.Done()
			g.do(func() {
				perm := o.perm()
				d := make([]Triple, len(delta))
				copy(d, delta)
				sortByOrder(d, perm)
				fb := newFrozenBuilder(o, bt)
				mergeRuns(view, deleted, d, perm, fb.add)
				out[i] = fb.finish()
			})
		}(i, o)
	}
	wg.Wait()
	for i, o := range s.orders {
		s.views[o].release() // snapshots of the old generation keep their own refs
		s.views[o] = newFrozenView(out[i])
	}
	s.n += len(s.delta) - len(s.deleted)
	s.delta = nil
	s.present = nil
	s.deleted = nil
	// The visible triple set is unchanged, but the physical layout the
	// snapshots may be holding is not; a bump keeps version-stamped
	// consumers maximally conservative.
	s.version.Add(1)
}

// mergeRuns merges one sorted index with a sorted delta, dropping
// tombstoned triples, and emits the merged run in order. Delta triples
// are never already present in the index (Add checks) and tombstones
// only name index entries, so the merge sees no equal pairs.
func mergeRuns(v *frozenView, deleted map[Triple]struct{}, d []Triple, perm [3]int, emit func(Triple)) {
	i := 0
	v.iterate(0, v.fi.n, false, func(t Triple) bool {
		if _, dead := deleted[t]; !dead {
			for i < len(d) && less(perm, d[i], t) {
				emit(d[i])
				i++
			}
			emit(t)
		}
		return true
	})
	for ; i < len(d); i++ {
		emit(d[i])
	}
}
