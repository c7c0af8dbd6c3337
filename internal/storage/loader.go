// The bulk loader. Builder.Build radix-sorts the triples once into SPO
// order and deduplicates them; every other permutation index is derived
// from that sorted base by a stable radix sort over only the leading
// columns the SPO order does not already settle (OSP re-sorts by O
// alone, POS by P and O). The per-order builds run concurrently on a
// bounded worker gate, and each sorted index is packed into bit-packed
// blocks (block.go, encode.go).
// The per-property statistics are tallied from the sorted SPO and POS
// arrays on the way (see tally).
// Compact folds the mutation delta by merging sorted runs — the existing
// index streamed a few rows at a time, the sorted tombstones, and the
// freshly sorted delta — into a streaming block packer instead of
// re-sorting the world, so write-heavy workloads pay O(n + d) per index,
// not O(n log n); the SPO and POS packers re-tally the statistics block
// by block.
package storage

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/dict"
)

// gate bounds the loader's concurrency: leaf work units (index sorts,
// block packing) run inside do, so however many index builds are
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

// WithBlockSize sets the packed block's row count (the default is
// defaultBlockTriples); tests use small blocks to exercise many
// boundaries. It returns the builder.
func (b *Builder) WithBlockSize(n int) *Builder {
	b.blockTriples = n
	return b
}

// Build sorts, deduplicates and indexes the triples, consuming the
// builder. The SPO base is sorted once; each other order is a copy of it
// re-sorted by its spoPrefix columns. Per-order builds run concurrently
// on a bounded worker gate, and every sorted index is packed into
// bit-packed blocks. The store is assembled only once every
// index is built, so no goroutine writes a store another can see.
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
	g.do(func() { sortByOrder(base, OrderSPO.perm()) })
	base = dedupSorted(base)

	// Distinct orders write distinct slots, and only the POS builder
	// tallies into pos, so the concurrent per-order builders never
	// contend.
	var indexes [numOrders]*frozenIndex
	spo, pos := tally{order: OrderSPO}, tally{order: OrderPOS}
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
				perm := o.perm()
				sortPrefix(cp, perm, spoPrefix(perm))
				if o == OrderPOS {
					pos.add(cp)
				}
			})
			indexes[o] = buildFrozenIndex(cp, o, bt, g)
		}(o)
	}
	g.do(func() { spo.add(base) })
	indexes[OrderSPO] = buildFrozenIndex(base, OrderSPO, bt, g)
	wg.Wait()
	return &Store{orders: b.orders, indexes: indexes, n: len(base), props: joinTallies(&spo, &pos), blockTriples: bt, par: par}
}

// tally accumulates the per-property statistics of one sorted stream of
// distinct triples, fed in consecutive runs: the whole sorted array at
// Build, each block as Compact's merge packs it. From SPO order it
// takes each property's DistinctS, one per (S,P) run; from POS order its
// Count and DistinctO, one per triple and one per (P,O) run. It holds an
// entry per property seen, ordered by property.
type tally struct {
	order Order // OrderSPO or OrderPOS
	props []PropTally
	last  Triple // the last triple fed, once props is non-empty

	// SPO: where the next run's entry is looked for first. at is last.P's
	// entry, first the entry that began last.S's runs, and next[i] the
	// entry that followed entry i within the last subject that had it.
	// Subjects of one kind come together, so a subject's properties
	// usually follow the last one's; a guess is checked before use, and
	// one made stale by an insertion only costs a search.
	at, first int
	next      []int
}

// add feeds the next sorted run of the stream.
func (t *tally) add(ts []Triple) {
	if t.order == OrderSPO {
		t.addSPO(ts)
	} else {
		t.addPOS(ts)
	}
}

func (t *tally) addPOS(ts []Triple) {
	for _, tr := range ts {
		if n := len(t.props); n == 0 || tr.P != t.last.P {
			t.props = append(t.props, PropTally{P: tr.P, Count: 1, DistinctO: 1})
		} else {
			ps := &t.props[n-1]
			ps.Count++
			if tr.O != t.last.O {
				ps.DistinctO++
			}
		}
		t.last = tr
	}
}

func (t *tally) addSPO(ts []Triple) {
	for _, tr := range ts {
		switch {
		case len(t.props) > 0 && tr.S == t.last.S && tr.P == t.last.P:
		case len(t.props) > 0 && tr.S == t.last.S: // a subject's runs ascend by property
			i := t.entry(tr.P, t.next[t.at], t.at+1)
			t.next[t.at], t.at = i, i
			t.props[i].DistinctS++
		default:
			i := t.entry(tr.P, t.first, 0)
			t.first, t.at = i, i
			t.props[i].DistinctS++
		}
		t.last = tr
	}
}

// entry returns the position of p's entry: guess if it holds p, else
// found by a binary search of the entries from from on, which is added
// there if p is new.
func (t *tally) entry(p dict.ID, guess, from int) int {
	if guess < len(t.props) && t.props[guess].P == p {
		return guess
	}
	lo, hi := from, len(t.props)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.props[m].P < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(t.props) || t.props[lo].P != p {
		t.props = slices.Insert(t.props, lo, PropTally{P: p})
		t.next = slices.Insert(t.next, lo, 0)
	}
	return lo
}

// joinTallies returns the statistics of the triples both tallies were fed,
// the SPO tally's DistinctS joined to the POS tally's entries: both hold
// one entry per property, in property order.
func joinTallies(spo, pos *tally) []PropTally {
	props := pos.props
	for i := range props {
		props[i].DistinctS = spo.props[i].DistinctS
	}
	return props
}

// Sort sorts ts into the order o in place with the loader's radix sort
// (see sortPrefix).
func Sort(ts []Triple, o Order) { sortByOrder(ts, o.perm()) }

// sortByOrder sorts ts into the order perm (see sortPrefix). The order
// is total and its ties are identical triples, so the result does not
// depend on the input's arrangement.
func sortByOrder(ts []Triple, perm [3]int) { sortPrefix(ts, perm, 3) }

// sortPrefix stably sorts ts by the columns perm[:k] with an LSD radix
// sort over byte digits: the low byte of perm[k-1] first, the high byte
// of perm[0] last. One counting pass fills every digit's histogram; a
// digit on which every key agrees is skipped (LUBM's 15-bit IDs keep two
// of each column's four), and each remaining digit scatters the triples
// between ts and one scratch buffer, which swap roles every pass. The
// result ends in ts.
func sortPrefix(ts []Triple, perm [3]int, k int) {
	n := len(ts)
	if n < 2 || k == 0 {
		return
	}
	// Digit 4j+b is byte b of column cols[j], least significant first;
	// the columns after the first k only pad the counting pass.
	cols := [3]int{perm[k-1], perm[max(k-2, 0)], perm[max(k-3, 0)]}
	var hist [12][256]int
	for _, t := range ts {
		c := key(t)
		x, y, z := c[cols[0]], c[cols[1]], c[cols[2]]
		hist[0][byte(x)]++
		hist[1][byte(x>>8)]++
		hist[2][byte(x>>16)]++
		hist[3][byte(x>>24)]++
		hist[4][byte(y)]++
		hist[5][byte(y>>8)]++
		hist[6][byte(y>>16)]++
		hist[7][byte(y>>24)]++
		hist[8][byte(z)]++
		hist[9][byte(z>>8)]++
		hist[10][byte(z>>16)]++
		hist[11][byte(z>>24)]++
	}
	src := ts
	var dst []Triple
	for d := 0; d < 4*k; d++ {
		pos, shift := cols[d/4], uint(8*(d%4))
		h := &hist[d]
		if h[byte(key(src[0])[pos]>>shift)] == n {
			continue // every key agrees on this digit
		}
		if dst == nil {
			dst = make([]Triple, n)
		}
		off := 0
		for i, c := range h {
			h[i] = off
			off += c
		}
		for _, t := range src {
			b := byte(key(t)[pos] >> shift)
			dst[h[b]] = t
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}

// spoPrefix returns how many leading columns of perm an SPO-sorted input
// must be stably re-sorted by to come out in perm's order: the shortest k
// for which perm[k:] follows SPO's relative column order, since the
// stable sort leaves ties on perm[:k] in SPO order. SPO needs 0, OSP and
// PSO 1, POS, SOP and OPS 2.
func spoPrefix(perm [3]int) int {
	k := 2
	for k > 0 && perm[k-1] < perm[k] {
		k--
	}
	return k
}

// buildFrozenIndex packs a sorted index. Blocks are self-contained, so
// they pack concurrently, in two strided passes of the gate's workers:
// the first takes every block's header, whose widths size its payload,
// and once the payload offsets are summed the second packs every block
// into its own bytes of one exactly sized arena.
func buildFrozenIndex(ts []Triple, order Order, blockTriples int, g gate) *frozenIndex {
	perm := order.perm()
	nb := (len(ts) + blockTriples - 1) / blockTriples
	fi := &frozenIndex{order: order, perm: perm, blockTriples: blockTriples, blocks: make([]fblock, nb), n: len(ts)}
	chunk := func(i int) []Triple { return ts[i*blockTriples : min((i+1)*blockTriples, len(ts))] }
	strided := func(f func(i int)) {
		workers := max(min(cap(g), nb), 1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				g.do(func() {
					for i := w; i < nb; i += workers {
						f(i)
					}
				})
			}(w)
		}
		wg.Wait()
	}
	strided(func(i int) { fi.blocks[i] = header(chunk(i), perm) })
	size := 0
	for i := range fi.blocks {
		fi.blocks[i].off = uint32(size)
		size += fi.blocks[i].payloadBytes(len(chunk(i)))
	}
	fi.data = make([]byte, size+tailPad)
	strided(func(i int) { pack(fi.data[fi.blocks[i].off:], chunk(i), perm, &fi.blocks[i]) })
	return fi
}

// compactLocked folds the delta into the sorted indexes and drops
// tombstoned triples; the caller holds the write lock. Each index is
// rebuilt by a linear merge of sorted runs — the existing index (walked
// a few rows at a time, never unpacked whole), the sorted tombstones,
// and the sorted delta — straight into a streaming block packer.
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
	dead := make([]Triple, 0, len(s.deleted))
	for t := range s.deleted {
		dead = append(dead, t)
	}
	spo, pos := tally{order: OrderSPO}, tally{order: OrderPOS}
	var wg sync.WaitGroup
	for i, o := range s.orders {
		// Capture the inputs outside the goroutine: the write lock is
		// held for the whole rebuild (wg.Wait below), so the snapshot of
		// fields taken here is stable.
		idx, delta := s.indexes[o], s.delta
		fb := newFrozenBuilder(o, bt)
		switch o {
		case OrderSPO:
			fb.tally = &spo
		case OrderPOS:
			fb.tally = &pos
		}
		wg.Add(1)
		go func(i int, o Order) {
			defer wg.Done()
			g.do(func() {
				perm := o.perm()
				d := make([]Triple, len(delta))
				copy(d, delta)
				sortByOrder(d, perm)
				x := make([]Triple, len(dead))
				copy(x, dead)
				sortByOrder(x, perm)
				mergeRuns(idx, x, d, perm, fb.add)
				out[i] = fb.finish()
			})
		}(i, o)
	}
	wg.Wait()
	for i, o := range s.orders {
		s.indexes[o] = out[i] // snapshots of the old generation keep theirs
	}
	s.props = joinTallies(&spo, &pos)
	s.n += len(s.delta) - len(s.deleted)
	s.delta = nil
	s.present = nil
	s.deleted = nil
	// The visible triple set is unchanged, but the physical layout the
	// snapshots may be holding is not; a bump keeps version-stamped
	// consumers maximally conservative.
	s.version.Add(1)
}

// mergeRuns merges one sorted index with a sorted delta, dropping the
// tombstoned triples dead (sorted in the index's order), and emits the
// merged run in order. Every tombstone names an index entry (Remove
// tombstones only those, and Add of one clears it), so the walk meets
// them in dead's order; delta triples are never already present in the
// index (Add checks), so the merge sees no equal pairs.
func mergeRuns(fi *frozenIndex, dead, d []Triple, perm [3]int, emit func(Triple)) {
	i, j := 0, 0
	fi.iterate(0, fi.n, 0, [3]dict.ID{}, func(t Triple) bool {
		if j < len(dead) && dead[j] == t {
			j++
			return true
		}
		for i < len(d) && less(perm, d[i], t) {
			emit(d[i])
			i++
		}
		emit(t)
		return true
	})
	for ; i < len(d); i++ {
		emit(d[i])
	}
}
