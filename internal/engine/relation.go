package engine

import (
	"math"

	"repro/internal/dict"
)

// Relation is a materialized set of answer rows. Vars names the columns;
// rows have set semantics (duplicate elimination happens at build time).
type Relation struct {
	Vars []uint32
	Rows [][]dict.ID

	// pos memoizes colIndex. Relations are built by one goroutine and
	// only shared once complete, so the lazy build needs no locking;
	// see colIndex.
	pos map[uint32]int
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Vars) }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// StoredBytes returns the resident size of the row data in bytes. Used
// by the benchmarks to report bytes per answer.
func (r *Relation) StoredBytes() int64 {
	return int64(len(r.Rows)) * int64(r.Arity()) * 4
}

// colIndex returns the column position of each variable, built once on
// first use and memoized. Relations are constructed and indexed by the
// one goroutine evaluating them, so the unsynchronized lazy build is safe.
func (r *Relation) colIndex() map[uint32]int {
	if r.pos == nil {
		r.pos = make(map[uint32]int, len(r.Vars))
		for i, v := range r.Vars {
			r.pos[v] = i
		}
	}
	return r.pos
}

// Each calls f for every row in order, stopping early when f returns
// false. The row passed to f aliases relation storage and must not be
// modified.
func (r *Relation) Each(f func(row []dict.ID) bool) {
	for _, row := range r.Rows {
		if !f(row) {
			return
		}
	}
}

// satMul multiplies two non-negative counts, saturating at MaxInt64.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// hashRow mixes a row's packed dict.IDs into a 64-bit hash,
// xxhash-style: one multiply-rotate-multiply round per element and an
// avalanche finish. Deterministic across runs (no per-process seed) so
// set iteration orders — which the deterministic merges rely on — never
// depend on the hash anyway; only probe sequences do.
func hashRow(row []dict.ID) uint64 {
	h := uint64(0x165667B19E3779F9) + uint64(len(row))*8
	for _, v := range row {
		h ^= uint64(v) * 0x9E3779B185EBCA87
		h = (h<<27 | h>>37) * 0xC2B2AE3D27D4EB4F
	}
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h
}

// hashCols is hashRow over selected columns.
func hashCols(row []dict.ID, cols []int) uint64 {
	h := uint64(0x165667B19E3779F9) + uint64(len(cols))*8
	for _, c := range cols {
		h ^= uint64(row[c]) * 0x9E3779B185EBCA87
		h = (h<<27 | h>>37) * 0xC2B2AE3D27D4EB4F
	}
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h
}

func rowEq(a, b []dict.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// rowSet is a tombstone-free open-addressing hash set of rows: slots
// hold 1-based indices into the insertion-ordered rows slice, the table
// grows by powers of two at 7/8 load, and equality compares the stored
// rows (no packed string keys, so admission allocates nothing beyond
// the row storage the caller provides). rows doubles as the set's
// first-occurrence-ordered content.
type rowSet struct {
	tbl  []uint32
	rows [][]dict.ID
}

// rowSetMinSlots is the initial table size (power of two).
const rowSetMinSlots = 16

// add inserts row if absent, storing the slice as given, and reports
// whether it was inserted. The caller must pass storage that stays
// valid and unmodified for the set's lifetime.
func (s *rowSet) add(row []dict.ID) bool {
	s.reserve()
	slot, found := s.find(row)
	if found {
		return false
	}
	s.rows = append(s.rows, row)
	s.tbl[slot] = uint32(len(s.rows))
	return true
}

// has reports whether row is in the set.
func (s *rowSet) has(row []dict.ID) bool {
	if s.tbl == nil {
		return false
	}
	_, found := s.find(row)
	return found
}

// len returns the number of distinct rows.
func (s *rowSet) len() int { return len(s.rows) }

// presize sizes an empty set for n rows, so that n insertions neither
// rehash nor regrow it.
func (s *rowSet) presize(n int) {
	slots := rowSetMinSlots
	for slots*7 < n*8 {
		slots *= 2
	}
	s.tbl, s.rows = make([]uint32, slots), make([][]dict.ID, 0, n)
}

// reserve grows the table before an insertion would push the load
// factor past 7/8, so a later insertAt never invalidates a found slot.
func (s *rowSet) reserve() {
	if s.tbl == nil {
		s.tbl = make([]uint32, rowSetMinSlots)
		return
	}
	if (len(s.rows)+1)*8 > len(s.tbl)*7 {
		old := s.tbl
		s.tbl = make([]uint32, len(old)*2)
		for _, ref := range old {
			if ref == 0 {
				continue
			}
			mask := uint64(len(s.tbl) - 1)
			i := hashRow(s.rows[ref-1]) & mask
			for s.tbl[i] != 0 {
				i = (i + 1) & mask
			}
			s.tbl[i] = ref
		}
	}
}

// find probes for row, returning the slot it occupies (found) or the
// empty slot it would be inserted into.
func (s *rowSet) find(row []dict.ID) (uint64, bool) {
	mask := uint64(len(s.tbl) - 1)
	i := hashRow(row) & mask
	for {
		ref := s.tbl[i]
		if ref == 0 {
			return i, false
		}
		if rowEq(s.rows[ref-1], row) {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// dedupSet is a streaming duplicate-elimination set with budget checks,
// an open-addressing rowSet over arena-backed rows, used by one goroutine.
type dedupSet struct {
	set rowSet
	ctx *evalCtx
	// arena owns the copies admitted through add; rows stay valid for
	// the set's (and the produced relation's) lifetime.
	arena rowArena
	// hits counts the duplicates this set dropped — the set's share of
	// the context-wide rowsDeduped total, read by trace instrumentation
	// after the owning goroutine is done with the set.
	hits int64
}

func newDedupSet(ctx *evalCtx) *dedupSet {
	return &dedupSet{ctx: ctx}
}

// add admits row — the bind-join's emission — charging one work unit to
// the kernel's meter and enforcing the materialization budget on the set
// size. A fresh row is copied into the set's arena (set.rows then holds
// it, in first-occurrence order, for the relation to adopt); a duplicate
// is counted and not retained.
func (d *dedupSet) add(m *meter, row []dict.ID) error {
	if err := m.charge(1); err != nil {
		return err
	}
	d.set.reserve()
	slot, found := d.set.find(row)
	if found {
		d.hits++
		m.deduped++
		return nil
	}
	d.set.rows = append(d.set.rows, d.arena.copy(row))
	d.set.tbl[slot] = uint32(len(d.set.rows))
	return d.ctx.checkRows(d.set.len())
}

// addOwned is add for rows the caller already owns stable storage for
// (projection outputs): a fresh row is stored as-is, a duplicate left
// to the caller to release.
func (d *dedupSet) addOwned(row []dict.ID) (bool, error) {
	if err := d.ctx.charge(1); err != nil {
		return false, err
	}
	if !d.set.add(row) {
		d.hits++
		d.ctx.rowsDeduped.Add(1)
		return false, nil
	}
	return true, d.ctx.checkRows(d.set.len())
}

// rowArena allocates row copies out of chunked backing arrays, replacing
// the per-row make in the hot emit paths. Rows handed out stay valid for
// the arena's lifetime; only the most recent allocation can be released.
type rowArena struct {
	buf []dict.ID
	// chunks counts the backing arrays allocated, a cheap proxy for the
	// arena's memory footprint reported on trace spans.
	chunks int
}

// arenaChunk is the backing-array size, in dict.ID values.
const arenaChunk = 4096

// alloc returns a zeroed row of n columns.
func (a *rowArena) alloc(n int) []dict.ID {
	if n == 0 {
		return nil
	}
	if len(a.buf)+n > cap(a.buf) {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]dict.ID, 0, size)
		a.chunks++
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	row := a.buf[start : start+n : start+n]
	for i := range row {
		row[i] = 0
	}
	return row
}

// copy returns an arena-backed copy of row.
func (a *rowArena) copy(row []dict.ID) []dict.ID {
	out := a.alloc(len(row))
	copy(out, row)
	return out
}

// release returns the most recent allocation to the arena (a no-op for
// any other slice); duplicate rows dropped right after projection reuse
// their space.
func (a *rowArena) release(row []dict.ID) {
	if n := len(a.buf); len(row) > 0 && n >= len(row) && &a.buf[n-len(row)] == &row[0] {
		a.buf = a.buf[:n-len(row)]
	}
}
