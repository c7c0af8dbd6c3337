package engine

import (
	"math"

	"repro/internal/dict"
)

// Relation is a materialized set of answer rows. Vars names the columns;
// rows have set semantics (duplicate elimination happens at build time).
//
// A Relation is either flat (Rows holds every row) or factorized: the
// row set is a cross-product of per-component row groups (see FRelation)
// and Rows stays nil until Materialize expands it. Factorized relations
// behave identically to flat ones through Len, Cursor, Each and
// Materialize; only the storage differs. Code that reads Rows directly
// must call Materialize first unless it knows the relation is flat.
type Relation struct {
	Vars []uint32
	Rows [][]dict.ID

	// fact, when non-nil, is the union-of-products payload. It stays
	// attached after Materialize so observability code can still report
	// the stored size next to the logical one.
	fact *FRelation
	// pos memoizes colIndex. Relations are built by one goroutine and
	// only shared once complete, so the lazy build needs no locking;
	// see colIndex.
	pos map[uint32]int
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Vars) }

// Len returns the number of logical rows: for a factorized relation the
// expanded cardinality, without expanding.
func (r *Relation) Len() int {
	if r.Rows == nil && r.fact != nil {
		return clampInt(r.fact.logical)
	}
	return len(r.Rows)
}

// Factorized returns the relation's union-of-products payload, or nil
// for a flat relation.
func (r *Relation) Factorized() *FRelation { return r.fact }

// StoredBytes returns the resident size of the row data in bytes: the
// factorized component rows (plus the row template) for a factorized
// relation, the flat rows otherwise. Used by the benchmarks to report
// bytes per answer.
func (r *Relation) StoredBytes() int64 {
	if r.fact != nil {
		n := int64(len(r.fact.template))
		for _, c := range r.fact.comps {
			n += int64(len(c.rows)) * int64(len(c.cols))
		}
		return n * 4
	}
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

// Cursor returns an iterator over the relation's rows in their canonical
// order (for a factorized relation, the order flat evaluation would have
// produced). The returned row is only valid until the next Next call and
// must not be modified.
func (r *Relation) Cursor() *Cursor { return &Cursor{rel: r} }

// Each calls f for every row in canonical order, stopping early when f
// returns false. The row passed to f follows the Cursor aliasing rules.
func (r *Relation) Each(f func(row []dict.ID) bool) {
	c := r.Cursor()
	for row, ok := c.Next(); ok; row, ok = c.Next() {
		if !f(row) {
			return
		}
	}
}

// Materialize expands the relation into flat rows, at most once: the
// expansion is cached in Rows and returned. For an already-flat relation
// it returns Rows unchanged. Expansion order is the canonical order of
// member-at-a-time flat evaluation. Not safe for concurrent use.
func (r *Relation) Materialize() [][]dict.ID {
	if r.Rows != nil || r.fact == nil {
		return r.Rows
	}
	rows := make([][]dict.ID, 0, clampInt(r.fact.logical))
	var arena rowArena
	c := r.Cursor()
	for row, ok := c.Next(); ok; row, ok = c.Next() {
		rows = append(rows, arena.copy(row))
	}
	r.Rows = rows
	return rows
}

// FRelation is the factorized payload of a Relation: a cross-product of
// per-component column groups over a constant row template. Component i
// fills template positions comps[i].cols from its distinct sub-rows; the
// expanded row set is the product of the component row groups, enumerated
// with the first component outermost.
type FRelation struct {
	// template is the row skeleton (one value per relation column);
	// positions owned by no component are constants shared by all rows.
	template []dict.ID
	comps    []component
	// logical is the expanded cardinality (saturating product of the
	// component row counts).
	logical int64
}

// component is one independent column group of a factorized relation.
type component struct {
	cols []int
	rows [][]dict.ID
}

// Components returns the number of column groups.
func (f *FRelation) Components() int { return len(f.comps) }

// StoredRows returns the summed component row counts — the rows actually
// resident, next to LogicalRows.
func (f *FRelation) StoredRows() int64 {
	var n int64
	for _, c := range f.comps {
		n += int64(len(c.rows))
	}
	return n
}

// LogicalRows returns the expanded cardinality.
func (f *FRelation) LogicalRows() int64 { return f.logical }

// Cursor iterates a Relation without materializing it. For a factorized
// relation it runs an odometer over the component row groups, reusing
// one scratch row.
type Cursor struct {
	rel     *Relation
	i       int   // next flat row
	idx     []int // per-component odometer
	row     []dict.ID
	started bool
	done    bool
}

// Next returns the next row, or false when the iteration is complete.
// The returned slice is reused by subsequent calls (factorized) or
// aliases relation storage (flat); callers must copy to retain it.
func (c *Cursor) Next() ([]dict.ID, bool) {
	r := c.rel
	if r.Rows != nil || r.fact == nil {
		if c.i >= len(r.Rows) {
			return nil, false
		}
		row := r.Rows[c.i]
		c.i++
		return row, true
	}
	f := r.fact
	if c.done || f.logical == 0 {
		return nil, false
	}
	if !c.started {
		c.started = true
		c.row = append([]dict.ID(nil), f.template...)
		c.idx = make([]int, len(f.comps))
		for k := range f.comps {
			c.fill(k)
		}
		return c.row, true
	}
	for k := len(f.comps) - 1; k >= 0; k-- {
		c.idx[k]++
		if c.idx[k] < len(f.comps[k].rows) {
			c.fill(k)
			return c.row, true
		}
		c.idx[k] = 0
		c.fill(k)
	}
	c.done = true
	return nil, false
}

// fill copies component k's current sub-row into the scratch row.
func (c *Cursor) fill(k int) {
	comp := &c.rel.fact.comps[k]
	sub := comp.rows[c.idx[k]]
	for j, col := range comp.cols {
		c.row[col] = sub[j]
	}
}

// clampInt converts a saturating int64 count to int.
func clampInt(n int64) int {
	if n > math.MaxInt32 && uint64(math.MaxInt) == uint64(math.MaxInt32) {
		return math.MaxInt32
	}
	if n > int64(math.MaxInt) {
		return math.MaxInt
	}
	return int(n)
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

// seed installs a row that was already charged and admitted under the
// factorized accounting (see evalArmFactorized's fallback): no work
// charge, no dedup counting, no budget check. The rows of an expanded
// product are distinct by construction.
func (d *dedupSet) seed(row []dict.ID) {
	d.set.add(row)
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
