package engine

import (
	"sort"

	"repro/internal/dict"
	"repro/internal/trace"
)

// joinRelations joins two materialized relations on their shared
// variables using the requested algorithm. When the relations share no
// variable the result is the cartesian product (covers are built so this
// does not happen for cover-based reformulations, but the operator is
// total), built by cartesianJoin. The output schema is left's columns
// followed by right-only columns.
func joinRelations(ctx *evalCtx, left, right *Relation, algo JoinAlgorithm) (*Relation, error) {
	sp := ctx.span.Child("join")
	if sp != nil {
		sp.SetStr("algo", algo.String())
		sp.SetInt("left_rows", int64(left.Len()))
		sp.SetInt("right_rows", int64(right.Len()))
		defer sp.End()
	}
	lpos := left.colIndex()
	var lcols, rcols []int
	for i, v := range right.Vars {
		if c, ok := lpos[v]; ok {
			lcols = append(lcols, c)
			rcols = append(rcols, i)
		}
	}
	outVars := append([]uint32(nil), left.Vars...)
	var rightOnly []int
	for i, v := range right.Vars {
		if _, shared := lpos[v]; !shared {
			outVars = append(outVars, v)
			rightOnly = append(rightOnly, i)
		}
	}
	if len(lcols) == 0 {
		return cartesianJoin(ctx, sp, left, right, outVars, rightOnly)
	}
	out := &Relation{Vars: outVars}
	var arena rowArena
	emit := func(lr, rr []dict.ID) error {
		row := arena.alloc(len(outVars))
		n := copy(row, lr)
		for _, i := range rightOnly {
			row[n] = rr[i]
			n++
		}
		out.Rows = append(out.Rows, row)
		ctx.rowsJoined.Add(1)
		if err := ctx.charge(1); err != nil {
			return err
		}
		return ctx.checkRows(len(out.Rows))
	}

	var err error
	switch algo {
	case HashJoin:
		err = hashJoin(ctx, left, right, lcols, rcols, emit)
	case MergeJoin:
		err = mergeJoin(ctx, left, right, lcols, rcols, emit)
	case NestedLoopJoin:
		err = nestedLoopJoin(ctx, left, right, lcols, rcols, emit)
	default:
		err = hashJoin(ctx, left, right, lcols, rcols, emit)
	}
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.SetInt("rows_out", int64(out.Len()))
		sp.SetInt("arena_chunks", int64(arena.chunks))
	}
	return out, nil
}

// cartesianPresizeRows is how many row headers (24 B each, 1.5 MB in
// all) cartesianJoin reserves at once: a product up to that size is
// sized in one allocation, and a larger one doubles from there.
const cartesianPresizeRows = 1 << 16

// cartesianJoin is the no-shared-variable case of joinRelations: every
// left row paired with every right row, left-major, in one pass. The
// product's size is known before a row is built, so the materialization
// budget is checked first — charged as a pair-at-a-time loop would have
// charged it up to the row that overran it. Nothing is sized to a large
// product up front: with no budget set, only the evaluation's context
// stops an oversized one. Each left row first charges 2 work units a pair
// (comparison and emission), which polls cancellation and trips the work
// budget, and only then gets its cells; out.Rows starts at
// cartesianPresizeRows and doubles as it fills, capped at the product's
// size. Memory thus grows with the rows built.
func cartesianJoin(ctx *evalCtx, sp *trace.Span, left, right *Relation, outVars []uint32, rightOnly []int) (*Relation, error) {
	if sp != nil {
		sp.SetStr("algo", "cartesian")
	}
	n := satMul(int64(left.Len()), int64(right.Len()))
	if mb := int64(ctx.prof.MaxMaterializedRows); mb > 0 && n > mb {
		ctx.rowsJoined.Add(mb + 1)
		if err := ctx.charge(2 * (mb + 1)); err != nil {
			return nil, err
		}
		return nil, ctx.checkRows(int(mb + 1))
	}
	width, pairs := len(outVars), right.Len()
	out := &Relation{Vars: outVars}
	var arena rowArena
	for _, lr := range left.Rows {
		ctx.rowsJoined.Add(int64(pairs))
		if err := ctx.charge(2 * int64(pairs)); err != nil {
			return nil, err
		}
		cells := arena.alloc(pairs * width)
		if need := len(out.Rows) + pairs; need > cap(out.Rows) {
			rows := make([][]dict.ID, len(out.Rows), min(int(n), max(need, 2*cap(out.Rows), cartesianPresizeRows)))
			copy(rows, out.Rows)
			out.Rows = rows
		}
		for _, rr := range right.Rows {
			row := cells[:width:width]
			cells = cells[width:]
			k := copy(row, lr)
			for _, i := range rightOnly {
				row[k] = rr[i]
				k++
			}
			out.Rows = append(out.Rows, row)
		}
	}
	if sp != nil {
		sp.SetInt("rows_out", int64(out.Len()))
		sp.SetInt("arena_chunks", int64(arena.chunks))
	}
	return out, nil
}

// hashJoin builds a hash table on the smaller input and probes with the
// larger; work is linear in both inputs plus the output.
func hashJoin(ctx *evalCtx, left, right *Relation, lcols, rcols []int, emit func(lr, rr []dict.ID) error) error {
	build, probe := left, right
	bcols, pcols := lcols, rcols
	swapped := false
	if right.Len() < left.Len() {
		build, probe = right, left
		bcols, pcols = rcols, lcols
		swapped = true
	}
	var table joinTable
	table.cols = bcols
	for _, row := range build.Rows {
		if err := ctx.charge(1); err != nil {
			return err
		}
		table.add(row)
	}
	for _, prow := range probe.Rows {
		if err := ctx.charge(1); err != nil {
			return err
		}
		for _, brow := range table.lookup(prow, pcols) {
			// emit expects (left row, right row); when the build side is
			// the right relation, the probe rows are the left ones.
			lr, rr := brow, prow
			if swapped {
				lr, rr = prow, brow
			}
			if err := emit(lr, rr); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinTable is hashJoin's build table: an open-addressing multimap from
// join-key values to row groups, keyed by the uint64 hash of the key
// columns and compared against each group's first row — no packed
// string keys, so building the table allocates only the group slices.
type joinTable struct {
	tbl    []uint32 // 1-based indices into groups; 0 = empty
	groups []joinGroup
	cols   []int // build-side key columns
}

type joinGroup struct {
	rows [][]dict.ID
}

// add appends row to its key group, creating the group if absent.
func (t *joinTable) add(row []dict.ID) {
	if t.tbl == nil {
		t.tbl = make([]uint32, rowSetMinSlots)
	} else if (len(t.groups)+1)*8 > len(t.tbl)*7 {
		old := t.tbl
		t.tbl = make([]uint32, len(old)*2)
		for _, ref := range old {
			if ref == 0 {
				continue
			}
			mask := uint64(len(t.tbl) - 1)
			i := hashCols(t.groups[ref-1].rows[0], t.cols) & mask
			for t.tbl[i] != 0 {
				i = (i + 1) & mask
			}
			t.tbl[i] = ref
		}
	}
	mask := uint64(len(t.tbl) - 1)
	i := hashCols(row, t.cols) & mask
	for {
		ref := t.tbl[i]
		if ref == 0 {
			t.groups = append(t.groups, joinGroup{rows: [][]dict.ID{row}})
			t.tbl[i] = uint32(len(t.groups))
			return
		}
		g := &t.groups[ref-1]
		if keyEqual(g.rows[0], t.cols, row, t.cols) {
			g.rows = append(g.rows, row)
			return
		}
		i = (i + 1) & mask
	}
}

// lookup returns the group of build rows whose key columns equal row's
// probe columns, or nil.
func (t *joinTable) lookup(row []dict.ID, pcols []int) [][]dict.ID {
	if t.tbl == nil {
		return nil
	}
	mask := uint64(len(t.tbl) - 1)
	i := hashCols(row, pcols) & mask
	for {
		ref := t.tbl[i]
		if ref == 0 {
			return nil
		}
		g := &t.groups[ref-1]
		if keyEqual(g.rows[0], t.cols, row, pcols) {
			return g.rows
		}
		i = (i + 1) & mask
	}
}

// keyEqual compares a's acols values to b's bcols values positionally.
func keyEqual(a []dict.ID, acols []int, b []dict.ID, bcols []int) bool {
	for k := range acols {
		if a[acols[k]] != b[bcols[k]] {
			return false
		}
	}
	return true
}

// mergeJoin sorts both inputs on the join key and merges runs of equal
// keys; work is n·log n for the sorts plus the merge and output.
func mergeJoin(ctx *evalCtx, left, right *Relation, lcols, rcols []int, emit func(lr, rr []dict.ID) error) error {
	lrows := append([][]dict.ID(nil), left.Rows...)
	rrows := append([][]dict.ID(nil), right.Rows...)
	// Charge the sort effort up front: n * ceil(log2 n) comparisons.
	if err := ctx.charge(sortCost(len(lrows)) + sortCost(len(rrows))); err != nil {
		return err
	}
	sort.Slice(lrows, func(i, j int) bool { return lessOn(lrows[i], lrows[j], lcols) })
	sort.Slice(rrows, func(i, j int) bool { return lessOn(rrows[i], rrows[j], rcols) })

	i, j := 0, 0
	for i < len(lrows) && j < len(rrows) {
		if err := ctx.charge(1); err != nil {
			return err
		}
		c := compareOn(lrows[i], lcols, rrows[j], rcols)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the equal-key runs on both sides.
			i2 := i
			for i2 < len(lrows) && compareOn(lrows[i2], lcols, rrows[j], rcols) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(rrows) && compareOn(lrows[i], lcols, rrows[j2], rcols) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if err := emit(lrows[a], rrows[b]); err != nil {
						return err
					}
				}
			}
			i, j = i2, j2
		}
	}
	return nil
}

// nestedLoopJoin compares every pair of rows; work is |left|·|right| —
// the behaviour of an engine without hash joins on unindexed
// intermediates, and the reason SCQ reformulations collapse on the
// MySQL-like profile.
func nestedLoopJoin(ctx *evalCtx, left, right *Relation, lcols, rcols []int, emit func(lr, rr []dict.ID) error) error {
	for _, lr := range left.Rows {
		for _, rr := range right.Rows {
			if err := ctx.charge(1); err != nil {
				return err
			}
			match := true
			for k := range lcols {
				if lr[lcols[k]] != rr[rcols[k]] {
					match = false
					break
				}
			}
			if match {
				if err := emit(lr, rr); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func lessOn(a, b []dict.ID, cols []int) bool {
	for _, c := range cols {
		if a[c] != b[c] {
			return a[c] < b[c]
		}
	}
	return false
}

func compareOn(a []dict.ID, acols []int, b []dict.ID, bcols []int) int {
	for k := range acols {
		av, bv := a[acols[k]], b[bcols[k]]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sortCost approximates n·ceil(log2 n) comparisons.
func sortCost(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	log := 0
	for m := n - 1; m > 0; m >>= 1 {
		log++
	}
	return int64(n) * int64(log)
}
