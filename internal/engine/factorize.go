package engine

import (
	"math"
	"slices"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/trace"
)

// This file is the factorized answer path (WithFactorized): when a
// member plan's join order splits into variable-disjoint segments, the
// arm's answer is a cross-product of per-segment sub-relations and is
// kept in that form (see FRelation) instead of being expanded.
//
// The contract is equivalence with member-at-a-time flat evaluation (the
// flat path without member families): Materialize/Cursor enumerate
// exactly the rows it would have produced, in its first-occurrence order,
// and Metrics and budget errors are its. The order part rests on the
// product structure — flat bind-join enumeration of disjoint segments is
// an odometer over the per-segment binding sequences, so first-occurrence
// dedup of the product equals the product of per-segment first-occurrence
// dedups, enumerated first-segment-major. For multi-member unions this holds
// when members differ only in the outermost segment (with identical
// heads): their products share the inner factors, so the union is
// (union of segment-0 sub-rows) × (inner factors), still in flat
// first-occurrence order. Members breaking the pattern trigger a
// fallback that expands the accumulator (already fully charged) into a
// pre-seeded flat dedup set and continues on the ordinary flat path.
//
// The metrics part is accounted by replay: each segment is scanned once
// for real (charging what the flat bind-join charges), and the scans
// flat evaluation would repeat per outer binding are charged in bulk —
// segment i costs (Π_{j<i} B_j) × T_i tuples flat, of which one T_i was
// paid for real on the segment's first evaluation. Emissions (Π B_i per
// member), duplicate counts and the materialization check on the
// logical distinct-row count follow the same scheme; see evalFactMember.

// factPlan is the decomposition shared by an arm's factorized members:
// the first member's segment structure and how head positions map onto
// it.
type factPlan struct {
	// segs holds each segment's atom indices in evaluation order;
	// atoms holds the corresponding atoms (for pattern-matching
	// subsequent members against segment shapes).
	segs  [][]int
	atoms [][]bgp.Atom
	// cols holds the head positions owned by each segment; positions
	// owned by none are constants in template.
	cols     [][]int
	template []dict.ID
	head     []bgp.Term
	// fseg is the segment that runs the arm's key filter (keySegment).
	fseg int
}

// factAccComp accumulates one segment's factor across an arm's members:
// the distinct projected sub-rows in flat first-occurrence order, and —
// for inner segments, which are shared by every matching member — the
// binding and tuple counts of the one real evaluation, replayed for
// later members.
type factAccComp struct {
	set       rowSet
	evaluated bool
	b, t      int64
}

// factAcc is the factorized union under construction for one arm.
type factAcc struct {
	plan  factPlan
	comps []factAccComp
	arena rowArena
	// hits counts the synthetic duplicate emissions (flat's dedup hits),
	// reported on the arm span.
	hits int64
}

// evalArmFactorized evaluates one arm in factorized form if its first
// member's join order decomposes into variable-disjoint segments.
// handled == false means the arm does not factorize and the caller must
// evaluate it on the ordinary path (the member stream was only peeked,
// and ArmSource.Each restarts from the beginning). Once handled, the
// result — factorized, degenerate-flat, or flat after a mid-stream
// fallback — holds the flat path's answer, with the metrics and budget
// behaviour of member-at-a-time flat evaluation.
func (e *Engine) evalArmFactorized(ctx *evalCtx, sp *trace.Span, arm ArmSource, f *keyFilter) (*Relation, bool, error) {
	var first bgp.CQ
	got := false
	arm.Each(func(cq bgp.CQ) bool { first, got = cq, true; return false })
	if !got {
		return nil, false, nil
	}
	sc := newArmScratch(ctx, f)
	defer sc.release()
	order := e.memberOrder(ctx, sc, first)
	segs := segmentize(first, order)
	if segs == nil {
		return nil, false, nil
	}
	cols, template, ok := headPlan(first, segs)
	if !ok {
		return nil, false, nil
	}
	acc := &factAcc{
		plan:  factPlan{segs: segs, cols: cols, template: template, head: first.Head, fseg: keySegment(f, cols)},
		comps: make([]factAccComp, len(segs)),
	}
	if acc.plan.fseg < 0 {
		sc.filter = nil
	}
	acc.plan.atoms = make([][]bgp.Atom, len(segs))
	for i, s := range segs {
		for _, ai := range s {
			acc.plan.atoms[i] = append(acc.plan.atoms[i], first.Atoms[ai])
		}
	}

	var failure error
	var dedup *dedupSet // non-nil once a mismatching member forced the flat fallback
	memberIdx := 0
	arm.Each(func(cq bgp.CQ) bool {
		memberIdx++
		if dedup != nil {
			failure = e.addMember(sc, cq, dedup)
			return failure == nil
		}
		msegs := segs
		if memberIdx > 1 {
			var match bool
			msegs, match = e.factMatch(ctx, sc, acc, cq)
			if !match {
				// Fallback: expand the accumulator — every row of it was
				// already admitted and charged under the factorized
				// accounting — into a pre-seeded flat set, and continue
				// on the flat path.
				dedup = newDedupSet(ctx)
				acc.expandInto(dedup)
				failure = e.addMember(sc, cq, dedup)
				return failure == nil
			}
		}
		ctx.unionArms.Add(1)
		if err := e.evalFactMember(ctx, sc, acc, cq, msegs); err != nil {
			failure = err
			return false
		}
		return true
	})
	if failure == nil && dedup != nil {
		failure = e.flushMembers(sc, dedup)
	}
	if failure != nil {
		return nil, true, failure
	}
	var out *Relation
	if dedup != nil {
		out = &Relation{Vars: arm.Vars, Rows: dedup.set.rows}
	} else {
		out = acc.buildRelation(arm.Vars)
	}
	if sp != nil {
		hits := acc.hits
		if dedup != nil {
			hits += dedup.hits
		}
		sp.SetInt("rows_out", int64(out.Len()))
		sp.SetInt("dedup_hits", hits)
		sp.SetInt("arena_chunks", int64(acc.arena.chunks))
		if f := out.Factorized(); f != nil {
			sp.SetInt("factorized", 1)
			sp.SetInt("components", int64(f.Components()))
			sp.SetInt("stored_rows", f.StoredRows())
			sp.SetInt("logical_rows", f.LogicalRows())
		}
	}
	return out, true, nil
}

// segmentize splits a member's join order into maximal runs of
// variable-connected atoms and returns them only when they form two or
// more globally variable-disjoint segments — the decomposition rule.
// Greedy ordering is component-contiguous so the run split suffices; an
// ablation order (DisableJoinOrdering) may interleave components, which
// the pairwise check rejects, falling back to flat evaluation.
func segmentize(cq bgp.CQ, order []int) [][]int {
	if len(order) < 2 {
		return nil
	}
	var segs [][]int
	var segVars [][]uint32
	var buf []uint32
	for _, ai := range order {
		buf = cq.Atoms[ai].Vars(buf[:0])
		if n := len(segs); n > 0 && sharesVars(buf, segVars[n-1]) {
			segs[n-1] = append(segs[n-1], ai)
			segVars[n-1] = mergeVars(segVars[n-1], buf)
			continue
		}
		segs = append(segs, []int{ai})
		segVars = append(segVars, append([]uint32(nil), buf...))
	}
	if len(segs) < 2 {
		return nil
	}
	for i := range segVars {
		for j := i + 1; j < len(segVars); j++ {
			if sharesVars(segVars[i], segVars[j]) {
				return nil
			}
		}
	}
	return segs
}

// mergeVars appends the members of add missing from vars.
func mergeVars(vars, add []uint32) []uint32 {
	for _, v := range add {
		seen := false
		for _, w := range vars {
			if w == v {
				seen = true
				break
			}
		}
		if !seen {
			vars = append(vars, v)
		}
	}
	return vars
}

// headPlan maps each head position to the segment binding its variable
// (cols) or to its constant (template). ok is false when a head
// variable is bound by no segment — such members cannot be evaluated in
// factorized form (flat evaluation reports the error).
func headPlan(cq bgp.CQ, segs [][]int) (cols [][]int, template []dict.ID, ok bool) {
	template = make([]dict.ID, len(cq.Head))
	cols = make([][]int, len(segs))
	for i, h := range cq.Head {
		if !h.Var {
			template[i] = h.Const()
			continue
		}
		owner := -1
	scan:
		for s, atoms := range segs {
			for _, ai := range atoms {
				if cq.Atoms[ai].HasVar(h.ID) {
					owner = s
					break scan
				}
			}
		}
		if owner < 0 {
			return nil, nil, false
		}
		cols[owner] = append(cols[owner], i)
	}
	return cols, template, true
}

// keySegment returns the one segment whose head columns (cols, from
// headPlan) hold every variable column of f's key — segment 0 when the key
// is all constants or f is nil — or -1 when the key spans two segments: the
// filter is then dropped for the arm, because checking it would mean
// expanding the product the factorized form exists to avoid.
func keySegment(f *keyFilter, cols [][]int) int {
	seg := -1
	for s, owned := range cols {
		for _, c := range owned {
			if f == nil || !slices.Contains(f.cols, c) {
				continue
			}
			if seg >= 0 && seg != s {
				return -1
			}
			seg = s
		}
	}
	return max(seg, 0)
}

// factMatch reports whether cq fits the accumulator's pattern: the same
// segment count with identical inner segments (atom-for-atom, in the
// same evaluation order), an identical head, and the same head-position
// ownership. Only the outermost segment may differ — the property that
// makes the union of member products a single product of the unioned
// outer factor with the shared inner factors.
func (e *Engine) factMatch(ctx *evalCtx, sc *armScratch, acc *factAcc, cq bgp.CQ) ([][]int, bool) {
	plan := &acc.plan
	if len(cq.Head) != len(plan.head) {
		return nil, false
	}
	for i, h := range cq.Head {
		if h != plan.head[i] {
			return nil, false
		}
	}
	order := e.memberOrder(ctx, sc, cq)
	segs := segmentize(cq, order)
	if len(segs) != len(plan.segs) {
		return nil, false
	}
	for i := 1; i < len(segs); i++ {
		if len(segs[i]) != len(plan.atoms[i]) {
			return nil, false
		}
		for j, ai := range segs[i] {
			if cq.Atoms[ai] != plan.atoms[i][j] {
				return nil, false
			}
		}
	}
	cols, template, ok := headPlan(cq, segs)
	if !ok {
		return nil, false
	}
	for i := range cols {
		if !intsEqual(cols[i], plan.cols[i]) {
			return nil, false
		}
	}
	for i := range template {
		if template[i] != plan.template[i] {
			return nil, false
		}
	}
	return segs, true
}

func intsEqual(a, b []int) bool {
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

// evalFactMember folds one member into the accumulator, charging
// exactly what flat evaluation of the member charges:
//
//   - segment scans: each segment is bind-joined once for real (one
//     work unit and one tuplesScanned a tuple, like a flat member); the
//     repeats flat performs — segment i runs once per binding of the
//     segments before it — are charged in bulk as replay. Segments are
//     reached lazily in nesting order, so a segment whose outer product
//     is empty costs nothing, exactly like flat.
//   - emissions: flat emits Π B_i rows into the dedup set, one work
//     unit each; charged in bulk. The set's growth is newD₀ × Π_{i>0} D_i
//     (inner factors are fixed by the time any member completes), the
//     rest are duplicate hits, and the materialization budget is checked
//     against the logical distinct count.
//
// Inner segments commit their distinct sub-rows as soon as they are
// evaluated (identical for every matching member); the outer segment's
// sub-rows are staged and committed only if the member emits — flat
// never surfaces outer bindings of a member whose inner product is
// empty.
func (e *Engine) evalFactMember(ctx *evalCtx, sc *armScratch, acc *factAcc, cq bgp.CQ, segs [][]int) error {
	plan := &acc.plan
	prefix := int64(1) // flat's multiplicity for the current segment: Π B_j, j < i
	var replay int64   // tuple scans flat performs beyond our single real pass
	var staged [][]dict.ID
	for i := range segs {
		if prefix == 0 {
			break
		}
		comp := &acc.comps[i]
		if i > 0 && comp.evaluated {
			replay = satAdd(replay, satMul(prefix, comp.t))
			prefix = satMul(prefix, comp.b)
			continue
		}
		cols := plan.cols[i]
		var b int64
		emit := func(row []dict.ID) {
			b++
			if len(cols) == 0 {
				return
			}
			if i == 0 {
				staged = append(staged, acc.arena.copy(row))
			} else if !comp.set.has(row) {
				comp.set.add(acc.arena.copy(row))
			}
		}
		t, err := sc.evalSegment(cq, segs[i], cols, emit, i == plan.fseg)
		if err != nil {
			return err
		}
		if i > 0 {
			comp.evaluated, comp.b, comp.t = true, b, t
			if len(cols) == 0 && b > 0 {
				comp.set.add(nil) // a column-less factor is one (empty) sub-row
			}
		}
		replay = satAdd(replay, satMul(prefix-1, t))
		prefix = satMul(prefix, b)
	}
	emitted := prefix
	ctx.tuplesScanned.Add(replay)
	if emitted == 0 {
		return ctx.charge(replay)
	}
	var newOuter int64
	if len(plan.cols[0]) == 0 {
		if acc.comps[0].set.add(nil) {
			newOuter = 1
		}
	} else {
		for _, sub := range staged {
			if acc.comps[0].set.add(sub) {
				newOuter++
			} else {
				acc.arena.release(sub)
			}
		}
	}
	innerD := int64(1)
	for i := 1; i < len(acc.comps); i++ {
		innerD = satMul(innerD, int64(acc.comps[i].set.len()))
	}
	growth := satMul(newOuter, innerD)
	if err := ctx.charge(satAdd(replay, emitted)); err != nil {
		return err
	}
	hits := emitted - growth
	acc.hits += hits
	ctx.rowsDeduped.Add(hits)
	size := satMul(int64(acc.comps[0].set.len()), innerD)
	return ctx.checkRows(clampInt(size))
}

// evalSegment bind-joins one segment's atoms in order over the pinned
// snapshot with the same compiled program as a flat member (same
// accounting), calling emit with each binding
// projected on the segment's head columns. It returns the tuples scanned;
// emit observes the binding count. The projected row aliases a scratch
// buffer valid only during the call. The arm's key filter applies when
// keyed says this is the segment that binds the key.
func (sc *armScratch) evalSegment(cq bgp.CQ, atoms []int, cols []int, emit func([]dict.ID), keyed bool) (int64, error) {
	k, f := &sc.bj, sc.filter
	if !keyed {
		f = nil
	}
	sc.segHead = sc.segHead[:0]
	for _, c := range cols {
		sc.segHead = append(sc.segHead, cq.Head[c])
	}
	k.compile(&sc.seg, cq, atoms, sc.segHead, f)
	k.prog, k.fam, k.filter = &sc.seg, nil, f
	k.preOK, k.dedup, k.emit, k.tuples = false, nil, emit, 0
	err := k.exec(sc.seg.slots, len(sc.seg.steps))
	return k.tuples, err
}

// buildRelation freezes the accumulator into the arm's relation: a
// factorized relation when at least two segments carry head columns, a
// small flat relation otherwise (the product then has one varying
// factor, so factorizing stores nothing). Expansion of the degenerate
// case is free of charges — every row was admitted above.
func (acc *factAcc) buildRelation(vars []uint32) *Relation {
	logical := int64(1)
	for i := range acc.comps {
		logical = satMul(logical, int64(acc.comps[i].set.len()))
	}
	out := &Relation{Vars: vars}
	if logical == 0 {
		return out
	}
	var comps []component
	for i := range acc.comps {
		if len(acc.plan.cols[i]) == 0 {
			continue
		}
		comps = append(comps, component{cols: acc.plan.cols[i], rows: acc.comps[i].set.rows})
	}
	out.fact = &FRelation{
		template: append([]dict.ID(nil), acc.plan.template...),
		comps:    comps,
		logical:  logical,
	}
	if len(comps) < 2 {
		out.Materialize()
		out.fact = nil
	}
	return out
}

// expandInto expands the accumulator into a dedup set, whose rows become
// the arm's flat relation — the fallback when a member breaks the
// factorization pattern. No charges: every expanded row was already
// charged as a fresh admission when its member was folded in.
func (acc *factAcc) expandInto(dedup *dedupSet) {
	for _, row := range acc.buildRelation(nil).Materialize() {
		dedup.seed(row)
	}
}

// projectDistinctFactorized is projectDistinct over a factorized input,
// without expanding it: template positions and dropped components fall
// away, each kept component's sub-rows are projected and deduplicated
// independently (flat first-occurrence dedup of a product is the
// product of the per-factor dedups), and the charges are the bulk
// equivalents of the flat loop — one work unit per logical input row,
// the duplicate count, and the materialization check on the logical
// output count.
func projectDistinctFactorized(ctx *evalCtx, sp *trace.Span, cur *Relation, cols []int, head []uint32) (*Relation, error) {
	f := cur.fact
	owner := make([]int, len(cur.Vars))
	sub := make([]int, len(cur.Vars))
	for i := range owner {
		owner[i] = -1
	}
	for ci := range f.comps {
		for j, c := range f.comps[ci].cols {
			owner[c], sub[c] = ci, j
		}
	}
	template := make([]dict.ID, len(head))
	sel := make([][]int, len(f.comps))  // per component: source sub-row indices
	outc := make([][]int, len(f.comps)) // per component: output positions
	for outPos, c := range cols {
		if owner[c] < 0 {
			template[outPos] = f.template[c]
			continue
		}
		sel[owner[c]] = append(sel[owner[c]], sub[c])
		outc[owner[c]] = append(outc[owner[c]], outPos)
	}

	logical := f.logical
	if logical == 0 {
		return &Relation{Vars: head}, nil
	}
	var comps []component
	var arena rowArena
	distinct := int64(1)
	for ci := range f.comps {
		if len(sel[ci]) == 0 {
			continue // multiplicity-only component: projected away
		}
		var set rowSet
		for _, row := range f.comps[ci].rows {
			proj := arena.alloc(len(sel[ci]))
			for k, s := range sel[ci] {
				proj[k] = row[s]
			}
			if !set.add(proj) {
				arena.release(proj)
			}
		}
		comps = append(comps, component{cols: outc[ci], rows: set.rows})
		distinct = satMul(distinct, int64(set.len()))
	}
	if err := ctx.charge(logical); err != nil {
		return nil, err
	}
	ctx.rowsDeduped.Add(logical - distinct)
	if err := ctx.checkRows(clampInt(distinct)); err != nil {
		return nil, err
	}
	out := &Relation{Vars: head, fact: &FRelation{
		template: template,
		comps:    comps,
		logical:  distinct,
	}}
	if len(comps) < 2 {
		out.Materialize()
		out.fact = nil
	}
	if sp != nil {
		sp.SetInt("rows_out", int64(out.Len()))
		sp.SetInt("dedup_hits", logical-distinct)
		sp.SetInt("arena_chunks", int64(arena.chunks))
		if ff := out.fact; ff != nil {
			sp.SetInt("factorized", 1)
			sp.SetInt("components", int64(ff.Components()))
			sp.SetInt("stored_rows", ff.StoredRows())
			sp.SetInt("logical_rows", ff.LogicalRows())
		}
	}
	return out, nil
}

// satAdd adds two non-negative counts, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
