package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ArmSource supplies the member CQs of one UCQ arm without requiring the
// union to be materialized first — reformulations with hundreds of
// thousands of members are streamed straight out of the reformulation's
// blocks, each a cross product of per-atom alternatives.
type ArmSource struct {
	// Vars names the arm's head columns.
	Vars []uint32
	// NumCQs is the member count (used for reporting).
	NumCQs int64
	// Leaves is the scan-leaf count (members × atoms), used for the
	// plan-size admission check.
	Leaves int64
	// Each streams the member CQs; it must stop when f returns false.
	Each func(f func(bgp.CQ) bool) bool
	// EstRows is the optimizer's estimate of the arm's result rows, the
	// one its cover was priced with. It ranks the arms of the pipeline
	// (see armPipeline) and bounds the key set worth filtering the arm by;
	// zero or less means there is no estimate.
	EstRows float64
}

// SourceFromUCQ wraps a materialized UCQ as an ArmSource.
func SourceFromUCQ(u bgp.UCQ) ArmSource {
	var leaves int64
	for _, cq := range u.CQs {
		leaves += int64(len(cq.Atoms))
	}
	return ArmSource{
		Vars:   u.Vars,
		NumCQs: int64(len(u.CQs)),
		Leaves: leaves,
		Each: func(f func(bgp.CQ) bool) bool {
			for _, cq := range u.CQs {
				if !f(cq) {
					return false
				}
			}
			return true
		},
	}
}

// EvalCQ evaluates a single conjunctive query.
func (e *Engine) EvalCQ(q bgp.CQ) (*Relation, Metrics, error) {
	vars := make([]uint32, len(q.Head))
	for i, h := range q.Head {
		if h.Var {
			vars[i] = h.ID
		}
	}
	u := bgp.UCQ{Vars: vars, CQs: []bgp.CQ{q}}
	return e.EvalUCQ(u)
}

// EvalUCQ evaluates a union of conjunctive queries under set semantics.
func (e *Engine) EvalUCQ(u bgp.UCQ) (*Relation, Metrics, error) {
	return e.EvalArms(u.Vars, []ArmSource{SourceFromUCQ(u)})
}

// EvalJUCQ evaluates a join of UCQs: arms are admission-checked,
// evaluated, joined with the profile's arm-join algorithm, projected on
// the head and deduplicated.
func (e *Engine) EvalJUCQ(j bgp.JUCQ) (*Relation, Metrics, error) {
	arms := make([]ArmSource, len(j.Arms))
	for i, arm := range j.Arms {
		arms[i] = SourceFromUCQ(arm)
	}
	return e.EvalArms(j.Head, arms)
}

// EvalArms is the general entry point: a join of streamed UCQ arms,
// projected on head. A single arm is a plain UCQ evaluation. When the
// engine carries a trace span (WithSpan), the evaluation records its
// operator tree and metrics under it.
func (e *Engine) EvalArms(head []uint32, arms []ArmSource) (*Relation, Metrics, error) {
	// Pin one immutable store snapshot for the whole evaluation: every
	// bind-join scan and planning-time stats probe below reads through
	// it, lock-free. This is what makes the recursive bind-join safe —
	// the old path nested store read locks inside scan callbacks, which
	// deadlocks as soon as a writer queues between the acquisitions —
	// and it gives the evaluation one consistent view under mutation.
	ctx := &evalCtx{
		prof: e.prof,
		span: e.span,
		snap: e.store.Snapshot(),
	}
	if e.ctx != nil {
		ctx.done, ctx.cctx = e.ctx.Done(), e.ctx
	}
	if evalSnapshotHook != nil {
		evalSnapshotHook(ctx.snap)
	}
	// By the time Release runs evalArms has returned, so no read through
	// the snapshot is in flight.
	defer ctx.snap.Release()
	rel, err := e.evalArms(ctx, head, arms)
	ctx.finishSpan(e.span, err)
	return rel, ctx.snapshot(), err
}

// evalSnapshotHook, when non-nil, observes the snapshot every evaluation
// pins — a test seam for asserting that cancellation (like every other
// exit path) releases the snapshot. nil outside tests; the production
// path pays one nil check per evaluation.
var evalSnapshotHook func(*storage.Snapshot)

// evalArms is EvalArms' body, with the metrics snapshot and the span
// bookkeeping hoisted into the wrapper so every return path stays a
// plain error return.
func (e *Engine) evalArms(ctx *evalCtx, head []uint32, arms []ArmSource) (*Relation, error) {
	// A context already canceled at admission fails before any work.
	if err := ctx.canceled(); err != nil {
		return nil, err
	}
	// Admission control: total plan size.
	var leaves int64
	for _, a := range arms {
		leaves += a.Leaves
	}
	if sp := ctx.span; sp != nil {
		sp.SetStr("profile", e.prof.Name)
		sp.SetInt("arms", int64(len(arms)))
		sp.SetInt("plan_leaves", leaves)
	}
	if e.prof.MaxPlanLeaves > 0 && leaves > e.prof.MaxPlanLeaves {
		return nil, fmt.Errorf("%w (%s: %d scan leaves)", ErrPlanTooComplex, e.prof.Name, leaves)
	}

	// The arm pipeline: arms are evaluated one at a time in armPipeline's
	// order and joined in at once, and every arm after the first runs
	// under a filter of the keys the join so far can still match, so what
	// is deduplicated, held and joined is the semi-join-reduced arm.
	var cur *Relation
	for n, st := range armPipeline(arms) {
		rel, err := e.evalStage(ctx, arms[st.arm], st, n, cur)
		if err != nil {
			return nil, err
		}
		if len(arms) > 1 {
			ctx.rowsMaterialized.Add(int64(rel.Len()))
		}
		if cur == nil {
			cur = rel
			continue
		}
		if cur, err = joinRelations(ctx, cur, rel, e.prof.ArmJoin); err != nil {
			return nil, err
		}
	}

	// Final projection on the head, with duplicate elimination.
	pos := cur.colIndex()
	cols := make([]int, len(head))
	for i, v := range head {
		c, ok := pos[v]
		if !ok {
			return nil, fmt.Errorf("engine: head variable ?v%d not produced by any arm", v)
		}
		cols[i] = c
	}
	out, err := projectDistinct(ctx, cur, cols, head)
	if err != nil {
		return nil, err
	}
	if sp := ctx.span; sp != nil {
		sp.SetInt("rows_out", int64(out.Len()))
	}
	return out, nil
}

// armStage is one stage of the arm pipeline: which arm runs, and which of
// its head columns carry variables an earlier stage already bound — the
// key it is filtered and joined on, empty for the first arm and for an arm
// that meets the join so far in a cartesian product.
type armStage struct {
	arm int
	key []int
}

// armPipeline fixes the order arms are evaluated and joined in: ascending
// estimated rows (ties and missing estimates keep arm order), always
// preferring an arm that shares a variable with those before it, so a
// small arm filters the large ones and no cartesian product forms while a
// connected arm remains. EvalArms and ExplainArms both run it.
func armPipeline(arms []ArmSource) []armStage {
	rank := make([]int, len(arms))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return arms[rank[a]].EstRows < arms[rank[b]].EstRows })
	stages := make([]armStage, 0, len(arms))
	var bound []uint32
	for len(rank) > 0 {
		pick, key := 0, []int(nil)
		for r, i := range rank {
			if key = sharedCols(arms[i].Vars, bound); len(key) > 0 {
				pick = r
				break
			}
		}
		i := rank[pick]
		rank = append(rank[:pick], rank[pick+1:]...)
		stages = append(stages, armStage{arm: i, key: key})
		bound = append(bound, arms[i].Vars...)
	}
	return stages
}

// sharedCols returns the positions of vars that also occur in bound.
func sharedCols(vars, bound []uint32) []int {
	var cols []int
	for c, v := range vars {
		if slices.Contains(bound, v) {
			cols = append(cols, c)
		}
	}
	return cols
}

// keyFilter is the semi-join reduction an arm runs under: the distinct
// projection of the join so far on the variables it shares with the arm.
// The bind-join kernel drops a tuple whose key is absent the moment the
// key is bound (bindJoin.admit), before any deeper probe, emission or
// dedup insert. evalStage builds it, the arm's kernel only reads it, and
// it is garbage once the arm is joined in. Not building one is always
// sound: the arm join applies the same predicate.
//
// A one-column key is a bitmap over the span of its IDs (dictionary IDs
// are dense), so admitting a binding is a subtract, a shift and a mask; a
// wider key, or one whose span would need more than bitmapWordsPerRow
// words per row of the relation it is built from, is a rowSet.
type keyFilter struct {
	cols []int    // the arm's head columns carrying the key variables
	set  rowSet   // the distinct key tuples, when bits is nil
	bits []uint64 // one-column keys: bit id-lo is set for each key id
	lo   dict.ID
	n    int // the distinct keys
}

// bitmapWordsPerRow bounds a one-column key's bitmap by the relation it is
// built from: no more words than four per row, the size of a row of two
// IDs with its slice header — so the bitmap never outweighs its input.
const bitmapWordsPerRow = 4

// has reports whether key is one of the filter's keys.
func (f *keyFilter) has(key []dict.ID) bool {
	if f.bits == nil {
		return f.set.has(key)
	}
	w, m := f.bit(key[0])
	return w < uint64(len(f.bits)) && f.bits[w]&m != 0
}

// bit returns the word and the mask of id's bit in the bitmap. An id
// below lo wraps to a word far past the bitmap.
func (f *keyFilter) bit(id dict.ID) (word, mask uint64) {
	i := uint64(id) - uint64(f.lo)
	return i >> 6, 1 << (i & 63)
}

// newKeyFilter projects cur on the stage's key, one work unit per input
// row, the keys held against the materialization budget like any other
// intermediate. It gives up (nil, nil) once the keys outnumber the rows
// the arm is estimated to produce: such a filter costs more than it drops.
func newKeyFilter(ctx *evalCtx, cur *Relation, arm ArmSource, key []int) (*keyFilter, error) {
	f := &keyFilter{cols: key}
	pos, from := cur.colIndex(), make([]int, len(key))
	for i, c := range key {
		from[i] = pos[arm.Vars[c]]
	}
	if len(from) == 1 {
		f.bitmap(cur, from[0])
	}
	var arena rowArena
	var err error
	cur.Each(func(row []dict.ID) bool {
		if err = ctx.charge(1); err != nil {
			return false
		}
		if f.bits != nil {
			w, m := f.bit(row[from[0]])
			if f.bits[w]&m != 0 {
				return true
			}
			f.bits[w] |= m
		} else {
			k := arena.alloc(len(from))
			for i, c := range from {
				k[i] = row[c]
			}
			if !f.set.add(k) {
				arena.release(k)
				return true
			}
		}
		if f.n++; arm.EstRows > 0 && float64(f.n) > arm.EstRows {
			f = nil
			return false
		}
		err = ctx.checkRows(f.n)
		return err == nil
	})
	if err != nil || f == nil {
		return nil, err
	}
	ctx.rowsMaterialized.Add(int64(f.n))
	return f, nil
}

// bitmap sizes f's bitmap to the span of cur's column c, unless the span
// needs more than bitmapWordsPerRow words per row of cur; f then stays a
// rowSet.
func (f *keyFilter) bitmap(cur *Relation, c int) {
	lo, hi := ^dict.None, dict.None
	cur.Each(func(row []dict.ID) bool {
		lo, hi = min(lo, row[c]), max(hi, row[c])
		return true
	})
	if lo > hi {
		return
	}
	if words := int64(hi-lo)>>6 + 1; words <= bitmapWordsPerRow*int64(cur.Len()) {
		f.bits, f.lo = make([]uint64, words), lo
	}
}

// evalStage runs stage n of the arm pipeline: the arm, under the key
// filter the join so far (cur, nil for the first stage) allows it.
func (e *Engine) evalStage(ctx *evalCtx, arm ArmSource, st armStage, n int, cur *Relation) (*Relation, error) {
	var sp *trace.Span
	if ctx.span != nil {
		sp = ctx.span.Child(fmt.Sprintf("arm[%d]", st.arm))
		sp.SetInt("order", int64(n))
		sp.SetInt("members", arm.NumCQs)
		if arm.EstRows > 0 {
			sp.SetFloat("est_rows", arm.EstRows)
		}
		defer sp.End()
	}
	if cur != nil && cur.Len() == 0 {
		// Nothing to join with: the answer is empty whatever the arm holds.
		sp.SetInt("rows_out", 0)
		return &Relation{Vars: arm.Vars}, nil
	}
	var f *keyFilter
	if len(st.key) > 0 {
		var err error
		if f, err = newKeyFilter(ctx, cur, arm, st.key); err != nil {
			return nil, err
		}
	}
	dropped := ctx.filtered.Load()
	rel, err := e.evalArm(ctx, sp, arm, f)
	if err != nil {
		return nil, err
	}
	if f != nil {
		sp.SetInt("keys", int64(f.n))
		sp.SetInt("filtered", ctx.filtered.Load()-dropped)
	}
	return rel, nil
}

// projectDistinct projects cur on cols with duplicate elimination — the
// final operator of every plan. The output relation is charged against
// the materialization budget like any other intermediate (the dedup set
// grows in lockstep with out.Rows, and checkRows guards the appends), so
// ErrMemoryBudget cannot be bypassed at the last operator. The set is
// sized once, to the input, so it never rehashes or regrows, and its rows,
// in first-occurrence order, are the output relation.
//
// The input is duplicate-free: arm relations come out of a dedup set,
// and a join that keeps every column of duplicate-free inputs is
// duplicate-free too. So a head that keeps every column exactly once
// needs no set: the identity reuses the rows, a permutation copies them.
// Either is charged in bulk, the work unit per row the loop would charge.
func projectDistinct(ctx *evalCtx, cur *Relation, cols []int, head []uint32) (*Relation, error) {
	sp := ctx.span.Child("project")
	if sp != nil {
		sp.SetInt("rows_in", int64(cur.Len()))
		defer sp.End()
	}
	if perm, identity := permutation(cols, cur.Arity()); perm {
		if err := ctx.charge(int64(len(cur.Rows))); err != nil {
			return nil, err
		}
		out := &Relation{Vars: head, Rows: cur.Rows}
		if !identity {
			out.Rows = make([][]dict.ID, len(cur.Rows))
			var arena rowArena
			for r, row := range cur.Rows {
				proj := arena.alloc(len(cols))
				for i, c := range cols {
					proj[i] = row[c]
				}
				out.Rows[r] = proj
			}
		}
		sp.SetInt("rows_out", int64(out.Len()))
		return out, nil
	}
	dedup := newDedupSet(ctx)
	dedup.set.presize(len(cur.Rows))
	arena := rowArena{buf: make([]dict.ID, 0, len(cur.Rows)*len(cols))}
	for _, row := range cur.Rows {
		proj := arena.alloc(len(cols))
		for i, c := range cols {
			proj[i] = row[c]
		}
		fresh, err := dedup.addOwned(proj)
		if err != nil {
			return nil, err
		}
		if !fresh {
			arena.release(proj)
		}
	}
	out := &Relation{Vars: head, Rows: dedup.set.rows}
	if sp != nil {
		sp.SetInt("rows_out", int64(out.Len()))
		sp.SetInt("dedup_hits", dedup.hits)
	}
	return out, nil
}

// permutation reports whether cols lists each of the columns 0..arity-1
// exactly once, and whether it lists them in order.
func permutation(cols []int, arity int) (perm, identity bool) {
	if len(cols) != arity {
		return false, false
	}
	var seen uint64
	identity = true
	for i, c := range cols {
		if c >= 64 || seen&(1<<c) != 0 {
			return false, false
		}
		seen |= 1 << c
		identity = identity && c == i
	}
	return true, identity
}

// memberWindow is how many member CQs the arm loop gathers before
// planning them together: merged scans and member families form within
// one window. Every arm of the benchmark's join and mixed workloads fits
// in one; a larger streamed arm is evaluated window by window.
const memberWindow = 4096

// evalArm evaluates one UCQ arm under key filter f (nil for none): member
// CQs are gathered into windows, planned together (merged scans, member
// families) and bind-joined into one duplicate-elimination set.
func (e *Engine) evalArm(ctx *evalCtx, sp *trace.Span, arm ArmSource, f *keyFilter) (*Relation, error) {
	dedup := newDedupSet(ctx)
	sc := newArmScratch(ctx, f)
	defer sc.release()
	fams, probes := ctx.families.Load(), ctx.familyProbes.Load()
	var err error
	arm.Each(func(cq bgp.CQ) bool {
		err = e.addMember(sc, cq, dedup)
		return err == nil
	})
	if err == nil {
		err = e.flushMembers(sc, dedup)
	}
	if err != nil {
		return nil, err
	}
	// The set's rows, in first-occurrence order, are the arm's relation.
	out := &Relation{Vars: arm.Vars, Rows: dedup.set.rows}
	if sp != nil {
		sp.SetInt("rows_out", int64(out.Len()))
		sp.SetInt("dedup_hits", dedup.hits)
		sp.SetInt("arena_chunks", int64(dedup.arena.chunks))
		sp.SetInt("families", ctx.families.Load()-fams)
		sp.SetInt("family_probes", ctx.familyProbes.Load()-probes)
	}
	return out, nil
}

// addMember gathers cq into the scratch's window, evaluating the window
// into dedup once it is full.
func (e *Engine) addMember(sc *armScratch, cq bgp.CQ, dedup *dedupSet) error {
	if sc.window = append(sc.window, cq); len(sc.window) < memberWindow {
		return nil
	}
	return e.flushMembers(sc, dedup)
}

// flushMembers evaluates the members gathered so far into dedup.
func (e *Engine) flushMembers(sc *armScratch, dedup *dedupSet) error {
	if len(sc.window) == 0 {
		return nil
	}
	err := e.evalMemberRun(sc.bj.m.ctx, sc, sc.window, dedup)
	clear(sc.window)
	sc.window = sc.window[:0]
	return err
}

// memberPlan is one member CQ prepared for evaluation: its join order,
// its depth-0 scan pattern, and — when a merged scan located it — the
// pre-resolved sorted subrange its depth-0 scan replays.
type memberPlan struct {
	cq    bgp.CQ
	order []int
	pat0  storage.Pattern
	pre   storage.Span
	preOK bool
}

// family is the members of a window that share their depth-0 atom — and
// so its scan — the slots completing their depth-1 probe, the index that
// probe reads, and whether the key filter is complete at depth 0 (then
// with one key): a list linked through armScratch.next, with the largest
// environment and join depth of its members.
type family struct {
	first, last, n int
	slots, depths  int
	perm           [3]int // sort order of the depth-1 probes' index
}

// famKey is what the members of one family have in common: besides their
// depth-0 atom, the sort order perm of the index their depth-1 probes read
// and every depth-1 constant sorted before the last slot-bound position
// (all of them when no slot completes the probe), so the family's probe
// can bind a prefix of that order — it reads the index, and the blocks,
// its members would have read.
type famKey struct {
	step0    step
	use1     [3]int32
	perm     [3]int
	c1       storage.Pattern
	deep, f0 bool
}

func (p *program) familyKey(snap *storage.Snapshot) famKey {
	key := famKey{step0: p.steps[0], use1: [3]int32{-1, -1, -1}, deep: len(p.steps) > 1, f0: p.fdepth == 0}
	if !key.deep {
		return key
	}
	st := &p.steps[1]
	pat := st.consts
	for i, s := range st.use {
		if s >= 0 {
			pat = withPos(pat, i, ^dict.None) // any value: only the bound shape counts
		}
	}
	perm, n := snap.Path(pat)
	key.use1, key.perm = st.use, perm
	pinned := n
	for i := range n {
		if st.use[key.perm[i]] >= 0 {
			pinned = i
		}
	}
	for _, pos := range key.perm[:pinned] {
		key.c1 = withPos(key.c1, pos, patPos(st.consts, pos))
	}
	return key
}

// groupFamilies compiles the window's members and partitions them into
// families, in the order of their first member. A member with no atoms
// is a family of its own, and a member whose depth-0 key differs from
// its family's starts a new family: splitting one is always sound.
func (sc *armScratch) groupFamilies() {
	clear(sc.famBy)
	progs, fams, next := sc.progs[:0], sc.fams[:0], sc.next[:0]
	for i := range sc.plans {
		if i < cap(progs) {
			progs = progs[:i+1]
		} else {
			progs = append(progs, program{})
		}
		pl, p := &sc.plans[i], &progs[i]
		sc.bj.compile(p, pl.cq, pl.order, sc.filter)
		next = append(next, -1)
		keyed := len(p.steps) > 0
		var key famKey
		fi, ok := 0, false
		if keyed {
			key = p.familyKey(sc.bj.m.ctx.snap)
			fi, ok = sc.famBy[key]
			ok = ok && (!key.f0 || slices.Equal(progs[fams[fi].first].fkey, p.fkey))
		}
		if ok {
			next[fams[fi].last], fams[fi].last = i, i
		} else {
			fi, fams = len(fams), append(fams, family{first: i, last: i, perm: key.perm})
			if keyed {
				sc.famBy[key] = fi
			}
		}
		f := &fams[fi]
		f.n, f.slots, f.depths = f.n+1, max(f.slots, p.slots), max(f.depths, len(p.steps))
	}
	sc.progs, sc.fams, sc.next = progs, fams, next
}

// evalFamily evaluates one family into dedup. A member alone runs its own
// program. A larger family runs the program of a live member — one whose
// key, when it is all constants, the filter holds — for depth 0, the atom
// they share, and at depth 1 issues one probe per binding: the slots its
// members share and, along the sort order of their index, the constants
// they all agree on up to the first they differ in; the rest is unbound.
// Each triple it returns is dispatched to the members whose constants it
// matches (bindJoin.dispatch), so rows come out binding-major.
func (sc *armScratch) evalFamily(f *family, dedup *dedupSet) error {
	k, fan := &sc.bj, &sc.fan
	k.filter, k.dedup, k.fam = sc.filter, dedup, nil
	k.prog, k.pre, k.preOK = &sc.progs[f.first], sc.plans[f.first].pre, sc.plans[f.first].preOK
	k.m.families++
	if f.n == 1 {
		return k.exec(f.slots, f.depths)
	}
	ents := sc.ents[:0]
	for m := f.first; m >= 0; m = sc.next[m] {
		p := &sc.progs[m]
		if k.prog = p; k.filter == nil || p.fdepth >= 0 || k.admit() {
			ents = append(ents, famEntry{prog: p})
		}
	}
	sc.ents = ents
	if len(ents) == 0 {
		return nil
	}
	if k.prog = ents[0].prog; len(ents) == 1 {
		return k.exec(f.slots, f.depths)
	}
	// The probe binds the family's slots and, along the index's sort order,
	// each constant all members share up to the first they do not; the
	// members' other constants are their dispatch keys.
	var probe [3]dict.ID
	for _, pos := range f.perm {
		c := k.prog.consts1()[pos]
		for _, e := range ents {
			if e.prog.consts1()[pos] != c {
				c = dict.None
			}
		}
		if c == dict.None && (len(k.prog.steps) == 1 || k.prog.steps[1].use[pos] < 0) {
			break
		}
		probe[pos] = c
	}
	fan.masks = 0
	for j := range ents {
		cs, mask := ents[j].prog.consts1(), uint64(0)
		for i, c := range cs {
			if probe[i] == dict.None && c != dict.None {
				mask |= 1 << i
			}
		}
		ents[j].ord = dispatchKey(mask, cs)
		fan.masks |= 1 << mask
	}
	slices.SortStableFunc(ents, func(a, b famEntry) int {
		return cmp.Or(cmp.Compare(a.ord[0], b.ord[0]), cmp.Compare(a.ord[1], b.ord[1]))
	})
	fan.probe = storage.Pattern{S: probe[0], P: probe[1], O: probe[2]}
	fan.ents, k.fam = ents, fan
	return k.exec(f.slots, f.depths)
}

// distKey keys the per-arm DistinctForVar memo.
type distKey struct {
	a bgp.Atom
	v uint32
}

// armScratch is the evaluation state of one arm: the planning memos
// (join orders per member key, per-atom cardinalities and per-variable
// distinct counts shared across the arm's near-identical members), the
// member window with its plans, compiled programs and families, the
// merge-planning buffers, and the bind-join state with its environment,
// probe hints and meter. One scratch is owned by one goroutine, so none of
// it needs locking.
type armScratch struct {
	orders map[string][]int
	cards  map[bgp.Atom]float64
	dist   map[distKey]float64
	window []bgp.CQ
	plans  []memberPlan
	bj     bindJoin
	// filter is the key filter the arm runs under, nil for none.
	filter *keyFilter

	// The window's compiled programs and families (groupFamilies) and the
	// fanout of the family being evaluated (evalFamily).
	progs []program
	fams  []family
	next  []int
	famBy map[famKey]int
	fan   fanout
	ents  []famEntry

	// planMergedScans scratch, reused window after window.
	mergeBy map[mergeKey]int
	groups  []mergeGroup
	bySize  []int
	claimed []bool
	members []int
	consts  []dict.ID
	ranges  []storage.Span
	// merge is the merged-scan site's probe memory: every located
	// subrange unpacks its rows into its buffer, which is safe because
	// members walk their depth-0 ranges one after another.
	merge storage.Hint

	// orderKey scratch: the byte key under construction and the
	// first-appearance variable numbering of the member being keyed.
	keyBuf []byte
	rename []uint32

	// In-place sorters for planMergedScans: values here rather than
	// sort.SliceStable closures so sorting a window allocates nothing.
	gsort groupSorter
	msort memberSorter

	// probes adapts the scratch's shared cardinality memos to
	// greedyOrder, re-pointed at the current snapshot per call.
	probes statProbes

	// greedy is greedyOrder's working state, reused member after member
	// (the planning path, joinOrder, pays per call).
	greedy greedyState

	// shapeSeen is a tag table over member shape hashes: an order is
	// only installed in the orders cache on its shape's second
	// occurrence. Reformulation dedups members, so most shapes appear
	// once per arm — installing those would pay a string and map insert
	// per member for entries that can never be hit again. A collision
	// only installs an entry early or late, never a wrong order.
	shapeSeen [shapeSeenSlots]uint32
}

// shapeSeenSlots sizes the order-cache admission tag table (4 KB).
const shapeSeenSlots = 1 << 10

// armScratchPool recycles arm scratches across evaluations: the map
// buckets and the capacities of every bookkeeping buffer survive, so a
// steady-state planning window allocates nothing.
var armScratchPool = sync.Pool{New: func() any {
	return &armScratch{
		orders:  make(map[string][]int),
		cards:   make(map[bgp.Atom]float64),
		dist:    make(map[distKey]float64),
		mergeBy: make(map[mergeKey]int),
		famBy:   make(map[famKey]int),
	}
}}

// newArmScratch takes a scratch from the pool for ctx's evaluation of an
// arm filtered by f (nil for none).
func newArmScratch(ctx *evalCtx, f *keyFilter) *armScratch {
	sc := armScratchPool.Get().(*armScratch)
	sc.bj.m.ctx, sc.filter = ctx, f
	sc.bj.key = sc.bj.key[:0]
	for f != nil && len(sc.bj.key) < len(f.cols) {
		sc.bj.key = append(sc.bj.key, dict.None)
	}
	return sc
}

// release returns the scratch to the pool, dropping everything that
// must not carry across evaluations: the planning memos, what the probe
// hints learned (stale against the next evaluation's snapshot; their
// scratch buffers stay) and every retained member or snapshot slice.
// Only the owning goroutine may call it.
func (sc *armScratch) release() {
	clear(sc.orders)
	clear(sc.cards)
	clear(sc.dist)
	for i := range sc.bj.hints {
		sc.bj.hints[i].Reset()
	}
	sc.merge.Reset()
	sc.bj.m, sc.bj.dedup, sc.bj.pre = meter{}, nil, storage.Span{}
	sc.bj.filter, sc.filter, sc.bj.prog, sc.bj.fam = nil, nil, nil, nil
	clear(sc.plans[:cap(sc.plans)])
	sc.plans = sc.plans[:0]
	clear(sc.ranges[:cap(sc.ranges)])
	sc.shapeSeen = [shapeSeenSlots]uint32{}
	sc.gsort, sc.msort, sc.probes = groupSorter{}, memberSorter{}, statProbes{}
	clear(sc.greedy.bound)
	armScratchPool.Put(sc)
}

// evalMemberRun plans and evaluates a window of member CQs: each gets its
// join order and compiled program, the depth-0 scans of members differing
// in one constant are located in one merged pass, and the members are
// evaluated family by family (see evalFamily), in the order of each
// family's first member.
func (e *Engine) evalMemberRun(ctx *evalCtx, sc *armScratch, cqs []bgp.CQ, dedup *dedupSet) error {
	plans := sc.plans[:0]
	for _, cq := range cqs {
		p := memberPlan{cq: cq, order: e.memberOrder(ctx, sc, cq)}
		if len(p.order) > 0 {
			p.pat0 = atomPattern(cq.Atoms[p.order[0]])
		}
		plans = append(plans, p)
	}
	sc.plans = plans
	if len(plans) > 1 {
		e.planMergedScans(ctx, sc, plans)
	}
	sc.groupFamilies()
	for i := range sc.fams {
		ctx.unionArms.Add(int64(sc.fams[i].n))
		if err := sc.evalFamily(&sc.fams[i], dedup); err != nil {
			return err
		}
	}
	return sc.bj.m.flush()
}

// mergeKey identifies one family of depth-0 patterns that differ only
// in the constant at position vpos.
type mergeKey struct {
	masked storage.Pattern
	vpos   int
}

// mergeGroup is one candidate family of a merge-planning window; the
// idxs slices are retained in the arm scratch and reused.
type mergeGroup struct {
	key  mergeKey
	idxs []int
}

// groupSorter stably orders a window's candidate groups largest-first.
type groupSorter struct {
	bySize []int
	groups []mergeGroup
}

func (s *groupSorter) Len() int { return len(s.bySize) }
func (s *groupSorter) Less(a, b int) bool {
	return len(s.groups[s.bySize[a]].idxs) > len(s.groups[s.bySize[b]].idxs)
}
func (s *groupSorter) Swap(a, b int) { s.bySize[a], s.bySize[b] = s.bySize[b], s.bySize[a] }

// memberSorter stably orders one group's members by the constant at the
// group's varying position, as MultiRange requires.
type memberSorter struct {
	members []int
	plans   []memberPlan
	vpos    int
}

func (s *memberSorter) Len() int { return len(s.members) }
func (s *memberSorter) Less(a, b int) bool {
	return patPos(s.plans[s.members[a]].pat0, s.vpos) < patPos(s.plans[s.members[b]].pat0, s.vpos)
}
func (s *memberSorter) Swap(a, b int) { s.members[a], s.members[b] = s.members[b], s.members[a] }

// planMergedScans groups the window's members by "depth-0 pattern equal
// up to one constant position" and asks the snapshot to locate every
// group's subranges in a single pass over the covering index range
// (MultiRange) — the shared-scan answer to reformulations whose members
// differ in one class or property constant. Each member keeps its own
// subrange and join order (members with equal patterns share a subrange,
// and a family — see groupFamilies). Groups are formed greedily, largest first, with
// first-encounter order breaking ties, which keeps the merged_members
// counter deterministic. All bookkeeping lives in the arm scratch, so a
// steady-state window allocates nothing.
func (e *Engine) planMergedScans(ctx *evalCtx, sc *armScratch, plans []memberPlan) {
	clear(sc.mergeBy)
	groups := sc.groups[:0]
	for i := range plans {
		if len(plans[i].order) == 0 {
			continue
		}
		pat := plans[i].pat0
		for pos := 0; pos < 3; pos++ {
			if patPos(pat, pos) == dict.None {
				continue
			}
			k := mergeKey{masked: withPos(pat, pos, dict.None), vpos: pos}
			gi, ok := sc.mergeBy[k]
			if !ok {
				gi = len(groups)
				sc.mergeBy[k] = gi
				if gi < cap(groups) {
					groups = groups[:gi+1]
					groups[gi] = mergeGroup{key: k, idxs: groups[gi].idxs[:0]}
				} else {
					groups = append(groups, mergeGroup{key: k})
				}
			}
			groups[gi].idxs = append(groups[gi].idxs, i)
		}
	}
	sc.groups = groups
	bySize := sc.bySize[:0]
	for i := range groups {
		bySize = append(bySize, i)
	}
	sc.bySize = bySize
	sc.gsort = groupSorter{bySize: bySize, groups: groups}
	sort.Stable(&sc.gsort)
	claimed := sc.claimed[:0]
	for range plans {
		claimed = append(claimed, false)
	}
	sc.claimed = claimed
	for _, gi := range bySize {
		g := groups[gi]
		members := sc.members[:0]
		for _, i := range g.idxs {
			if !claimed[i] {
				members = append(members, i)
			}
		}
		sc.members = members
		if len(members) < 2 {
			continue
		}
		sc.msort = memberSorter{members: members, plans: plans, vpos: g.key.vpos}
		sort.Stable(&sc.msort)
		consts := sc.consts[:0]
		for _, i := range members {
			consts = append(consts, patPos(plans[i].pat0, g.key.vpos))
		}
		sc.consts = consts
		ranges, ok := ctx.snap.MultiRange(g.key.masked, g.key.vpos, consts, &sc.merge, sc.ranges)
		if !ok {
			continue
		}
		sc.ranges = ranges
		for k, i := range members {
			plans[i].pre, plans[i].preOK = ranges[k], true
			claimed[i] = true
		}
		ctx.mergedMembers.Add(int64(len(members)))
		ctx.snapRanges.Add(int64(len(members)))
	}
}

// atomPattern returns the scan pattern of an atom with no bindings —
// its constant positions (the depth-0 pattern of a bind-join).
func atomPattern(a bgp.Atom) storage.Pattern {
	var pat storage.Pattern
	if !a.S.Var {
		pat.S = a.S.Const()
	}
	if !a.P.Var {
		pat.P = a.P.Const()
	}
	if !a.O.Var {
		pat.O = a.O.Const()
	}
	return pat
}

// patPos returns position pos (0=S, 1=P, 2=O) of the pattern.
func patPos(p storage.Pattern, pos int) dict.ID {
	switch pos {
	case 0:
		return p.S
	case 1:
		return p.P
	default:
		return p.O
	}
}

// withPos returns p with position pos set to id.
func withPos(p storage.Pattern, pos int, id dict.ID) storage.Pattern {
	switch pos {
	case 0:
		p.S = id
	case 1:
		p.P = id
	default:
		p.O = id
	}
	return p
}

// memberOrder returns the evaluation join order for one member CQ,
// cached in the arm scratch under the member's structural key (members
// identical up to variable renaming share an entry, installed on the
// shape's second occurrence) and computed with the scratch's shared
// cardinality memos over the pinned snapshot.
func (e *Engine) memberOrder(ctx *evalCtx, sc *armScratch, cq bgp.CQ) []int {
	key := sc.orderKey(cq)
	if o, ok := sc.orders[string(key)]; ok {
		return o
	}
	sc.probes = statProbes{st: e.st, src: ctx.snap, cards: sc.cards, dist: sc.dist}
	o := greedyOrder(cq, &sc.probes, &sc.greedy)
	if sc.seenShape(key) {
		sc.orders[string(key)] = o
	}
	return o
}

// seenShape records the shape key and reports whether it was recorded
// before — the order cache's second-occurrence admission check.
func (sc *armScratch) seenShape(key []byte) bool {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	slot := h & (shapeSeenSlots - 1)
	tag := uint32(h>>32) | 1
	if sc.shapeSeen[slot] == tag {
		return true
	}
	sc.shapeSeen[slot] = tag
	return false
}

// statProbes supplies greedyOrder's statistics, memoized — a concrete
// struct rather than a closure pair so that ordering a member allocates
// no closure objects. src selects the count source: the pinned snapshot
// on the evaluation path, nil for the live store on the planning path.
type statProbes struct {
	st    *stats.Stats
	src   stats.CountSource
	cards map[bgp.Atom]float64
	dist  map[distKey]float64
}

func (p *statProbes) card(a bgp.Atom) float64 {
	c, ok := p.cards[a]
	if !ok {
		if p.src != nil {
			c = p.st.AtomCardOn(p.src, a)
		} else {
			c = p.st.AtomCard(a)
		}
		p.cards[a] = c
	}
	return c
}

func (p *statProbes) distinct(a bgp.Atom, v uint32) float64 {
	k := distKey{a: a, v: v}
	d, ok := p.dist[k]
	if !ok {
		if p.src != nil {
			d = p.st.DistinctForVarOn(p.src, a, v)
		} else {
			d = p.st.DistinctForVar(a, v)
		}
		p.dist[k] = d
	}
	return d
}

// orderKey renders cq's renaming-invariant structural key — the same
// equivalence classes as bgp.CQ.Key — into the scratch key buffer and
// returns it. Byte-level rather than string-level so the order-cache
// probe in memberOrder allocates nothing (a map lookup keyed by
// string(bytes) does not copy); only installing a new entry pays for the
// string. The buffer is invalidated by the next call. The encoding is
// positional: a head-length prefix, then five bytes per term (a var/const
// tag and a little-endian ID, with variables renumbered in order of first
// appearance), so equal keys always denote members equal up to renaming.
func (sc *armScratch) orderKey(cq bgp.CQ) []byte {
	buf := append(sc.keyBuf[:0], byte(len(cq.Head)))
	rn := sc.rename[:0]
	for _, t := range cq.Head {
		buf, rn = appendTermKey(buf, rn, t)
	}
	for _, a := range cq.Atoms {
		buf, rn = appendTermKey(buf, rn, a.S)
		buf, rn = appendTermKey(buf, rn, a.P)
		buf, rn = appendTermKey(buf, rn, a.O)
	}
	sc.keyBuf, sc.rename = buf, rn
	return buf
}

// appendTermKey appends one term of an orderKey: a plain function rather
// than a closure over the buffers so nothing escapes to the heap.
func appendTermKey(buf []byte, rn []uint32, t bgp.Term) ([]byte, []uint32) {
	tag, id := byte('#'), t.ID
	if t.Var {
		n := -1
		for i, v := range rn {
			if v == t.ID {
				n = i
				break
			}
		}
		if n < 0 {
			n = len(rn)
			rn = append(rn, t.ID)
		}
		tag, id = '?', uint32(n)
	}
	return append(buf, tag, byte(id), byte(id>>8), byte(id>>16), byte(id>>24)), rn
}

// joinOrder picks the static atom order of one CQ against the live
// store — the planning-path entry point (estimation, explanation). The
// evaluation path goes through memberOrder, which adds the per-arm
// memoization and reads statistics through the pinned snapshot.
func (e *Engine) joinOrder(cq bgp.CQ) []int {
	// Memoize the stats probes for the greedy rounds below: without
	// this, every round re-prices every remaining atom, turning n atoms
	// into O(n²) AtomCard calls through the stats mutex.
	pr := statProbes{
		st:    e.st,
		cards: make(map[bgp.Atom]float64, len(cq.Atoms)),
		dist:  make(map[distKey]float64, len(cq.Atoms)),
	}
	return greedyOrder(cq, &pr, nil)
}

// greedyState is greedyOrder's per-call working state: which atoms were
// already placed, which variables they bound, and a variable scratch.
// Reusable across calls (greedyOrder resets it), so memberOrder hands
// in the one kept in its arm scratch; a nil state makes greedyOrder
// allocate a fresh one for the call.
type greedyState struct {
	used  []bool
	bound map[uint32]bool
	buf   []uint32
}

func (g *greedyState) reset(n int) {
	g.used = g.used[:0]
	for i := 0; i < n; i++ {
		g.used = append(g.used, false)
	}
	if g.bound == nil {
		g.bound = make(map[uint32]bool)
	} else {
		clear(g.bound)
	}
}

func (g *greedyState) est(cq bgp.CQ, pr *statProbes, i int) float64 {
	a := cq.Atoms[i]
	c := pr.card(a)
	g.buf = a.Vars(g.buf[:0])
	for j, v := range g.buf {
		if !g.bound[v] || dupBefore(g.buf, j) {
			continue
		}
		if d := pr.distinct(a, v); d > 1 {
			c /= d
		}
	}
	return c
}

func (g *greedyState) connected(cq bgp.CQ, i int) bool {
	g.buf = cq.Atoms[i].Vars(g.buf[:0])
	for _, v := range g.buf {
		if g.bound[v] {
			return true
		}
	}
	return false
}

// greedyOrder picks a static atom order greedily: start from the atom
// with the smallest estimated cardinality, then repeatedly take the
// connected atom whose bound-variable-discounted estimate is smallest,
// falling back to disconnected atoms only when no connected one
// remains. pr supplies the statistics; its probes are pure for the
// duration of the call, so memoization never changes the chosen order,
// and neither does reusing gs — it is fully reset per call.
func greedyOrder(cq bgp.CQ, pr *statProbes, gs *greedyState) []int {
	n := len(cq.Atoms)
	order := make([]int, 0, n)
	var local greedyState // stack-allocated when the caller passes nil
	if gs == nil {
		gs = &local
	}
	gs.reset(n)

	for len(order) < n {
		best, bestEst := -1, 0.0
		bestConn := false
		for i := 0; i < n; i++ {
			if gs.used[i] {
				continue
			}
			conn := len(order) == 0 || gs.connected(cq, i)
			c := gs.est(cq, pr, i)
			if best == -1 || (conn && !bestConn) || (conn == bestConn && c < bestEst) {
				best, bestEst, bestConn = i, c, conn
			}
		}
		order = append(order, best)
		gs.used[best] = true
		gs.buf = cq.Atoms[best].Vars(gs.buf[:0])
		for _, v := range gs.buf {
			gs.bound[v] = true
		}
	}
	return order
}

// dupBefore reports whether vars[i] already occurs in vars[:i] — the
// allocation-free replacement for the per-atom "seen" map in the hot
// ordering and estimation loops (atoms have at most three variables).
func dupBefore(vars []uint32, i int) bool {
	for j := 0; j < i; j++ {
		if vars[j] == vars[i] {
			return true
		}
	}
	return false
}
