package engine

import (
	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/storage"
)

// This file is the engine's one bind-join loop. A member CQ is compiled
// against its join order into a small program — per atom position: a
// constant, a slot bound at an earlier depth, a slot first bound here, or
// a repeat of a slot bound earlier in the same atom — and run over the
// pinned snapshot with a []dict.ID environment: no map, no undo stack and
// no closure on the path where the snapshot hands back sorted ranges,
// which is every probe of a covering index outside the pending delta.
//
// The same loop runs a member family (see evalFamily): the members of an
// arm that share their depth-0 atom walk its range once, issue one depth-1
// probe per binding between them, and dispatch each triple it returns to
// the members whose constants it matches, each of which continues with its
// own program from depth 2 on.

// step is one atom of the compiled program, at its depth of the join
// order. Per position (S, P, O) at most one of use/set/same names a slot;
// a position with none is a constant, already in consts.
type step struct {
	consts storage.Pattern
	use    [3]int32 // slot bound at an earlier depth: completes the probe pattern
	set    [3]int32 // slot first bound here: takes the scanned tuple's value
	same   [3]int32 // slot set at an earlier position of this atom: the tuple must repeat it
}

// headOp fills one output column: a slot's value, or val when slot < 0.
// A head variable no atom binds is the constant dict.None.
type headOp struct {
	slot int
	val  dict.ID
}

// program is one member's compiled bind-join.
type program struct {
	steps []step
	head  []headOp
	// fkey fills the key filter's key from the binding, which is complete
	// once depth fdepth has bound its tuple (-1: before any).
	fkey   []headOp
	fdepth int
	slots  int // environment size
}

// meterBatch bounds the work the kernel holds back from the shared
// counters: pending units are flushed once they reach it, and a range is
// charged ahead in slices of at most this many tuples, so never more than
// 2·meterBatch < 4,096 units are unflushed and cancellation and the work
// budget keep their poll granularity.
const meterBatch = 1024

// meter is the evaluating goroutine's pending share of the evaluation's
// accounting: plain fields folded into evalCtx's shared atomics a batch at
// a time (and at the end of every family) instead of twice per scanned
// tuple. Success-path totals are exactly the per-tuple ones; a failing
// evaluation may read up to a batch ahead of or behind the tuple that
// tripped it.
type meter struct {
	ctx                   *evalCtx
	work, tuples, deduped int64
	ranges                int64 // depth-0 scans the snapshot handed out as ranges
	filtered              int64 // bindings the arm's key filter dropped
	families, probes      int64 // families evaluated, depth-1 probes issued
}

// scanned accounts n tuples read from the store, one work unit each.
func (m *meter) scanned(n int) error {
	m.tuples += int64(n)
	return m.charge(int64(n))
}

func (m *meter) charge(n int64) error {
	if m.work += n; m.work >= meterBatch {
		return m.flush()
	}
	return nil
}

// flush folds the pending counts into the evaluation's shared counters,
// which is where the work budget and the cancellation poll live.
func (m *meter) flush() error {
	c, w := m.ctx, m.work
	c.tuplesScanned.Add(m.tuples)
	c.rowsDeduped.Add(m.deduped)
	c.snapRanges.Add(m.ranges)
	c.filtered.Add(m.filtered)
	c.families.Add(m.families)
	c.familyProbes.Add(m.probes)
	*m = meter{ctx: c}
	if w == 0 {
		return nil
	}
	return c.charge(w)
}

// bindJoin runs compiled programs with their run-time state, kept in the
// arm scratch and reused member after member: steady-state evaluation
// allocates nothing beyond the fresh answer rows.
type bindJoin struct {
	m     meter
	prog  *program       // the program being run
	vars  []uint32       // compile scratch: variable of each slot
	depth []int          // compile scratch: depth at which each slot is first bound
	env   []dict.ID      // value of each slot
	row   []dict.ID      // the output row under construction
	key   []dict.ID      // the filter key under construction
	hints []storage.Hint // per-depth probe memory (see storage.Hint)

	// fam, when non-nil, is the family prog leads: depth 1 is its shared
	// probe and dispatch instead of prog's own step.
	fam *fanout

	// pre, when preOK, is the depth-0 sorted range a merged scan located.
	pre   []storage.Triple
	preOK bool

	// filter, when non-nil, is the key filter the program runs under.
	filter *keyFilter

	// dedup is the arm's duplicate-elimination set the bindings go to.
	dedup *dedupSet
}

// fanout is a member family's depth 1: the probe its members share and
// their dispatch table, sorted by (mask, key) — a triple reaches the
// members whose constants at their mask positions equal its own — with
// the set of masks present (bit m for mask m).
type fanout struct {
	probe storage.Pattern
	ents  []famEntry
	masks uint8
}

type famEntry struct {
	ord  [2]uint64 // dispatchKey of the member's mask and depth-1 constants
	prog *program
}

// dispatchKey packs a mask and the values of v at its positions into two
// words that order as (mask, S, P, O).
func dispatchKey(mask uint64, v [3]dict.ID) [2]uint64 {
	var k [3]uint64
	for i := range v {
		if mask>>i&1 != 0 {
			k[i] = uint64(v[i])
		}
	}
	return [2]uint64{mask<<32 | k[0], k[1]<<32 | k[2]}
}

// consts1 returns the constants of the program's depth-1 atom, if any.
func (p *program) consts1() (c [3]dict.ID) {
	if len(p.steps) > 1 {
		c = [3]dict.ID{p.steps[1].consts.S, p.steps[1].consts.P, p.steps[1].consts.O}
	}
	return c
}

// slotOf returns the slot of variable v, allotting the next one — first
// bound at depth d — when the program has not met v yet.
func (k *bindJoin) slotOf(v uint32, d int) (slot int, fresh bool) {
	for i, w := range k.vars {
		if w == v {
			return i, false
		}
	}
	k.vars, k.depth = append(k.vars, v), append(k.depth, d)
	return len(k.vars) - 1, true
}

// compile resolves cq's atoms, taken in the given order, to slot
// operations, and the head terms to output columns. Under a key filter f
// it also resolves the key columns of cq's head and marks the depth that
// binds the last of them, where walk checks the key.
func (k *bindJoin) compile(p *program, cq bgp.CQ, order []int, f *keyFilter) {
	p.steps, p.head, p.fkey, p.fdepth = p.steps[:0], p.head[:0], p.fkey[:0], -1
	k.vars, k.depth = k.vars[:0], k.depth[:0]
	for d, ai := range order {
		st := step{use: [3]int32{-1, -1, -1}, set: [3]int32{-1, -1, -1}, same: [3]int32{-1, -1, -1}}
		var consts [3]dict.ID
		before := len(k.vars)
		for i, t := range cq.Atoms[ai].Positions() {
			if !t.Var {
				consts[i] = t.Const()
				continue
			}
			switch slot, fresh := k.slotOf(t.ID, d); {
			case fresh:
				st.set[i] = int32(slot)
			case slot >= before:
				st.same[i] = int32(slot)
			default:
				st.use[i] = int32(slot)
			}
		}
		st.consts = storage.Pattern{S: consts[0], P: consts[1], O: consts[2]}
		p.steps = append(p.steps, st)
	}
	p.slots = len(k.vars)
	for _, t := range cq.Head {
		p.head = append(p.head, k.operand(t))
	}
	if f == nil {
		return
	}
	for _, c := range f.cols {
		op := k.operand(cq.Head[c])
		if op.slot >= 0 {
			p.fdepth = max(p.fdepth, k.depth[op.slot])
		}
		p.fkey = append(p.fkey, op)
	}
}

// operand resolves head term t to the slot holding it or to its constant.
// A variable no atom binds is dict.None rather than a slot nothing writes:
// a family's members share one environment, where another may write it.
func (k *bindJoin) operand(t bgp.Term) headOp {
	if !t.Var {
		return headOp{slot: -1, val: t.Const()}
	}
	for i, v := range k.vars {
		if v == t.ID {
			return headOp{slot: i}
		}
	}
	return headOp{slot: -1}
}

// admit reports whether the current binding's key is one the arm's filter
// holds — the one place a key filter is checked.
func (k *bindJoin) admit() bool {
	for i, op := range k.prog.fkey {
		if k.key[i] = op.val; op.slot >= 0 {
			k.key[i] = k.env[op.slot]
		}
	}
	if k.filter.has(k.key) {
		return true
	}
	k.m.filtered++
	return false
}

// exec sizes the run-time state for slots slots and depths depths, runs
// prog from the top and flushes the pending accounting, so a family
// boundary is always an exact point of the shared counters.
func (k *bindJoin) exec(slots, depths int) error {
	k.env, k.row = k.env[:0], k.row[:0]
	for range slots {
		k.env = append(k.env, dict.None)
	}
	for range k.prog.head {
		k.row = append(k.row, dict.None)
	}
	for len(k.hints) < depths {
		k.hints = append(k.hints, storage.Hint{})
	}
	// A key no scan contributes to (constants only) is checked here, once.
	var err error
	if k.prog.fdepth >= 0 || k.filter == nil || k.admit() {
		err = k.run(0)
	}
	if ferr := k.m.flush(); err == nil {
		err = ferr
	}
	return err
}

// run bind-joins the program from the given depth under the current
// environment: it completes the depth's probe pattern from the slots
// bound so far, asks for its sorted range and walks it; only a probe the
// snapshot cannot answer with a range (a residual filter, a pending delta
// or tombstone that may match, a span too wide to materialize) streams
// through a callback. At depth 1 of a family the probe is the family's.
func (k *bindJoin) run(depth int) error {
	fan := k.fam
	if depth != 1 {
		fan = nil
	}
	switch {
	case fan != nil && len(k.prog.steps) == 1:
		return k.dispatch(storage.Triple{})
	case fan == nil && depth == len(k.prog.steps):
		return k.out()
	}
	st := &k.prog.steps[depth]
	pat := st.consts
	if fan != nil {
		pat = fan.probe
	}
	if s := st.use[0]; s >= 0 {
		pat.S = k.env[s]
	}
	if s := st.use[1]; s >= 0 {
		pat.P = k.env[s]
	}
	if s := st.use[2]; s >= 0 {
		pat.O = k.env[s]
	}
	var ts []storage.Triple
	var ok bool
	switch snap := k.m.ctx.snap; {
	case depth > 0:
		if depth == 1 {
			k.m.probes++
		}
		ts, ok = snap.RangeFrom(pat, &k.hints[depth])
	case k.preOK:
		ts, ok = k.pre, snap.Settled(pat)
	default:
		if ts, ok = snap.RangeFrom(pat, &k.hints[0]); ok {
			k.m.ranges++
		}
	}
	if ok {
		return k.walk(depth, ts)
	}
	return k.stream(depth, pat)
}

// out projects the binding on the program's head and emits it.
func (k *bindJoin) out() error {
	for i, h := range k.prog.head {
		if k.row[i] = h.val; h.slot >= 0 {
			k.row[i] = k.env[h.slot]
		}
	}
	return k.dedup.add(&k.m, k.row)
}

// bind writes tr into the slots st sets, reporting false when tr does not
// repeat a value the atom names twice.
func (k *bindJoin) bind(st *step, tr storage.Triple) bool {
	for i, v := range [3]dict.ID{tr.S, tr.P, tr.O} {
		if s := st.set[i]; s >= 0 {
			k.env[s] = v
		} else if s := st.same[i]; s >= 0 && k.env[s] != v {
			return false
		}
	}
	return true
}

// walk joins every triple of one probe's answer with the deeper atoms,
// skipping at the depth that completes the filter key a binding whose key
// the join so far cannot match. The triples are charged ahead, a batch at
// a time.
func (k *bindJoin) walk(depth int, ts []storage.Triple) error {
	st, keyed, fan := &k.prog.steps[depth], depth == k.prog.fdepth, depth == 1 && k.fam != nil
	for len(ts) > 0 {
		n := min(len(ts), meterBatch)
		if err := k.m.scanned(n); err != nil {
			return err
		}
		for _, tr := range ts[:n] {
			var err error
			switch {
			case fan:
				err = k.dispatch(tr)
			case !k.bind(st, tr), keyed && !k.admit():
				continue
			default:
				err = k.run(depth + 1)
			}
			if err != nil {
				return err
			}
		}
		ts = ts[n:]
	}
	return nil
}

// dispatch hands one triple of a family's depth-1 probe to every member
// whose constants it matches, in (mask, key, member) order; each binds it
// with its own step, checks its key if depth 1 completes it, and goes on
// at depth 2 with its own program — or, in a family of one-atom members,
// emits its own head row.
func (k *bindJoin) dispatch(tr storage.Triple) error {
	fan, lead := k.fam, k.prog
	var err error
	for m := range uint64(8) {
		if fan.masks&(1<<m) == 0 {
			continue
		}
		want := dispatchKey(m, [3]dict.ID{tr.S, tr.P, tr.O})
		j, hi := 0, len(fan.ents)
		for j < hi {
			h := int(uint(j+hi) >> 1)
			if o := &fan.ents[h].ord; o[0] < want[0] || o[0] == want[0] && o[1] < want[1] {
				j = h + 1
			} else {
				hi = h
			}
		}
		for ; err == nil && j < len(fan.ents) && fan.ents[j].ord == want; j++ {
			p := fan.ents[j].prog
			k.prog = p
			switch {
			case len(p.steps) == 1:
				err = k.out()
			case k.bind(&p.steps[1], tr) && (p.fdepth != 1 || k.admit()):
				err = k.run(2)
			}
		}
	}
	k.prog = lead
	return err
}

// stream is walk for a probe only a scan callback can answer.
func (k *bindJoin) stream(depth int, pat storage.Pattern) error {
	var err error
	visit := func(tr storage.Triple) bool {
		one := [1]storage.Triple{tr}
		err = k.walk(depth, one[:])
		return err == nil
	}
	if snap := k.m.ctx.snap; depth == 0 && k.preOK {
		snap.ScanRange(k.pre, pat, visit)
	} else {
		snap.Scan(pat, visit)
	}
	return err
}
