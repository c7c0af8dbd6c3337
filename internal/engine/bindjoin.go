package engine

import (
	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/storage"
)

// This file is the engine's one bind-join loop. A member CQ (or one
// variable-disjoint segment of it, on the factorized path) is compiled
// against its join order into a small program — per atom position: a
// constant, a slot bound at an earlier depth, a slot first bound here, or
// a repeat of a slot bound earlier in the same atom — and run over the
// pinned snapshot with a []dict.ID environment: no map, no undo stack and
// no closure on the path where the snapshot hands back sorted ranges,
// which is every probe of a covering index outside the pending delta.

// step is one atom of the compiled program, at its depth of the join
// order. Per position (S, P, O) at most one of use/set/same names a slot;
// a position with none is a constant, already in consts.
type step struct {
	consts storage.Pattern
	use    [3]int // slot bound at an earlier depth: completes the probe pattern
	set    [3]int // slot first bound here: takes the scanned tuple's value
	same   [3]int // slot set at an earlier position of this atom: the tuple must repeat it
}

// headOp fills one output column: a slot's value, or val when slot < 0.
// A head variable no atom binds gets a slot nothing writes (dict.None).
type headOp struct {
	slot int
	val  dict.ID
}

// meterBatch bounds the work a worker holds back from the shared
// counters: pending units are flushed once they reach it, and a range is
// charged ahead in slices of at most this many tuples, so never more than
// 2·meterBatch < 4,096 units are unflushed and cancellation and the work
// budget keep their poll granularity.
const meterBatch = 1024

// meter is one worker's pending share of the evaluation's accounting:
// plain fields that worker alone touches, folded into evalCtx's shared
// atomics a batch at a time (and at the end of every member) instead of
// twice per scanned tuple. Success-path totals are exactly the per-tuple
// ones; a failing evaluation may read up to a batch ahead of or behind
// the tuple that tripped it.
type meter struct {
	ctx                   *evalCtx
	work, tuples, deduped int64
	hits, misses, ranges  int64 // shared-scan observability
	filtered              int64 // bindings the arm's key filter dropped
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
	c.scanHits.Add(m.hits)
	c.scanMisses.Add(m.misses)
	c.snapRanges.Add(m.ranges)
	c.filtered.Add(m.filtered)
	*m = meter{ctx: c}
	if w == 0 {
		return nil
	}
	return c.charge(w)
}

// bindJoin is the compiled program of the member a worker is evaluating
// plus its run-time state, kept in the worker's armScratch and reused
// member after member: steady-state evaluation allocates nothing beyond
// the fresh answer rows.
type bindJoin struct {
	m     meter
	steps []step
	head  []headOp
	vars  []uint32       // variable of each slot, for compile's lookups
	depth []int          // depth at which each slot is first bound
	env   []dict.ID      // value of each slot
	row   []dict.ID      // the output row under construction
	hints []storage.Hint // per-depth probe memory (see storage.Hint)

	// pre, when preOK, is the depth-0 sorted range a merged scan located.
	pre   []storage.Triple
	preOK bool

	// filter, when non-nil, is the key filter the program runs under: fkey
	// fills key with the binding's value for each key column, which is
	// complete once depth fdepth has bound its tuple (-1: before any).
	filter *keyFilter
	fkey   []headOp
	fdepth int
	key    []dict.ID // the key under construction, constants filled in

	// Where bindings go: the arm's dedup set, or — for a factorized
	// segment — emit, with tuples counting the segment's scan.
	dedup  *dedupSet
	emit   func([]dict.ID)
	tuples int64
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
// operations, leaving the output columns to project. Under a key filter
// it also resolves the key columns of cq's head and marks the depth that
// binds the last of them, where walk checks the key.
func (k *bindJoin) compile(cq bgp.CQ, order []int, f *keyFilter) {
	k.steps, k.head, k.vars, k.depth = k.steps[:0], k.head[:0], k.vars[:0], k.depth[:0]
	for d, ai := range order {
		st := step{use: [3]int{-1, -1, -1}, set: [3]int{-1, -1, -1}, same: [3]int{-1, -1, -1}}
		var consts [3]dict.ID
		before := len(k.vars)
		for i, t := range cq.Atoms[ai].Positions() {
			if !t.Var {
				consts[i] = t.Const()
				continue
			}
			switch slot, fresh := k.slotOf(t.ID, d); {
			case fresh:
				st.set[i] = slot
			case slot >= before:
				st.same[i] = slot
			default:
				st.use[i] = slot
			}
		}
		st.consts = storage.Pattern{S: consts[0], P: consts[1], O: consts[2]}
		k.steps = append(k.steps, st)
	}
	k.filter, k.fkey, k.key, k.fdepth = f, k.fkey[:0], k.key[:0], -1
	if f == nil {
		return
	}
	for _, c := range f.cols {
		op := k.operand(cq.Head[c])
		if op.slot >= 0 {
			k.fdepth = max(k.fdepth, k.depth[op.slot])
		}
		k.fkey, k.key = append(k.fkey, op), append(k.key, op.val)
	}
}

// operand resolves head term t to the slot holding it or to its constant.
func (k *bindJoin) operand(t bgp.Term) headOp {
	if !t.Var {
		return headOp{slot: -1, val: t.Const()}
	}
	slot, _ := k.slotOf(t.ID, -1)
	return headOp{slot: slot}
}

// project appends one output column holding head term t.
func (k *bindJoin) project(t bgp.Term) { k.head = append(k.head, k.operand(t)) }

// admit reports whether the current binding's key is one the arm's filter
// holds — the one place a key filter is checked.
func (k *bindJoin) admit() bool {
	for i, op := range k.fkey {
		if op.slot >= 0 {
			k.key[i] = k.env[op.slot]
		}
	}
	if k.filter.set.has(k.key) {
		return true
	}
	k.m.filtered++
	return false
}

// exec sizes the run-time state for the compiled program, runs it from
// the top and flushes the worker's pending accounting, so a member
// boundary is always an exact point of the shared counters.
func (k *bindJoin) exec() error {
	k.env, k.row = k.env[:0], k.row[:0]
	for range k.vars {
		k.env = append(k.env, dict.None)
	}
	for range k.head {
		k.row = append(k.row, dict.None)
	}
	for len(k.hints) < len(k.steps) {
		k.hints = append(k.hints, storage.Hint{})
	}
	// A key no scan contributes to (constants only) is checked here, once.
	var err error
	if k.fdepth >= 0 || k.filter == nil || k.admit() {
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
// through a callback.
func (k *bindJoin) run(depth int) error {
	if depth == len(k.steps) {
		for i, h := range k.head {
			if k.row[i] = h.val; h.slot >= 0 {
				k.row[i] = k.env[h.slot]
			}
		}
		if k.emit != nil {
			k.emit(k.row)
			return nil
		}
		return k.dedup.add(&k.m, k.row)
	}
	st := &k.steps[depth]
	pat := st.consts
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
	switch c := k.m.ctx; {
	case depth > 0:
		ts, ok = c.snap.RangeFrom(pat, &k.hints[depth])
	case k.preOK:
		ts, ok = k.pre, c.snap.Settled(pat)
	default:
		ts, ok = c.scanPattern(&k.m, pat, &k.hints[0])
	}
	if ok {
		return k.walk(depth, ts)
	}
	return k.stream(depth, pat)
}

// walk joins every triple of one probe's answer with the deeper atoms,
// skipping at the depth that completes the filter key a binding whose key
// the join so far cannot match. The triples are charged ahead, a batch at
// a time.
func (k *bindJoin) walk(depth int, ts []storage.Triple) error {
	st, env, keyed := &k.steps[depth], k.env, depth == k.fdepth
	for len(ts) > 0 {
		n := min(len(ts), meterBatch)
		k.tuples += int64(n)
		if err := k.m.scanned(n); err != nil {
			return err
		}
	tuples:
		for _, tr := range ts[:n] {
			for i, v := range [3]dict.ID{tr.S, tr.P, tr.O} {
				if s := st.set[i]; s >= 0 {
					env[s] = v
				} else if s := st.same[i]; s >= 0 && env[s] != v {
					continue tuples
				}
			}
			if keyed && !k.admit() {
				continue
			}
			if err := k.run(depth + 1); err != nil {
				return err
			}
		}
		ts = ts[n:]
	}
	return nil
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
