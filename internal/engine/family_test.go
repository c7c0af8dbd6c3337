package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// The vocabulary of familyStore.
const (
	fType, fKnows, fWorks, fSelf = dict.ID(1), dict.ID(2), dict.ID(3), dict.ID(300)
	cAll, cEven, cThird, cNone   = dict.ID(10), dict.ID(11), dict.ID(12), dict.ID(99)
)

// familyStore builds 40 subjects typed cAll, every second one also cEven
// and every third cThird, each knowing the next (every fifth knowing
// itself too) and working for one of four departments, with every seventh
// carrying a (s, fSelf, fSelf) triple whose property is its own object.
func familyStore() *storage.Store {
	b := storage.NewBuilder()
	for i := 0; i < 40; i++ {
		s := dict.ID(100 + i)
		b.Add(storage.Triple{S: s, P: fType, O: cAll})
		if i%2 == 0 {
			b.Add(storage.Triple{S: s, P: fType, O: cEven})
		}
		if i%3 == 0 {
			b.Add(storage.Triple{S: s, P: fType, O: cThird})
		}
		b.Add(storage.Triple{S: s, P: fKnows, O: dict.ID(100 + (i+1)%40)})
		if i%5 == 0 {
			b.Add(storage.Triple{S: s, P: fKnows, O: s})
		}
		b.Add(storage.Triple{S: s, P: fWorks, O: dict.ID(200 + i%4)})
		if i%7 == 0 {
			b.Add(storage.Triple{S: s, P: fSelf, O: fSelf})
		}
	}
	return b.Build()
}

// pend leaves additions and tombstones pending on st where the families'
// wide (x, ?, ?) probes reach them, so those probes stream.
func pend(st *storage.Store) {
	st.Add(storage.Triple{S: 103, P: fKnows, O: 139})
	st.Add(storage.Triple{S: 103, P: fType, O: cEven})
	st.Add(storage.Triple{S: 109, P: fSelf, O: fSelf})
	st.Remove(storage.Triple{S: 100, P: fKnows, O: 101})
	st.Remove(storage.Triple{S: 106, P: fType, O: cEven})
}

// Member families must answer exactly as the naive evaluator does, on the
// shapes their grouping and dispatch have a case for, over the flat and
// the frozen representation, with and without pending additions and
// tombstones under the wide probes — and must form: one family per case,
// one depth-1 probe per depth-0 binding.
func TestFamiliesMatchNaive(t *testing.T) {
	x, y, z := bgp.V(0), bgp.V(1), bgp.V(2)
	c := bgp.C
	third := bgp.Atom{S: x, P: c(fType), O: c(cThird)}
	self := bgp.Atom{S: x, P: c(fKnows), O: x}
	none := bgp.Atom{S: x, P: c(fType), O: c(cNone)}
	typed := func(class dict.ID) bgp.Atom { return bgp.Atom{S: x, P: c(fType), O: c(class)} }
	cq := func(head []bgp.Term, atoms ...bgp.Atom) bgp.CQ { return bgp.CQ{Head: head, Atoms: atoms} }
	cases := []struct {
		name    string
		open    bgp.Atom // the depth-0 atom the members share
		members []bgp.CQ
	}{
		{"members differing only in head constants", third, []bgp.CQ{
			cq([]bgp.Term{x, c(cAll)}, third), cq([]bgp.Term{x, c(cEven)}, third), cq([]bgp.Term{x, x}, third)}},
		{"depth-1 object constants", third, []bgp.CQ{
			cq([]bgp.Term{x, c(cAll)}, third, typed(cAll)), cq([]bgp.Term{x, c(cEven)}, third, typed(cEven)),
			cq([]bgp.Term{x, c(cAll)}, third, typed(cEven))}},
		{"depth-1 predicate constants", third, []bgp.CQ{
			cq([]bgp.Term{x, y}, third, bgp.Atom{S: x, P: c(fKnows), O: y}),
			cq([]bgp.Term{x, y}, third, bgp.Atom{S: x, P: c(fWorks), O: y})}},
		{"constant and variable objects", third, []bgp.CQ{
			cq([]bgp.Term{x, c(cEven)}, third, typed(cEven)),
			cq([]bgp.Term{x, y}, third, bgp.Atom{S: x, P: c(fType), O: y}),
			cq([]bgp.Term{y, x}, third, bgp.Atom{S: x, P: c(fKnows), O: y})}},
		{"repeated variable in the shared atom", self, []bgp.CQ{
			cq([]bgp.Term{x, c(cAll)}, self, typed(cAll)), cq([]bgp.Term{x, c(cEven)}, self, typed(cEven)),
			cq([]bgp.Term{x, y}, self, bgp.Atom{S: x, P: c(fWorks), O: y})}},
		{"repeated variable in the dispatched atom", third, []bgp.CQ{
			cq([]bgp.Term{x, z}, third, bgp.Atom{S: x, P: z, O: z}),
			cq([]bgp.Term{x, y}, third, bgp.Atom{S: x, P: c(fKnows), O: y})}},
		{"empty depth-0 range", none, []bgp.CQ{
			cq([]bgp.Term{x, c(cAll)}, none, typed(cAll)), cq([]bgp.Term{x, y}, none, bgp.Atom{S: x, P: c(fKnows), O: y})}},
	}
	for _, frozen := range []bool{false, true} {
		for _, pending := range []bool{false, true} {
			st := familyStore()
			if frozen {
				st = rebuildCompressed(st)
			}
			eng := engine.New(st, stats.Collect(st, schema.Vocab{}), engine.Native) // before pend: Collect's pass compacts
			if pending {
				pend(st)
			}
			for _, tc := range cases {
				name := fmt.Sprintf("frozen=%v pending=%v %s", frozen, pending, tc.name)
				u := bgp.UCQ{Vars: []uint32{1000, 1001}, CQs: tc.members}
				rel, spans, _ := armSpans(t, eng, u.Vars, sources([]bgp.UCQ{u}))
				if got, want := toRows(rel), naive.EvalUCQ(st, u); !naive.Equal(got, want) {
					t.Fatalf("%s: engine %v, naive %v", name, got, want)
				}
				bindings := int64(len(naive.EvalCQ(st, bgp.CQ{Head: []bgp.Term{x}, Atoms: []bgp.Atom{tc.open}})))
				if len(tc.members[0].Atoms) == 1 {
					bindings = 0
				}
				fams, _ := spans[0].IntAttr("families")
				probes, _ := spans[0].IntAttr("family_probes")
				if fams != 1 || probes != bindings {
					t.Errorf("%s: %d families issuing %d depth-1 probes, want 1 issuing one per binding (%d)", name, fams, probes, bindings)
				}
			}
		}
	}
}

// A key filter is checked where each member's key is complete: once per
// binding of a family whose members all complete it at depth 0, per
// dispatched triple for members completing it at depth 1, and once per
// family for members whose key is all constants — a key outside the set
// (cNone) drops that member from the family before its scan.
func TestFamilyKeyFilterDepths(t *testing.T) {
	a, x := bgp.V(0), bgp.V(1)
	c := bgp.C
	third := func(v bgp.Term) bgp.Atom { return bgp.Atom{S: v, P: c(fType), O: c(cThird)} }
	keys := bgp.UCQ{Vars: []uint32{0}, CQs: []bgp.CQ{
		{Head: []bgp.Term{a}, Atoms: []bgp.Atom{{S: a, P: c(fWorks), O: c(200)}}},
		{Head: []bgp.Term{c(101)}},
	}}
	arm := bgp.UCQ{Vars: []uint32{0, 1}, CQs: []bgp.CQ{
		{Head: []bgp.Term{a, c(cAll)}, Atoms: []bgp.Atom{third(a), {S: a, P: c(fType), O: c(cAll)}}},
		{Head: []bgp.Term{a, c(cEven)}, Atoms: []bgp.Atom{third(a), {S: a, P: c(fType), O: c(cEven)}}},
		{Head: []bgp.Term{a, x}, Atoms: []bgp.Atom{third(x), {S: x, P: c(fKnows), O: a}}},
		{Head: []bgp.Term{a, x}, Atoms: []bgp.Atom{third(x), {S: x, P: c(fWorks), O: a}}},
		{Head: []bgp.Term{c(101), x}, Atoms: []bgp.Atom{third(x), {S: x, P: c(fType), O: c(cAll)}}},
		{Head: []bgp.Term{c(cNone), x}, Atoms: []bgp.Atom{third(x), {S: x, P: c(fType), O: c(cEven)}}},
	}}
	j := bgp.JUCQ{Head: []uint32{0, 1}, Arms: []bgp.UCQ{keys, arm}}
	for _, frozen := range []bool{false, true} {
		st := familyStore()
		if frozen {
			st = rebuildCompressed(st)
		}
		eng := engine.New(st, stats.Collect(st, schema.Vocab{}), engine.Native)
		arms := sources(j.Arms)
		arms[0].EstRows, arms[1].EstRows = 1, 1e6
		rel, spans, _ := armSpans(t, eng, j.Head, arms)
		if got, want := toRows(rel), naive.EvalJUCQ(st, j); !naive.Equal(got, want) || len(want) == 0 {
			t.Fatalf("frozen=%v: engine %v, naive %v", frozen, got, want)
		}
		fams, _ := spans[1].IntAttr("families")
		dropped, _ := spans[1].IntAttr("filtered")
		if _, keyed := spans[1].IntAttr("keys"); !keyed || fams != 2 || dropped == 0 {
			t.Errorf("frozen=%v: arm ran in %d families dropping %d bindings (filtered: %v); want 2 families under the filter, some dropped", frozen, fams, dropped, keyed)
		}
	}
}

// Random reformulated UCQs — many near-identical members, so families of
// every shape the generator reaches — over the flat and the frozen
// representation must answer as the naive evaluator does over the
// saturated store.
func TestRandomUCQFamiliesMatchSaturation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 80)
		sat := e.SaturatedStore()
		rng := rand.New(rand.NewSource(seed + 2500))
		var queries []bgp.CQ
		for i := 0; i < 4; i++ {
			queries = append(queries, testkit.RandomQuery(e, rng))
		}
		for _, frozen := range []bool{false, true} {
			st := e.RawStore()
			if frozen {
				st = rebuildCompressed(st)
			}
			eng := engine.New(st, stats.Collect(st, e.Vocab), engine.Native)
			for qi, q := range queries {
				u, err := mustReformulate(q, e.Closed).UCQ(100000)
				if err != nil {
					t.Fatal(err)
				}
				rel, _, err := eng.EvalArms(headVars(q), sources([]bgp.UCQ{u}))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := toRows(rel), naive.EvalCQ(sat, q); !naive.Equal(got, want) {
					t.Fatalf("seed %d frozen=%v query %d %v: engine %v, naive over the saturated store %v", seed, frozen, qi, q, got, want)
				}
			}
		}
	}
}

// An arm's depth-0 scan goes to the snapshot on every evaluation. Where
// the pattern has a pending addition and a tombstone inside it, the
// snapshot cannot hand the scan out as a range and it streams, merging
// the delta; repeating the scan in later arms must not change that. One
// single-member arm, and three arms opening with that same atom, answer
// as the naive evaluator does, on both representations, with and without
// the shared-scan layer.
func TestDepthZeroScanWithDeltaMatchesNaive(t *testing.T) {
	x, y := bgp.V(0), bgp.V(1)
	c := bgp.C
	open := bgp.Atom{S: x, P: c(fType), O: c(cEven)} // pend adds (103, type, cEven), removes (106, type, cEven)
	arm := func(second bgp.Atom) bgp.UCQ {
		return bgp.UCQ{Vars: []uint32{0, 1}, CQs: []bgp.CQ{{Head: []bgp.Term{x, y}, Atoms: []bgp.Atom{open, second}}}}
	}
	one := bgp.JUCQ{Head: []uint32{0, 1}, Arms: []bgp.UCQ{arm(bgp.Atom{S: x, P: c(fKnows), O: y})}}
	three := bgp.JUCQ{Head: []uint32{0, 1}, Arms: []bgp.UCQ{
		arm(bgp.Atom{S: x, P: c(fKnows), O: y}),
		arm(bgp.Atom{S: x, P: c(fKnows), O: y}),
		arm(bgp.Atom{S: y, P: c(fKnows), O: x}),
	}}
	for _, frozen := range []bool{false, true} {
		st := familyStore()
		if frozen {
			st = rebuildCompressed(st)
		}
		sts := stats.Collect(st, schema.Vocab{}) // before pend: Collect's pass compacts
		pend(st)
		for _, shared := range []bool{true, false} {
			eng := engine.New(st, sts, engine.Native).WithSharedScan(shared)
			for name, j := range map[string]bgp.JUCQ{"one arm": one, "three arms": three} {
				root := trace.New("test")
				rel, _, err := eng.WithSpan(root).EvalArms(j.Head, sources(j.Arms))
				if err != nil {
					t.Fatal(err)
				}
				want := naive.EvalJUCQ(st, j)
				if got := toRows(rel); !naive.Equal(got, want) || len(want) == 0 {
					t.Fatalf("frozen=%v shared=%v %s: engine %v, naive %v", frozen, shared, name, got, want)
				}
				if got := root.Registry().Snapshot()["snapshot_ranges"]; got != 0 {
					t.Errorf("frozen=%v shared=%v %s: %d depth-0 scans came back as ranges; the delta must make them stream", frozen, shared, name, got)
				}
			}
		}
	}
}
