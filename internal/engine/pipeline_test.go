package engine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/plancache"
	"repro/internal/reformulate"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// coverArms reformulates every fragment of c into an engine arm.
func coverArms(t *testing.T, e *testkit.Example, q bgp.CQ, c cover.Cover) []engine.ArmSource {
	t.Helper()
	arms := make([]engine.ArmSource, len(c))
	for i, f := range c {
		cq := cover.Query(q, f)
		ref, err := reformulate.Reformulate(cq, e.Closed)
		if err != nil {
			t.Fatal(err)
		}
		n := ref.NumCQs()
		arms[i] = engine.ArmSource{Vars: ref.Vars, NumCQs: n, Leaves: n * int64(len(cq.Atoms)), Each: ref.Each}
	}
	return arms
}

// coversOf returns the covers ECov enumerates for q plus, so that
// disconnected queries (which have no valid cover joining all fragments)
// are exercised too, the per-atom cover and the one-fragment-per-component
// cover, whose arms meet in cartesian products.
func coversOf(t *testing.T, q bgp.CQ) []cover.Cover {
	t.Helper()
	g, err := cover.NewGraph(q)
	if err != nil {
		t.Fatal(err)
	}
	var covers []cover.Cover
	seen := map[string]bool{}
	add := func(c cover.Cover) bool {
		if !seen[c.Key()] {
			seen[c.Key()] = true
			covers = append(covers, c)
		}
		return true
	}
	limit := 0 // every cover, except for the glued queries, which have hundreds
	if g.N() > 5 {
		limit = 6
	}
	g.EnumerateMinimal(limit, add)
	add(cover.PerAtom(g.N()))
	var comps []cover.Fragment
	var done cover.Fragment
	for i := 0; i < g.N(); i++ {
		if done.Has(i) {
			continue
		}
		f := cover.Single(i)
		for grown := true; grown; {
			grown = false
			for j := 0; j < g.N(); j++ {
				if !f.Has(j) && g.Joins(j, f) {
					f, grown = f.With(j), true
				}
			}
		}
		comps, done = append(comps, f), done|f
	}
	add(cover.NewCover(comps...))
	return covers
}

// disconnected glues two random queries over disjoint variables.
func disconnected(e *testkit.Example, rng *rand.Rand) bgp.CQ {
	a, b := testkit.RandomQuery(e, rng), testkit.RandomQuery(e, rng)
	shift := func(t bgp.Term) bgp.Term {
		if t.Var {
			t.ID += 10
		}
		return t
	}
	for _, at := range b.Atoms {
		a.Atoms = append(a.Atoms, bgp.Atom{S: shift(at.S), P: shift(at.P), O: shift(at.O)})
	}
	for _, h := range b.Head {
		a.Head = append(a.Head, shift(h))
	}
	return a
}

// Theorem 3.1 as a metamorphic relation over the arm pipeline: whatever
// cover a query is cut into, whatever order the estimates put the arms in
// and whichever filters that order makes possible, the JUCQ's answer is
// the query's answer over the saturated data — over default-size and
// 32-triple index blocks, with and without a pending delta and tombstones.
func TestArmPipelineMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		base := testkit.Random(seed, 90)
		rng := rand.New(rand.NewSource(seed + 9100))
		var queries []bgp.CQ
		for len(queries) < 4 {
			if q := testkit.RandomQuery(base, rng); len(q.Atoms) >= 2 {
				queries = append(queries, q)
			}
		}
		queries = append(queries, disconnected(base, rng), disconnected(base, rng))
		for _, smallBlocks := range []bool{false, true} {
			for _, pending := range []bool{false, true} {
				st := base.RawStore()
				if smallBlocks {
					st = rebuildCompressed(st)
				}
				e := *base
				if pending { // tombstones and joinable additions, mirrored into the oracle's data
					live := map[storage.Triple]bool{}
					for _, tr := range base.Data {
						live[tr] = true
					}
					for i := 0; i < 12; i++ {
						gone := base.Data[rng.Intn(len(base.Data))]
						st.Remove(gone)
						delete(live, gone)
						a, b := base.Data[rng.Intn(len(base.Data))], base.Data[rng.Intn(len(base.Data))]
						added := storage.Triple{S: a.S, P: b.P, O: b.O}
						st.Add(added)
						live[added] = true
					}
					e.Data = nil
					for tr := range live {
						e.Data = append(e.Data, tr)
					}
				}
				sat := e.SaturatedStore()
				eng := engine.New(st, stats.Collect(st, e.Vocab), engine.Native)
				for qi, q := range queries {
					want := naive.EvalCQ(sat, q)
					for _, c := range coversOf(t, q) {
						arms := coverArms(t, &e, q, c)
						// "As priced": each arm's true cardinality; then the
						// ranking reversed; then no estimates at all.
						sizes := make([]float64, len(arms))
						for i, a := range arms {
							rel, _, err := eng.EvalArms(a.Vars, []engine.ArmSource{a})
							if err != nil {
								t.Fatal(err)
							}
							sizes[i] = float64(rel.Len())
						}
						sorted := append([]float64(nil), sizes...)
						sort.Float64s(sorted)
						for _, est := range []string{"priced", "reversed", "none"} {
							for i := range arms {
								switch rank := sort.SearchFloat64s(sorted, sizes[i]); est {
								case "priced":
									arms[i].EstRows = sizes[i]
								case "reversed":
									arms[i].EstRows = sorted[len(sorted)-1-rank]
								default:
									arms[i].EstRows = 0
								}
							}
							name := fmt.Sprintf("seed %d smallBlocks=%v pending=%v query %d %v cover %v estimates %s", seed, smallBlocks, pending, qi, q, c, est)
							rel, _, err := eng.EvalArms(headVars(q), arms)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if got := toRows(rel); !naive.Equal(got, want) {
								t.Fatalf("%s: engine %v, naive over the saturated store %v", name, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// armSpans evaluates the arms under a trace and returns the arm spans by
// arm index with the evaluation's metrics.
func armSpans(t *testing.T, eng *engine.Engine, head []uint32, arms []engine.ArmSource) (*engine.Relation, []*trace.Span, engine.Metrics) {
	t.Helper()
	root := trace.New("test")
	rel, m, err := eng.WithSpan(root).EvalArms(head, arms)
	if err != nil {
		t.Fatal(err)
	}
	spans := make([]*trace.Span, len(arms))
	for i := range arms {
		if spans[i] = root.Find(fmt.Sprintf("arm[%d]", i)); spans[i] == nil {
			t.Fatalf("no span for arm %d", i)
		}
	}
	return rel, spans, m
}

// The filter's corner cases, each against the naive JUCQ evaluator: a key
// of two variables (a rowSet; one-variable keys are bitmaps, checked
// against the rowSet in TestKeyFilterBitmapMatchesRowSet), a key variable
// repeated inside one atom of the filtered arm, a key column that is a
// constant in some members, a key made only of constants, keys bound by
// one or by both of two variable-disjoint atoms, an empty
// first arm (the later arm must not scan a tuple), and a key set that
// outgrows the arm's estimate (the filter is given up, the answer is not).
func TestKeyFilterCornerCases(t *testing.T) {
	e := testkit.Random(3, 120)
	st := e.RawStore()
	eng := engine.New(st, stats.Collect(st, e.Vocab), engine.Native)
	props, classes := e.Closed.Properties(), e.Closed.Classes()
	typ := bgp.C(e.Vocab.Type)
	x, y, z := bgp.V(0), bgp.V(1), bgp.V(2)
	arm := func(head []bgp.Term, vars []uint32, members ...[]bgp.Atom) bgp.UCQ {
		u := bgp.UCQ{Vars: vars}
		for _, atoms := range members {
			u.CQs = append(u.CQs, bgp.CQ{Head: head, Atoms: atoms})
		}
		return u
	}
	small := arm([]bgp.Term{x, y}, []uint32{0, 1}, []bgp.Atom{{S: x, P: bgp.C(props[0]), O: y}})
	cases := map[string]bgp.JUCQ{
		"two-variable key": {Head: []uint32{0, 1, 2}, Arms: []bgp.UCQ{small,
			arm([]bgp.Term{x, y, z}, []uint32{0, 1, 2}, []bgp.Atom{{S: x, P: z, O: y}})}},
		"key variable repeated in one atom": {Head: []uint32{0, 2}, Arms: []bgp.UCQ{small,
			arm([]bgp.Term{x, z}, []uint32{0, 2}, []bgp.Atom{{S: x, P: z, O: x}}, []bgp.Atom{{S: x, P: z, O: y}})}},
		"constant key column": {Head: []uint32{0, 1}, Arms: []bgp.UCQ{
			arm([]bgp.Term{y}, []uint32{1}, []bgp.Atom{{S: bgp.V(5), P: typ, O: y}}),
			arm([]bgp.Term{x, bgp.C(classes[0])}, []uint32{0, 1}, []bgp.Atom{{S: x, P: typ, O: bgp.C(classes[0])}}),
			arm([]bgp.Term{x, bgp.C(props[0])}, []uint32{0, 1}, []bgp.Atom{{S: x, P: bgp.C(props[0]), O: z}})}},
		// Every member's key is a constant, checked once before the member
		// scans anything: a class the first arm bound, and a property no
		// subject is typed with, which drops its member unscanned.
		"key made only of constants": {Head: []uint32{0, 1}, Arms: []bgp.UCQ{
			arm([]bgp.Term{y}, []uint32{1}, []bgp.Atom{{S: bgp.V(5), P: typ, O: y}}),
			{Vars: []uint32{0, 1}, CQs: []bgp.CQ{
				{Head: []bgp.Term{x, bgp.C(classes[0])}, Atoms: []bgp.Atom{{S: x, P: typ, O: bgp.C(classes[0])}}},
				{Head: []bgp.Term{x, bgp.C(props[0])}, Atoms: []bgp.Atom{{S: x, P: bgp.C(props[0]), O: z}}}}}}},
		// Members of two variable-disjoint atoms, the key bound by the
		// first or by the second.
		"key in the first of two disjoint atoms": {Head: []uint32{0, 2}, Arms: []bgp.UCQ{small,
			arm([]bgp.Term{x, z}, []uint32{0, 2}, []bgp.Atom{{S: x, P: typ, O: bgp.V(7)}, {S: z, P: bgp.C(props[len(props)-1]), O: bgp.V(8)}})}},
		"key in the second of two disjoint atoms": {Head: []uint32{1, 2}, Arms: []bgp.UCQ{small,
			arm([]bgp.Term{z, y}, []uint32{2, 1}, []bgp.Atom{{S: z, P: typ, O: bgp.C(classes[0])}, {S: bgp.V(8), P: bgp.V(9), O: y}})}},
	}
	for name, j := range cases {
		rel, spans, _ := armSpans(t, eng, j.Head, sources(j.Arms))
		if want := naive.EvalJUCQ(st, j); !naive.Equal(toRows(rel), want) {
			t.Errorf("%s: engine %v, naive %v", name, toRows(rel), want)
		}
		var keyed int
		var dropped int64
		for _, sp := range spans {
			if _, ok := sp.IntAttr("keys"); ok {
				keyed++
			}
			n, _ := sp.IntAttr("filtered")
			dropped += n
		}
		if keyed != len(j.Arms)-1 || dropped == 0 {
			t.Errorf("%s: %d of %d arms ran under a filter, dropping %d bindings; want all but the first, and some dropped", name, keyed, len(j.Arms), dropped)
		}
	}

	// A key whose variables two variable-disjoint atoms bind is checked
	// like any other: the binding is complete at the deeper atom.
	span := bgp.JUCQ{Head: []uint32{0, 1}, Arms: []bgp.UCQ{small,
		arm([]bgp.Term{x, y}, []uint32{0, 1}, []bgp.Atom{{S: x, P: typ, O: bgp.V(7)}, {S: bgp.V(8), P: bgp.C(props[len(props)-1]), O: y}})}}
	rel, spans, _ := armSpans(t, eng, span.Head, sources(span.Arms))
	if want := naive.EvalJUCQ(st, span); !naive.Equal(toRows(rel), want) {
		t.Errorf("key spanning two disjoint atoms: engine %v, naive %v", toRows(rel), want)
	}
	if n, _ := spans[1].IntAttr("filtered"); n == 0 {
		t.Error("key spanning two disjoint atoms: no binding dropped, want the filter used")
	}

	// An empty first arm: nothing can join, so the second arm returns at
	// once — no member evaluated, no tuple scanned.
	none := arm([]bgp.Term{x}, []uint32{0}, []bgp.Atom{{S: x, P: typ, O: bgp.C(e.ID("NoSuchClass"))}})
	wide := arm([]bgp.Term{x, y}, []uint32{0, 1}, []bgp.Atom{{S: x, P: z, O: y}})
	_, _, alone := armSpans(t, eng, []uint32{0}, sources([]bgp.UCQ{none}))
	arms := sources([]bgp.UCQ{wide, none})
	arms[0].EstRows, arms[1].EstRows = 1000, 1
	var m engine.Metrics
	rel, spans, m = armSpans(t, eng, []uint32{0, 1}, arms)
	if rel.Len() != 0 || m.TuplesScanned != alone.TuplesScanned || m.UnionArms != 1 {
		t.Errorf("empty first arm: %d rows, metrics %+v; want no rows and only the first arm's scan (%d tuples, 1 member)", rel.Len(), m, alone.TuplesScanned)
	}
	if order, _ := spans[0].IntAttr("order"); order != 1 {
		t.Errorf("the arm estimated larger ran at position %d, want 1", order)
	}

	// More keys than the filtered arm is estimated to produce: the filter
	// is dropped and the answer is unchanged.
	j := cases["two-variable key"]
	arms = sources(j.Arms)
	arms[0].EstRows, arms[1].EstRows = 1, 2
	rel, spans, _ = armSpans(t, eng, j.Head, arms)
	if want := naive.EvalJUCQ(st, j); !naive.Equal(toRows(rel), want) {
		t.Errorf("dropped filter: engine %v, naive %v", toRows(rel), want)
	}
	if _, ok := spans[1].IntAttr("keys"); ok {
		t.Errorf("arm estimated at 2 rows ran under a larger key set: attrs %v", spans[1].Attrs())
	}
}

// BenchmarkArmPipeline measures the arm pipeline on the covers GCov chooses
// for the six serve_join queries — at the default small scale, Q01 (a
// 528-member arm filtered by a one-row arm), Q09 (the 176-member type arm
// filtered by the advisors of a five-atom arm), Q13 and Q23 (hundreds of
// members sharing their depth-0 atom, evaluated as member families), Q08
// and Q18 — and for the two large-answer queries of lib_cold, Q02 and Q28
// (two type variables, whose final projection deduplicates tens of
// thousands of rows): one worker, the plan warm in a plan cache, so an
// operation is one evaluation — every arm, key set, join and the
// projection — plus a cache hit. REPRO_BENCH_SCALE picks another scale.
// rows/op is the answer size.
func BenchmarkArmPipeline(b *testing.B) {
	scale, err := benchkit.EnvScale(benchkit.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	db, err := benchkit.BuildLUBM(scale)
	if err != nil {
		b.Fatal(err)
	}
	a := db.Answerer(engine.Native, core.Options{PlanCache: plancache.New(16)})
	for _, name := range []string{"Q01", "Q08", "Q09", "Q13", "Q18", "Q23", "Q02", "Q28"} {
		q := db.Encoded[db.QueryIndex(name)]
		b.Run(name, func(b *testing.B) {
			ans, err := a.Answer(q, core.GCov)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ans, err = a.Answer(q, core.GCov); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ans.Rel.Len()), "rows/op")
		})
	}
}
