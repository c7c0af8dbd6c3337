package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/reformulate"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// answererFor builds an answerer (raw + saturated engines) for a fixture.
func answererFor(e *testkit.Example, prof engine.Profile, opts core.Options) *core.Answerer {
	raw := e.RawStore()
	sat := e.SaturatedStore()
	rawEng := engine.New(raw, stats.Collect(raw, e.Vocab), prof)
	satEng := engine.New(sat, stats.Collect(sat, e.Vocab), prof)
	return core.NewAnswerer(e.Closed, rawEng, satEng, opts)
}

func relRows(r *engine.Relation) naive.Rows {
	out := make(map[string]naive.Row)
	for _, row := range r.Rows {
		k := ""
		for _, v := range row {
			k += string([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
		out[k] = naive.Row(row)
	}
	rows := make(naive.Rows, 0, len(out))
	for _, row := range out {
		rows = append(rows, row)
	}
	// Insertion sort: answer sets in the tests are small.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0; j-- {
			less := false
			for k := range rows[j] {
				if rows[j][k] != rows[j-1][k] {
					less = rows[j][k] < rows[j-1][k]
					break
				}
			}
			if !less {
				break
			}
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	return rows
}

// All five strategies must return the same answer set — the end-to-end
// statement of Theorem 3.1 plus saturation/reformulation equivalence —
// across random databases, queries and engine profiles.
func TestStrategiesAgree(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		e := testkit.Random(seed, 50)
		a := answererFor(e, engine.Native, core.Options{})
		rng := rand.New(rand.NewSource(seed + 2000))
		for qi := 0; qi < 4; qi++ {
			q := testkit.RandomQuery(e, rng)
			if !coverableQuery(q) {
				continue
			}
			var want naive.Rows
			for i, strat := range core.Strategies() {
				ans, err := a.Answer(q, strat)
				if err != nil {
					t.Fatalf("seed %d %s on %s: %v", seed, strat, q, err)
				}
				got := relRows(ans.Rel)
				if i == 0 {
					want = got
					continue
				}
				if !naive.Equal(got, want) {
					t.Errorf("seed %d: %s disagrees on %s:\n got %v\nwant %v",
						seed, strat, q, got, want)
				}
			}
		}
	}
}

// coverableQuery reports whether the query fits the cover framework:
// connected atoms, non-empty all-variable head.
func coverableQuery(q bgp.CQ) bool {
	if len(q.Head) == 0 {
		return false
	}
	for _, h := range q.Head {
		if !h.Var {
			return false
		}
	}
	g := mustGraph(q)
	whole := cover.WholeQuery(len(q.Atoms))
	return g.FragmentConnected(whole[0])
}

// Every enumerated cover of a query must produce the same answers as the
// UCQ reformulation (Theorem 3.1, checked over the whole space).
func TestEveryCoverEquivalent(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		e := testkit.Random(seed, 40)
		a := answererFor(e, engine.Native, core.Options{})
		rng := rand.New(rand.NewSource(seed + 3100))
		q := testkit.RandomQuery(e, rng)
		if !coverableQuery(q) || len(q.Atoms) < 2 {
			continue
		}
		wantAns, err := a.Answer(q, core.UCQ)
		if err != nil {
			t.Fatal(err)
		}
		want := relRows(wantAns.Rel)
		g := mustGraph(q)
		checked := 0
		g.EnumerateMinimal(50, func(c cover.Cover) bool {
			ans, err := a.EvaluateCover(q, c, core.Report{Strategy: "fixed", Cover: c})
			if err != nil {
				t.Errorf("seed %d cover %v: %v", seed, c, err)
				return false
			}
			if !naive.Equal(relRows(ans.Rel), want) {
				t.Errorf("seed %d: cover %v of %s gives different answers", seed, c, q)
				return false
			}
			checked++
			return true
		})
		if checked == 0 {
			t.Errorf("seed %d: no covers checked", seed)
		}
	}
}

// A cover evaluated on its own runs as it runs when a strategy chooses
// it: EvaluateCover of GCov's cover for tiny LUBM Q09 (several arms, so
// arm order and key filters follow the estimates) does the same engine
// work as Answer with GCov.
func TestEvaluateCoverRunsAsChosen(t *testing.T) {
	db, err := benchkit.BuildLUBM(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	a := db.Answerer(engine.Native, core.Options{})
	q := db.Encoded[db.QueryIndex("Q09")]
	chosen, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen.Report.Cover) < 2 {
		t.Fatalf("Q09's cover %v has one arm; the test wants several", chosen.Report.Cover)
	}
	fixed, err := a.EvaluateCover(q, chosen.Report.Cover, core.Report{Strategy: "fixed", Cover: chosen.Report.Cover})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Report.Metrics != chosen.Report.Metrics {
		t.Errorf("EvaluateCover metrics %+v, Answer metrics %+v", fixed.Report.Metrics, chosen.Report.Metrics)
	}
	if !naive.Equal(relRows(fixed.Rel), relRows(chosen.Rel)) {
		t.Error("EvaluateCover and Answer disagree on the answers")
	}
}

// The motivating-example shape: grouping a selective triple with an
// unselective one must be estimated cheaper than SCQ when the data
// supports it — here we just require the chosen GCov cover to be valid
// and its estimated cost to be no worse than both fixed covers.
func TestGCovNeverWorseThanFixedCovers(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 60)
		a := answererFor(e, engine.Native, core.Options{})
		rng := rand.New(rand.NewSource(seed + 4000))
		q := testkit.RandomQuery(e, rng)
		if !coverableQuery(q) {
			continue
		}
		_, ucqRep, err := a.ChooseCover(q, core.UCQ)
		if err != nil {
			t.Fatal(err)
		}
		_, scqRep, err := a.ChooseCover(q, core.SCQ)
		if err != nil {
			t.Fatal(err)
		}
		gc, gRep, err := a.ChooseCover(q, core.GCov)
		if err != nil {
			t.Fatal(err)
		}
		g := mustGraph(q)
		if !g.Valid(gc) {
			t.Errorf("seed %d: GCov chose invalid cover %v for %s", seed, gc, q)
		}
		// GCov starts from the SCQ cover, so it can never be worse than
		// SCQ under its own estimate; UCQ is in ECov's space but not
		// necessarily reachable by GCov moves, so only check SCQ.
		if gRep.EstimatedCost > scqRep.EstimatedCost+1e-6 {
			t.Errorf("seed %d: GCov cost %v worse than SCQ %v", seed, gRep.EstimatedCost, scqRep.EstimatedCost)
		}
		_ = ucqRep
	}
}

// ECov must never pick a cover with a higher estimate than GCov's (its
// space includes everything GCov reaches, minus the non-minimal covers;
// both include SCQ and UCQ).
func TestECovAtLeastAsGoodAsFixed(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 60)
		a := answererFor(e, engine.Native, core.Options{})
		rng := rand.New(rand.NewSource(seed + 5000))
		q := testkit.RandomQuery(e, rng)
		if !coverableQuery(q) {
			continue
		}
		_, eRep, err := a.ChooseCover(q, core.ECov)
		if err != nil {
			t.Fatal(err)
		}
		if !eRep.Exhaustive {
			continue
		}
		for _, fixed := range []core.Strategy{core.UCQ, core.SCQ} {
			_, rep, err := a.ChooseCover(q, fixed)
			if err != nil {
				t.Fatal(err)
			}
			if eRep.EstimatedCost > rep.EstimatedCost+1e-6 {
				t.Errorf("seed %d: ECov cost %v worse than %s cost %v on %s",
					seed, eRep.EstimatedCost, fixed, rep.EstimatedCost, q)
			}
		}
	}
}

func TestSaturationRequiresStore(t *testing.T) {
	e := testkit.Paper()
	raw := e.RawStore()
	rawEng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
	a := core.NewAnswerer(e.Closed, rawEng, nil, core.Options{})
	q := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.V(1)}},
	}
	if _, err := a.Answer(q, core.Saturation); !errors.Is(err, core.ErrNoSaturatedStore) {
		t.Errorf("err = %v, want ErrNoSaturatedStore", err)
	}
}

func TestBadQueriesRejected(t *testing.T) {
	e := testkit.Paper()
	a := answererFor(e, engine.Native, core.Options{})
	bad := []bgp.CQ{
		{},
		{Head: []bgp.Term{bgp.V(0)}}, // no atoms
		{Head: []bgp.Term{bgp.C(5)}, Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}}},
	}
	for i, q := range bad {
		if _, _, err := a.ChooseCover(q, core.GCov); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

// Boolean (empty-head) queries are legal and answer {()} or {} under
// every strategy.
func TestBooleanQueries(t *testing.T) {
	e := testkit.Paper()
	a := answererFor(e, engine.Native, core.Options{})
	// "Is anything implicitly a Publication?" — true only by reasoning.
	yes := bgp.CQ{Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.C(e.ID("Publication"))}}}
	no := bgp.CQ{Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.ID("unusedProp")), O: bgp.V(1)}}}
	for _, strat := range core.Strategies() {
		ansYes, err := a.Answer(yes, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if ansYes.Rel.Len() != 1 {
			t.Errorf("%s: boolean true query returned %d rows, want 1", strat, ansYes.Rel.Len())
		}
		ansNo, err := a.Answer(no, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if ansNo.Rel.Len() != 0 {
			t.Errorf("%s: boolean false query returned %d rows, want 0", strat, ansNo.Rel.Len())
		}
	}
}

func TestReportFields(t *testing.T) {
	e := testkit.Paper()
	a := answererFor(e, engine.Native, core.Options{})
	q := bgp.CQ{
		Head: []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{
			{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.V(1)},
			{S: bgp.V(0), P: bgp.C(e.ID("writtenBy")), O: bgp.V(2)},
		},
	}
	ans, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	rep := ans.Report
	if rep.Strategy != core.GCov {
		t.Error("strategy not recorded")
	}
	if rep.Cover == nil || rep.CoversExplored < 1 {
		t.Error("cover search not reported")
	}
	if len(rep.FragmentCQs) != len(rep.Cover) {
		t.Error("per-fragment counts missing")
	}
	if rep.TotalCQs < 1 || rep.EstimatedCost <= 0 {
		t.Errorf("TotalCQs=%d EstimatedCost=%v", rep.TotalCQs, rep.EstimatedCost)
	}
}

// The engine-internal cost source must drive the search without changing
// answers.
func TestEngineInternalCostSource(t *testing.T) {
	e := testkit.Random(3, 50)
	own := answererFor(e, engine.Native, core.Options{Source: core.OwnModel})
	internal := answererFor(e, engine.Native, core.Options{Source: core.EngineInternal})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		q := testkit.RandomQuery(e, rng)
		if !coverableQuery(q) {
			continue
		}
		a1, err := own.Answer(q, core.GCov)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := internal.Answer(q, core.GCov)
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(relRows(a1.Rel), relRows(a2.Rel)) {
			t.Errorf("cost sources changed the answers for %s", q)
		}
	}
}

func TestCalibrateProducesPositiveParams(t *testing.T) {
	e := testkit.Random(7, 200)
	raw := e.RawStore()
	eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.PostgresLike)
	p := core.Calibrate(eng)
	if p.CT <= 0 || p.CJ <= 0 || p.CM <= 0 || p.CL <= 0 || p.CDB <= 0 {
		t.Errorf("calibration produced non-positive constants: %s", p)
	}
	if p.Provenance != "calibrated" {
		t.Errorf("provenance = %q, want calibrated", p.Provenance)
	}
	if p.NestedLoopArmJoin {
		t.Error("hash-join profile calibrated as nested-loop")
	}
	mysql := engine.New(raw, stats.Collect(raw, e.Vocab), engine.MySQLLike)
	if !core.Calibrate(mysql).NestedLoopArmJoin {
		t.Error("nested-loop profile not flagged")
	}
}

// The reformulation-count bookkeeping in reports must match the direct
// reformulation of each cover query.
func TestFragmentCQCountsMatch(t *testing.T) {
	e := testkit.Paper()
	a := answererFor(e, engine.Native, core.Options{})
	q := bgp.CQ{
		Head: []bgp.Term{bgp.V(0), bgp.V(1)},
		Atoms: []bgp.Atom{
			{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.V(1)},
			{S: bgp.V(0), P: bgp.C(e.ID("hasTitle")), O: bgp.V(2)},
		},
	}
	c, rep, err := a.ChooseCover(q, core.SCQ)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range c {
		sub := cover.Query(q, f)
		want := mustReformulate(sub, e.Closed).NumCQs()
		if rep.FragmentCQs[i] != want {
			t.Errorf("fragment %v: reported %d CQs, want %d", f, rep.FragmentCQs[i], want)
		}
	}
}

// mustGraph and mustReformulate wrap the error-returning APIs for test
// queries that are well-formed by construction.
func mustGraph(q bgp.CQ) *cover.Graph {
	g, err := cover.NewGraph(q)
	if err != nil {
		panic(err)
	}
	return g
}

func mustReformulate(q bgp.CQ, sch *schema.Closed) *reformulate.Reformulation {
	r, err := reformulate.Reformulate(q, sch)
	if err != nil {
		panic(err)
	}
	return r
}
