package engine_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/reformulate"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/testkit"
)

func newEngine(e *testkit.Example, prof engine.Profile) *engine.Engine {
	st := e.RawStore()
	return engine.New(st, stats.Collect(st, e.Vocab), prof)
}

func toRows(r *engine.Relation) naive.Rows {
	rows := r.Materialize()
	out := make(naive.Rows, 0, len(rows))
	for _, row := range rows {
		out = append(out, naive.Row(row))
	}
	// The naive rows are sorted; sort ours the same way via round trip.
	set := make(map[string]naive.Row, len(out))
	for _, row := range out {
		set[keyString(row)] = row
	}
	sorted := make(naive.Rows, 0, len(set))
	for _, row := range set {
		sorted = append(sorted, row)
	}
	sortRows(sorted)
	return sorted
}

func keyString(r naive.Row) string {
	b := make([]byte, len(r)*4)
	for i, v := range r {
		b[i*4], b[i*4+1], b[i*4+2], b[i*4+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	return string(b)
}

func sortRows(rows naive.Rows) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && lessRow(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func lessRow(a, b naive.Row) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// The engine must agree with the naive evaluator on random CQs, for every
// profile (different join algorithms must not change answers).
func TestEngineMatchesNaiveCQ(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		e := testkit.Random(seed, 60)
		raw := e.RawStore()
		rng := rand.New(rand.NewSource(seed + 500))
		for _, prof := range append(engine.Profiles(), engine.Native) {
			eng := engine.New(raw, stats.Collect(raw, e.Vocab), prof)
			for i := 0; i < 5; i++ {
				q := testkit.RandomQuery(e, rand.New(rand.NewSource(seed*100+int64(i))))
				rel, _, err := eng.EvalCQ(q)
				if err != nil {
					t.Fatalf("seed %d profile %s: %v", seed, prof.Name, err)
				}
				got := toRows(rel)
				want := naive.EvalCQ(raw, q)
				if !naive.Equal(got, want) {
					t.Errorf("seed %d profile %s query %s:\n got %v\nwant %v", seed, prof.Name, q, got, want)
				}
			}
			_ = rng
		}
	}
}

// UCQ evaluation must agree with the naive union semantics.
func TestEngineMatchesNaiveUCQ(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		e := testkit.Random(seed, 50)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		rng := rand.New(rand.NewSource(seed + 900))
		q := testkit.RandomQuery(e, rng)
		r := mustReformulate(q, e.Closed)
		u, err := r.UCQ(100000)
		if err != nil {
			t.Fatal(err)
		}
		rel, _, err := eng.EvalUCQ(u)
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(toRows(rel), naive.EvalUCQ(raw, u)) {
			t.Errorf("seed %d: UCQ answers differ from naive", seed)
		}
	}
}

// JUCQ evaluation must agree with naive JUCQ semantics across all join
// algorithms.
func TestEngineMatchesNaiveJUCQ(t *testing.T) {
	e := testkit.Paper()
	raw := e.RawStore()
	// Arms: (x type y) and (x writtenBy z), joined on x.
	j := bgp.JUCQ{
		Head: []uint32{0, 1},
		Arms: []bgp.UCQ{
			{Vars: []uint32{0, 1}, CQs: []bgp.CQ{{
				Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
				Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.V(1)}},
			}}},
			{Vars: []uint32{0}, CQs: []bgp.CQ{{
				Head:  []bgp.Term{bgp.V(0)},
				Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.ID("writtenBy")), O: bgp.V(2)}},
			}}},
		},
	}
	want := naive.EvalJUCQ(raw, j)
	for _, prof := range append(engine.Profiles(), engine.Native) {
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), prof)
		rel, _, err := eng.EvalJUCQ(j)
		if err != nil {
			t.Fatalf("profile %s: %v", prof.Name, err)
		}
		if !naive.Equal(toRows(rel), want) {
			t.Errorf("profile %s: JUCQ answers differ: got %v want %v", prof.Name, toRows(rel), want)
		}
	}
}

// Random JUCQs: split a random query's reformulation into per-atom arms
// (the SCQ shape) and compare against the whole-query UCQ answer — the
// cover-based equivalence of Theorem 3.1 at engine level.
func TestEngineSCQEquivalentToUCQ(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		e := testkit.Random(seed, 40)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		rng := rand.New(rand.NewSource(seed + 321))
		q := testkit.RandomQuery(e, rng)
		if len(q.Atoms) < 2 || !connectedQuery(q) {
			continue
		}
		full := mustReformulate(q, e.Closed)
		fullUCQ, err := full.UCQ(100000)
		if err != nil {
			t.Fatal(err)
		}
		wantRel, _, err := eng.EvalUCQ(fullUCQ)
		if err != nil {
			t.Fatal(err)
		}
		want := toRows(wantRel)

		// SCQ: one arm per atom; arm head = distinguished vars in the
		// atom plus vars shared with other atoms.
		head := headVars(q)
		var arms []bgp.UCQ
		for i, a := range q.Atoms {
			sub := coverQuery(q, []int{i}, head)
			ru := mustReformulate(sub, e.Closed)
			u, err := ru.UCQ(100000)
			if err != nil {
				t.Fatal(err)
			}
			arms = append(arms, u)
			_ = a
		}
		j := bgp.JUCQ{Head: head, Arms: arms}
		if err := j.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gotRel, _, err := eng.EvalArms(j.Head, sources(arms))
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(toRows(gotRel), want) {
			t.Errorf("seed %d: SCQ != UCQ for %s:\n got %v\nwant %v", seed, q, toRows(gotRel), want)
		}
	}
}

func sources(arms []bgp.UCQ) []engine.ArmSource {
	out := make([]engine.ArmSource, len(arms))
	for i, a := range arms {
		out[i] = engine.SourceFromUCQ(a)
	}
	return out
}

func headVars(q bgp.CQ) []uint32 {
	var out []uint32
	for _, h := range q.Head {
		out = append(out, h.ID)
	}
	return out
}

// coverQuery builds the cover query of the given atom indexes: head = the
// query's distinguished vars occurring in the fragment plus vars shared
// with atoms outside it (Definition 3.4).
func coverQuery(q bgp.CQ, idxs []int, distinguished []uint32) bgp.CQ {
	in := make(map[int]bool)
	for _, i := range idxs {
		in[i] = true
	}
	inVars := make(map[uint32]bool)
	outVars := make(map[uint32]bool)
	var buf []uint32
	for i, a := range q.Atoms {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			if in[i] {
				inVars[v] = true
			} else {
				outVars[v] = true
			}
		}
	}
	isDist := make(map[uint32]bool)
	for _, v := range distinguished {
		isDist[v] = true
	}
	var head []bgp.Term
	seen := make(map[uint32]bool)
	for v := range inVars {
		if (isDist[v] || outVars[v]) && !seen[v] {
			seen[v] = true
			head = append(head, bgp.V(v))
		}
	}
	sub := bgp.CQ{Head: head}
	for _, i := range idxs {
		sub.Atoms = append(sub.Atoms, q.Atoms[i])
	}
	return sub
}

// connectedQuery reports whether the query's atoms form one connected
// component under shared variables (SCQ covers require it).
func connectedQuery(q bgp.CQ) bool {
	n := len(q.Atoms)
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := 0; j < n; j++ {
			if !seen[j] && q.Atoms[i].SharesVar(q.Atoms[j]) {
				seen[j] = true
				count++
				stack = append(stack, j)
			}
		}
	}
	// Also require every atom to have at least one variable at all, and
	// every arm head to be non-empty (cover queries with empty heads are
	// boolean and not exercised here).
	if count != n {
		return false
	}
	for i := range q.Atoms {
		var buf []uint32
		if len(q.Atoms[i].Vars(buf)) == 0 {
			return false
		}
	}
	return true
}

// Failure injection: each profile limit must trip with its typed error.
func TestPlanTooComplex(t *testing.T) {
	e := testkit.Paper()
	prof := engine.Profile{Name: "tiny", MaxPlanLeaves: 2, ArmJoin: engine.HashJoin}
	eng := newEngine(e, prof)
	q := bgp.CQ{
		Head: []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{
			{S: bgp.V(0), P: bgp.C(e.ID("writtenBy")), O: bgp.V(1)},
			{S: bgp.V(0), P: bgp.C(e.ID("hasTitle")), O: bgp.V(2)},
			{S: bgp.V(0), P: bgp.C(e.ID("publishedIn")), O: bgp.V(3)},
		},
	}
	_, _, err := eng.EvalCQ(q)
	if !errors.Is(err, engine.ErrPlanTooComplex) {
		t.Errorf("err = %v, want ErrPlanTooComplex", err)
	}
}

func TestWorkBudgetExceeded(t *testing.T) {
	e := testkit.Paper()
	prof := engine.Profile{Name: "tiny", WorkBudget: 2, ArmJoin: engine.HashJoin}
	eng := newEngine(e, prof)
	q := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}},
	}
	_, _, err := eng.EvalCQ(q)
	if !errors.Is(err, engine.ErrWorkBudget) {
		t.Errorf("err = %v, want ErrWorkBudget", err)
	}
}

func TestMemoryBudgetExceeded(t *testing.T) {
	e := testkit.Paper()
	prof := engine.Profile{Name: "tiny", MaxMaterializedRows: 1, ArmJoin: engine.HashJoin}
	eng := newEngine(e, prof)
	q := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(2)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}},
	}
	_, _, err := eng.EvalCQ(q)
	if !errors.Is(err, engine.ErrMemoryBudget) {
		t.Errorf("err = %v, want ErrMemoryBudget", err)
	}
}

// Metrics must be populated: scans, arms and dedup counted.
func TestMetrics(t *testing.T) {
	e := testkit.Paper()
	eng := newEngine(e, engine.Native)
	q := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}},
	}
	_, m, err := eng.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.TuplesScanned == 0 {
		t.Error("TuplesScanned = 0")
	}
	if m.UnionArms != 1 {
		t.Errorf("UnionArms = %d, want 1", m.UnionArms)
	}
	if m.RowsDeduped == 0 {
		t.Error("projection to one column should have deduplicated rows")
	}
}

func TestExplainArms(t *testing.T) {
	e := testkit.Paper()
	eng := newEngine(e, engine.Native)
	arms := []engine.ArmSource{
		engine.SourceFromUCQ(bgp.UCQ{Vars: []uint32{0, 1}, CQs: []bgp.CQ{{
			Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
			Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.V(1)}},
		}}}),
		engine.SourceFromUCQ(bgp.UCQ{Vars: []uint32{0}, CQs: []bgp.CQ{{
			Head:  []bgp.Term{bgp.V(0)},
			Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.ID("writtenBy")), O: bgp.V(2)}},
		}}}),
	}
	out := eng.ExplainArms([]uint32{0, 1}, arms, nil)
	for _, want := range []string{"JUCQ plan", "arm[0]", "arm[1]", "bind-join order", "unfiltered: first arm", "filter on ?v0 from arm[0]", "arm join order", "estimated cost"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// A rejected plan must say so.
	small := newEngine(e, engine.Profile{Name: "t", MaxPlanLeaves: 1, ArmJoin: engine.HashJoin})
	if out := small.ExplainArms([]uint32{0, 1}, arms, nil); !strings.Contains(out, "REJECTED") {
		t.Errorf("rejected plan not flagged:\n%s", out)
	}
}

func TestEstimateArmsOrdersStrategies(t *testing.T) {
	// On the paper example, a single-arm plan over one selective atom
	// must be estimated cheaper than a plan scanning everything.
	e := testkit.Paper()
	raw := e.RawStore()
	eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
	selective := bgp.UCQ{Vars: []uint32{0}, CQs: []bgp.CQ{{
		Head:  []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.ID("hasTitle")), O: bgp.V(1)}},
	}}}
	everything := bgp.UCQ{Vars: []uint32{0}, CQs: []bgp.CQ{{
		Head:  []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}},
	}}}
	cheap := eng.EstimateArms([]engine.ArmSource{engine.SourceFromUCQ(selective)})
	costly := eng.EstimateArms([]engine.ArmSource{engine.SourceFromUCQ(everything)})
	if cheap >= costly {
		t.Errorf("estimate(selective)=%v >= estimate(everything)=%v", cheap, costly)
	}
}

// mustReformulate wraps the error-returning API for test queries that
// are well-formed by construction.
func mustReformulate(q bgp.CQ, sch *schema.Closed) *reformulate.Reformulation {
	r, err := reformulate.Reformulate(q, sch)
	if err != nil {
		panic(err)
	}
	return r
}
