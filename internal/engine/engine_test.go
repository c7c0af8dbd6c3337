package engine_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
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

// relEqual reports whether two relations are byte-identical: same column
// order and same rows in the same order.
func relEqual(a, b *engine.Relation) bool {
	ar, br := a.Materialize(), b.Materialize()
	if !reflect.DeepEqual(a.Vars, b.Vars) || len(ar) != len(br) {
		return false
	}
	for i := range ar {
		if !reflect.DeepEqual(ar[i], br[i]) {
			return false
		}
	}
	return true
}

// sameAnswers reports whether two relations hold the same rows over the
// same columns, in any order: what evaluation promises across engine
// configurations (rows come out in a deterministic order for one plan and
// snapshot, member families binding-major, but no order is promised
// across configurations, and TuplesScanned and Work follow the probes
// each configuration shares).
func sameAnswers(a, b *engine.Relation) bool {
	return reflect.DeepEqual(a.Vars, b.Vars) && a.Len() == b.Len() && naive.Equal(toRows(a), toRows(b))
}

// scqArms builds the per-atom (SCQ) reformulated arms of q — a multi-arm
// JUCQ workload with non-trivial unions per arm.
func scqArms(t *testing.T, e *testkit.Example, q bgp.CQ) ([]uint32, []engine.ArmSource) {
	t.Helper()
	head := headVars(q)
	var arms []engine.ArmSource
	for i := range q.Atoms {
		sub := coverQuery(q, []int{i}, head)
		ref, err := reformulate.Reformulate(sub, e.Closed)
		if err != nil {
			t.Fatal(err)
		}
		u, err := ref.UCQ(100000)
		if err != nil {
			t.Fatal(err)
		}
		arms = append(arms, engine.SourceFromUCQ(u))
	}
	return head, arms
}

// Evaluations running in parallel on one shared engine must each return
// exactly what one evaluation returns alone — the same rows in the same
// order and the same metrics — on every profile, for single-arm UCQs and
// multi-arm JUCQs alike: evaluation is serial and every evaluation keeps
// its own state.
func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 50)
		raw := e.RawStore()
		st := stats.Collect(raw, e.Vocab)
		rng := rand.New(rand.NewSource(seed + 77))
		q := testkit.RandomQuery(e, rng)
		if len(q.Atoms) < 2 || !connectedQuery(q) {
			continue
		}
		ref, err := reformulate.Reformulate(q, e.Closed)
		if err != nil {
			t.Fatal(err)
		}
		u, err := ref.UCQ(100000)
		if err != nil {
			t.Fatal(err)
		}
		head, arms := scqArms(t, e, q)
		for _, prof := range append(engine.Profiles(), engine.Native) {
			eng := engine.New(raw, st, prof)
			eval := map[string]func() (*engine.Relation, engine.Metrics, error){
				"UCQ":  func() (*engine.Relation, engine.Metrics, error) { return eng.EvalUCQ(u) },
				"JUCQ": func() (*engine.Relation, engine.Metrics, error) { return eng.EvalArms(head, arms) },
			}
			for kind, f := range eval {
				want, wantM, err := f()
				if err != nil {
					t.Fatalf("seed %d %s: lone %s: %v", seed, prof.Name, kind, err)
				}
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got, gotM, err := f()
						if err != nil || !relEqual(got, want) || gotM != wantM {
							t.Errorf("seed %d %s: parallel %s: err %v, metrics %+v; alone %+v", seed, prof.Name, kind, err, gotM, wantM)
						}
					}()
				}
				wg.Wait()
			}
		}
	}
}

// The typed budget errors must fire for evaluations running in parallel
// on one engine exactly as for one running alone.
func TestParallelBudgetErrorsMatchSequential(t *testing.T) {
	e := testkit.Paper()
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	scan := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(2)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}},
	}
	star := bgp.CQ{
		Head: []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{
			{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)},
			{S: bgp.V(0), P: bgp.V(3), O: bgp.V(4)},
		},
	}
	for _, tc := range []struct {
		name string
		prof engine.Profile
		q    bgp.CQ
		want error
	}{
		{"work", engine.Profile{Name: "w", WorkBudget: 2, ArmJoin: engine.HashJoin}, scan, engine.ErrWorkBudget},
		{"memory", engine.Profile{Name: "m", MaxMaterializedRows: 1, ArmJoin: engine.HashJoin}, scan, engine.ErrMemoryBudget},
		{"plan", engine.Profile{Name: "p", MaxPlanLeaves: 1, ArmJoin: engine.HashJoin}, star, engine.ErrPlanTooComplex},
	} {
		eng := engine.New(raw, st, tc.prof)
		if _, _, err := eng.EvalCQ(tc.q); !errors.Is(err, tc.want) {
			t.Fatalf("%s alone: err = %v, want %v", tc.name, err, tc.want)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := eng.EvalCQ(tc.q); !errors.Is(err, tc.want) {
					t.Errorf("%s in parallel: err = %v, want %v", tc.name, err, tc.want)
				}
			}()
		}
		wg.Wait()
	}
}

// Concurrent evaluations on one shared engine must be race-free and agree
// with a lone evaluation's answer (run with -race; the schedule is the
// test).
func TestParallelEvalRace(t *testing.T) {
	e := testkit.Random(3, 60)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	rng := rand.New(rand.NewSource(99))
	var q bgp.CQ
	for {
		q = testkit.RandomQuery(e, rng)
		if len(q.Atoms) >= 2 && connectedQuery(q) {
			break
		}
	}
	head, arms := scqArms(t, e, q)
	want, _, err := engine.New(raw, st, engine.Native).EvalArms(head, arms)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(raw, st, engine.Native)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, _, err := eng.EvalArms(head, arms)
				if err != nil {
					t.Errorf("concurrent eval: %v", err)
					return
				}
				if !relEqual(got, want) {
					t.Error("concurrent eval diverged from a lone one")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fullScanArm streams n copies of a full-scan member CQ — a synthetic
// arm whose evaluation cost is easy to push over any budget.
func fullScanArm(n int) engine.ArmSource {
	member := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(2)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}},
	}
	return engine.ArmSource{
		Vars:   []uint32{0, 2},
		NumCQs: int64(n),
		Leaves: int64(n),
		Each: func(f func(bgp.CQ) bool) bool {
			for i := 0; i < n; i++ {
				if !f(member) {
					return false
				}
			}
			return true
		},
	}
}

// A failing member CQ must surface exactly one typed error — never a
// hang, never a nil error with a nil relation — for single-arm and
// multi-arm evaluations alike, also while other evaluations fail in
// parallel on the same engine: every evaluation charges its own budget.
// The failure is injected through tight budgets, the only way a member
// evaluation can fail (budget errors are the engine's typed failures).
func TestParallelMemberFailureSurfacesTypedError(t *testing.T) {
	e := testkit.Random(5, 80)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	cases := []struct {
		name string
		prof engine.Profile
		want error
	}{
		{"work-budget", engine.Profile{Name: "w", WorkBudget: 500, ArmJoin: engine.HashJoin}, engine.ErrWorkBudget},
		{"memory-budget", engine.Profile{Name: "m", MaxMaterializedRows: 3, ArmJoin: engine.HashJoin}, engine.ErrMemoryBudget},
	}
	for _, tc := range cases {
		eng := engine.New(raw, st, tc.prof)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel, _, err := eng.EvalArms([]uint32{0, 2}, []engine.ArmSource{fullScanArm(200)})
				if !errors.Is(err, tc.want) || rel != nil {
					t.Errorf("%s: single-arm err = %v, relation %v; want %v and nil", tc.name, err, rel, tc.want)
				}
				rel, _, err = eng.EvalArms([]uint32{0}, []engine.ArmSource{fullScanArm(100), fullScanArm(100)})
				if !errors.Is(err, tc.want) || rel != nil {
					t.Errorf("%s: multi-arm err = %v, relation %v; want %v and nil", tc.name, err, rel, tc.want)
				}
			}()
		}
		wg.Wait()
	}
}

// However many evaluations fail in parallel on one engine, each must fail
// with the typed error, and at the work count, of the evaluation failing
// alone: the budget is per evaluation.
func TestParallelFailureIsWorkerCountIndependent(t *testing.T) {
	e := testkit.Random(9, 60)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	eng := engine.New(raw, st, engine.Profile{Name: "tight", WorkBudget: 1000, ArmJoin: engine.HashJoin})
	eval := func() (*engine.Relation, engine.Metrics, error) {
		return eng.EvalArms([]uint32{0, 2}, []engine.ArmSource{fullScanArm(300)})
	}
	rel, alone, err := eval()
	if !errors.Is(err, engine.ErrWorkBudget) || rel != nil {
		t.Fatalf("alone: rel=%v err=%v, want nil rel and %v", rel, err, engine.ErrWorkBudget)
	}
	for _, n := range []int{2, 4, 8, 16} {
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel, m, err := eval()
				if !errors.Is(err, engine.ErrWorkBudget) || rel != nil || m != alone {
					t.Errorf("%d in parallel: rel=%v err=%v metrics %+v; want nil rel, %v, metrics %+v", n, rel, err, m, engine.ErrWorkBudget, alone)
				}
			}()
		}
		wg.Wait()
	}
}
