package engine_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/reformulate"
	"repro/internal/stats"
	"repro/internal/testkit"
)

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

// Parallel evaluation must return the answers of sequential evaluation,
// evaluating the same members, on every profile, for single-arm UCQs and
// multi-arm JUCQs alike.
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
			seq := engine.New(raw, st, prof).WithParallelism(1)
			par := engine.New(raw, st, prof).WithParallelism(8)

			wantRel, wantM, err := seq.EvalUCQ(u)
			if err != nil {
				t.Fatalf("seed %d %s: sequential UCQ: %v", seed, prof.Name, err)
			}
			gotRel, gotM, err := par.EvalUCQ(u)
			if err != nil {
				t.Fatalf("seed %d %s: parallel UCQ: %v", seed, prof.Name, err)
			}
			if !sameAnswers(gotRel, wantRel) {
				t.Errorf("seed %d %s: parallel UCQ relation differs from sequential", seed, prof.Name)
			}
			if gotM.UnionArms != wantM.UnionArms {
				t.Errorf("seed %d %s: parallel UCQ metrics = %+v, sequential = %+v", seed, prof.Name, gotM, wantM)
			}

			wantRel, wantM, err = seq.EvalArms(head, arms)
			if err != nil {
				t.Fatalf("seed %d %s: sequential JUCQ: %v", seed, prof.Name, err)
			}
			gotRel, gotM, err = par.EvalArms(head, arms)
			if err != nil {
				t.Fatalf("seed %d %s: parallel JUCQ: %v", seed, prof.Name, err)
			}
			if !sameAnswers(gotRel, wantRel) {
				t.Errorf("seed %d %s: parallel JUCQ relation differs from sequential", seed, prof.Name)
			}
			if gotM.UnionArms != wantM.UnionArms {
				t.Errorf("seed %d %s: parallel JUCQ metrics = %+v, sequential = %+v", seed, prof.Name, gotM, wantM)
			}
		}
	}
}

// The typed budget errors must fire identically under parallel and
// sequential evaluation when a budget is clearly exceeded.
func TestParallelBudgetErrorsMatchSequential(t *testing.T) {
	e := testkit.Paper()
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	q := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(2)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}},
	}
	cases := []struct {
		name string
		prof engine.Profile
		want error
	}{
		{"work", engine.Profile{Name: "w", WorkBudget: 2, ArmJoin: engine.HashJoin}, engine.ErrWorkBudget},
		{"memory", engine.Profile{Name: "m", MaxMaterializedRows: 1, ArmJoin: engine.HashJoin}, engine.ErrMemoryBudget},
		{"plan", engine.Profile{Name: "p", MaxPlanLeaves: 1, ArmJoin: engine.HashJoin}, engine.ErrPlanTooComplex},
	}
	planQ := bgp.CQ{
		Head: []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{
			{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)},
			{S: bgp.V(0), P: bgp.V(3), O: bgp.V(4)},
		},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 8} {
			eng := engine.New(raw, st, tc.prof).WithParallelism(par)
			in := q
			if errors.Is(tc.want, engine.ErrPlanTooComplex) {
				in = planQ
			}
			_, _, err := eng.EvalCQ(in)
			if !errors.Is(err, tc.want) {
				t.Errorf("%s (parallelism %d): err = %v, want %v", tc.name, par, err, tc.want)
			}
		}
	}
}

// Concurrent evaluations on one shared engine, each itself parallel, must
// be race-free and agree with the sequential answer (run with -race; the
// schedule is the test).
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
	want, _, err := engine.New(raw, st, engine.Native).WithParallelism(1).EvalArms(head, arms)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(raw, st, engine.Native).WithParallelism(4)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, _, err := eng.EvalArms(head, arms)
				if err != nil {
					t.Errorf("parallel eval: %v", err)
					return
				}
				if !relEqual(got, want) {
					t.Error("parallel eval diverged from sequential under concurrency")
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
// hang, never a nil error with a nil relation — at every worker count,
// for single-arm and multi-arm evaluations alike. The failure is
// injected through tight budgets, the only way a member evaluation can
// fail (budget errors are the engine's typed failures).
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
		for _, workers := range []int{1, 2, 4, 8, 16} {
			eng := engine.New(raw, st, tc.prof).WithParallelism(workers)

			rel, _, err := eng.EvalArms([]uint32{0, 2}, []engine.ArmSource{fullScanArm(200)})
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s (workers=%d): single-arm err = %v, want %v", tc.name, workers, err, tc.want)
			}
			if rel != nil {
				t.Errorf("%s (workers=%d): single-arm relation = %v rows, want nil on error", tc.name, workers, rel.Len())
			}

			rel, _, err = eng.EvalArms([]uint32{0}, []engine.ArmSource{fullScanArm(100), fullScanArm(100)})
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s (workers=%d): multi-arm err = %v, want %v", tc.name, workers, err, tc.want)
			}
			if rel != nil {
				t.Errorf("%s (workers=%d): multi-arm relation = %v rows, want nil on error", tc.name, workers, rel.Len())
			}
		}
	}
}

// A failure must not depend on where in the member stream it fires: the
// worker count must never change *which* typed error surfaces when only
// one budget is breachable.
func TestParallelFailureIsWorkerCountIndependent(t *testing.T) {
	e := testkit.Random(9, 60)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	prof := engine.Profile{Name: "tight", WorkBudget: 1000, ArmJoin: engine.HashJoin}
	want, _, errSeq := engine.New(raw, st, prof).WithParallelism(1).EvalArms(
		[]uint32{0, 2}, []engine.ArmSource{fullScanArm(300)})
	if errSeq == nil || want != nil {
		t.Fatalf("sequential run: rel=%v err=%v, want nil rel and a budget error", want, errSeq)
	}
	for _, workers := range []int{2, 4, 8, 16} {
		_, _, err := engine.New(raw, st, prof).WithParallelism(workers).EvalArms(
			[]uint32{0, 2}, []engine.ArmSource{fullScanArm(300)})
		if !errors.Is(err, engine.ErrWorkBudget) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, engine.ErrWorkBudget)
		}
	}
}
