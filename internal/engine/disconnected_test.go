package engine_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// disconnectedQuery builds a cross-product query: k independent single-atom
// components, each binding one head variable.
func disconnectedQuery(e *testkit.Example, rng *rand.Rand, k int) bgp.CQ {
	q := bgp.CQ{}
	for i := 0; i < k; i++ {
		v := bgp.V(uint32(i))
		var a bgp.Atom
		if rng.Intn(2) == 0 {
			cs := e.Closed.Classes()
			a = bgp.Atom{S: v, P: bgp.C(e.Vocab.Type), O: bgp.C(cs[rng.Intn(len(cs))])}
		} else {
			ps := e.Closed.Properties()
			a = bgp.Atom{S: v, P: bgp.C(ps[rng.Intn(len(ps))]), O: bgp.V(uint32(100 + i))}
		}
		q.Atoms = append(q.Atoms, a)
		q.Head = append(q.Head, v)
	}
	return q
}

// checkCQMatchesNaive evaluates q and asserts the answer is naive's over
// the same store, with no duplicate row.
func checkCQMatchesNaive(t *testing.T, eng *engine.Engine, q bgp.CQ, label string) {
	t.Helper()
	rel, _, err := eng.EvalCQ(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := toRows(rel)
	if want := naive.EvalCQ(eng.Store(), q); rel.Len() != len(got) || !naive.Equal(got, want) {
		t.Fatalf("%s: %v: engine %d rows, naive %d", label, q, rel.Len(), len(want))
	}
}

// Random connected CQs and cross products of two to four independent
// atoms, under two profiles, must answer what the naive evaluator answers.
// (The name dates from when the check compared factorized and flat
// evaluation; relations are flat now and naive is the reference.)
func TestFactorizedDifferentialCQ(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		e := testkit.Random(seed, 80)
		raw := e.RawStore()
		st := stats.Collect(raw, e.Vocab)
		for _, prof := range []engine.Profile{engine.Native, engine.PostgresLike} {
			eng := engine.New(raw, st, prof)
			rng := rand.New(rand.NewSource(seed * 31))
			for i := 0; i < 6; i++ {
				checkCQMatchesNaive(t, eng, testkit.RandomQuery(e, rng), prof.Name)
			}
			for k := 2; k <= 4; k++ {
				checkCQMatchesNaive(t, eng, disconnectedQuery(e, rng, k), prof.Name)
			}
		}
	}
}

// A cross product of two to four independent atoms must answer what the
// naive evaluator answers, with exactly one row per combination of its
// components' answers: a product of components that each answer n_i rows
// has n_1 * ... * n_k rows.
func TestFactorizedMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 60)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		rng := rand.New(rand.NewSource(seed))
		q := disconnectedQuery(e, rng, 2+int(seed%3))
		rel, _, err := eng.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(toRows(rel), naive.EvalCQ(raw, q)) {
			t.Errorf("seed %d: %v: engine answers differ from naive", seed, q)
		}
		product := 1
		for i, a := range q.Atoms {
			component := bgp.CQ{Head: []bgp.Term{q.Head[i]}, Atoms: []bgp.Atom{a}}
			product *= len(naive.EvalCQ(raw, component))
		}
		if rel.Len() != product {
			t.Errorf("seed %d: %v: %d rows, product of the components' answers %d", seed, q, rel.Len(), product)
		}
	}
}

// Concurrent evaluations of one cross product on a shared engine must be
// race-free and each answer what a lone evaluation answers (run with -race;
// the schedule is the test).
func TestFactorizedParallelStress(t *testing.T) {
	e := testkit.Random(5, 100)
	raw := e.RawStore()
	eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
	rng := rand.New(rand.NewSource(9))
	q := disconnectedQuery(e, rng, 3)
	want, _, err := eng.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatalf("%v: empty answer — bad fixture", q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				rel, _, err := eng.EvalCQ(q)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameAnswers(rel, want) {
					t.Error("concurrent evaluation of a cross product diverged from a lone one")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A UCQ arm whose members share a disconnected tail and differ in the
// atom before it — plus, on odd seeds, a member of another shape — must
// answer what the naive evaluator answers.
func TestDisconnectedUCQMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 80)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		rng := rand.New(rand.NewSource(seed * 7))
		cs := e.Closed.Classes()
		ps := e.Closed.Properties()
		tail := bgp.Atom{S: bgp.V(1), P: bgp.C(ps[rng.Intn(len(ps))]), O: bgp.V(2)}
		u := bgp.UCQ{Vars: []uint32{0, 1}}
		for i := 0; i < 3; i++ {
			u.CQs = append(u.CQs, bgp.CQ{
				Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
				Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.C(cs[i%len(cs)])}, tail},
			})
		}
		if seed%2 == 1 {
			u.CQs = append(u.CQs, bgp.CQ{
				Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
				Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(ps[0]), O: bgp.V(1)}},
			})
		}
		rel, _, err := eng.EvalUCQ(u)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := toRows(rel)
		if want := naive.EvalUCQ(raw, u); rel.Len() != len(got) || !naive.Equal(got, want) {
			t.Fatalf("seed %d: engine %d rows, naive %d", seed, rel.Len(), len(want))
		}
	}
}

// FuzzDisconnectedMatchesNaive drives the naive comparison from fuzzed
// seeds: any store and query shape the generators reach, connected or a
// cross product, must answer what the naive evaluator answers.
func FuzzDisconnectedMatchesNaive(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(7), int64(13))
	f.Add(int64(42), int64(99))
	f.Fuzz(func(t *testing.T, storeSeed, querySeed int64) {
		e := testkit.Random(storeSeed%64, 60)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		rng := rand.New(rand.NewSource(querySeed))
		var q bgp.CQ
		if querySeed%2 == 0 {
			q = testkit.RandomQuery(e, rng)
		} else {
			q = disconnectedQuery(e, rng, 2+int(uint64(querySeed)%3))
		}
		checkCQMatchesNaive(t, eng, q, "fuzz")
	})
}
