package engine_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// errClass maps an evaluation error to its sentinel, so differential
// checks compare failure *kinds* (the flat and factorized paths agree on
// which budget a query blows, not on the instant it blows).
func errClass(err error) error {
	for _, sentinel := range []error{
		engine.ErrPlanTooComplex, engine.ErrMemoryBudget,
		engine.ErrWorkBudget, engine.ErrCanceled,
	} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return err
}

// checkDifferential evaluates q under both representations and asserts the factorized results expand to the flat
// answers, evaluating the same members (or fail with the same sentinel).
// The flat path shares probes across member families and the factorized
// one replays member-at-a-time charges, so Work and TuplesScanned may
// differ.
func checkDifferential(t *testing.T, eng *engine.Engine, q bgp.CQ, label string) {
	t.Helper()
	flatRel, flatMet, flatErr := eng.WithFactorized(false).EvalCQ(q)
	factRel, factMet, factErr := eng.WithFactorized(true).EvalCQ(q)
	if (flatErr == nil) != (factErr == nil) {
		t.Fatalf("%s: flat err=%v fact err=%v", label, flatErr, factErr)
	}
	if flatErr != nil {
		if errClass(flatErr) != errClass(factErr) {
			t.Fatalf("%s: error class differs: flat %v fact %v", label, flatErr, factErr)
		}
		return
	}
	if factMet.UnionArms != flatMet.UnionArms {
		t.Errorf("%s: members differ:\n fact %+v\n flat %+v", label, factMet, flatMet)
	}
	if !sameAnswers(factRel, flatRel) {
		t.Fatalf("%s: expanded rows differ from flat evaluation", label)
	}
}

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

// Factorized evaluation must answer as flat evaluation does on random
// connected and disconnected CQ shapes.
func TestFactorizedDifferentialCQ(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		e := testkit.Random(seed, 80)
		raw := e.RawStore()
		st := stats.Collect(raw, e.Vocab)
		for _, prof := range []engine.Profile{engine.Native, engine.PostgresLike} {
			eng := engine.New(raw, st, prof)
			rng := rand.New(rand.NewSource(seed * 31))
			for i := 0; i < 6; i++ {
				q := testkit.RandomQuery(e, rng)
				checkDifferential(t, eng, q, prof.Name)
			}
			for k := 2; k <= 4; k++ {
				checkDifferential(t, eng, disconnectedQuery(e, rng, k), prof.Name)
			}
		}
	}
}

// A factorized product must still agree with the naive evaluator, not
// just with the flat engine.
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
			t.Errorf("seed %d: factorized answers differ from naive", seed)
		}
	}
}

// UCQ arms whose members share a disconnected tail factorize across the
// union; members that break the pattern must fall back without changing
// the answer.
func TestFactorizedDifferentialUCQ(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 80)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		rng := rand.New(rand.NewSource(seed * 7))
		cs := e.Closed.Classes()
		ps := e.Closed.Properties()

		// Members identical except in the outer factor (the mergeable
		// pattern), plus — on odd seeds — a pattern-breaking member that
		// forces the mid-stream fallback.
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

		flatRel, flatMet, flatErr := eng.WithFactorized(false).EvalUCQ(u)
		factRel, factMet, factErr := eng.WithFactorized(true).EvalUCQ(u)
		if (flatErr == nil) != (factErr == nil) || (flatErr != nil && errClass(flatErr) != errClass(factErr)) {
			t.Fatalf("seed %d: flat err=%v fact err=%v", seed, flatErr, factErr)
		}
		if flatErr != nil {
			continue
		}
		if factMet.UnionArms != flatMet.UnionArms {
			t.Errorf("seed %d: members differ:\n fact %+v\n flat %+v", seed, factMet, flatMet)
		}
		if !sameAnswers(factRel, flatRel) {
			t.Fatalf("seed %d: UCQ rows differ", seed)
		}
	}
}

// Disconnected JUCQ arms meet in a cartesian arm join; the factorized
// path must compose the product without changing the answer.
func TestFactorizedDifferentialCartesianArms(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 80)
		raw := e.RawStore()
		eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
		cs := e.Closed.Classes()
		ps := e.Closed.Properties()
		j := bgp.JUCQ{
			Head: []uint32{0, 1},
			Arms: []bgp.UCQ{
				{Vars: []uint32{0}, CQs: []bgp.CQ{{
					Head:  []bgp.Term{bgp.V(0)},
					Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.C(cs[0])}},
				}}},
				{Vars: []uint32{1}, CQs: []bgp.CQ{{
					Head:  []bgp.Term{bgp.V(1)},
					Atoms: []bgp.Atom{{S: bgp.V(1), P: bgp.C(ps[0]), O: bgp.V(2)}},
				}}},
			},
		}
		flatRel, flatMet, flatErr := eng.WithFactorized(false).EvalJUCQ(j)
		factRel, factMet, factErr := eng.WithFactorized(true).EvalJUCQ(j)
		if (flatErr == nil) != (factErr == nil) {
			t.Fatalf("seed %d: flat err=%v fact err=%v", seed, flatErr, factErr)
		}
		if flatErr != nil {
			continue
		}
		if factMet.UnionArms != flatMet.UnionArms {
			t.Errorf("seed %d: members differ:\n fact %+v\n flat %+v", seed, factMet, flatMet)
		}
		if !sameAnswers(factRel, flatRel) {
			t.Fatalf("seed %d: cartesian arm join rows differ", seed)
		}
	}
}

// Budget errors must keep their class under factorization: a query that
// blows the work budget flat blows the work budget factorized, same for
// the materialization budget.
func TestFactorizedBudgetErrors(t *testing.T) {
	e := testkit.Random(3, 120)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	rng := rand.New(rand.NewSource(11))
	q := disconnectedQuery(e, rng, 4)
	for _, prof := range []engine.Profile{
		{Name: "tinywork", WorkBudget: 50, ArmJoin: engine.HashJoin},
		{Name: "tinymem", MaxMaterializedRows: 5, ArmJoin: engine.HashJoin},
	} {
		eng := engine.New(raw, st, prof)
		_, _, flatErr := eng.WithFactorized(false).EvalCQ(q)
		_, _, factErr := eng.WithFactorized(true).EvalCQ(q)
		if errClass(flatErr) != errClass(factErr) {
			t.Errorf("%s: flat err %v, fact err %v", prof.Name, flatErr, factErr)
		}
		if flatErr == nil {
			t.Errorf("%s: expected the tight budget to fire", prof.Name)
		}
	}
}

// The factorized paths must be race-free under concurrent evaluations
// sharing one engine (run with -race in CI).
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
	// Expand the shared reference once, up front: Materialize caches into
	// the relation and is not safe for concurrent use, and a cursor that
	// sees the cache appear mid-expansion restarts from row 0.
	want.Materialize()
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
					t.Error("concurrent factorized evaluation diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzFactorizedExpansion drives the differential check from fuzzed
// seeds: any store/query shape the generator can reach must keep the
// factorized and flat answers equal.
func FuzzFactorizedExpansion(f *testing.F) {
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
		checkDifferential(t, eng, q, "fuzz")
	})
}
