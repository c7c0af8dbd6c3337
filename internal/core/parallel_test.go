package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/testkit"
)

// Concurrent Answer calls on one shared answerer, as the server makes
// them, must each answer what a lone call answers; run under the race
// detector, they also check that searches share no mutable state.
func TestParallelAnswerRace(t *testing.T) {
	e := testkit.Random(5, 60)
	a := answererFor(e, engine.Native, core.Options{})
	rng := rand.New(rand.NewSource(5500))
	var queries []bgp.CQ
	for len(queries) < 3 {
		q := testkit.RandomQuery(e, rng)
		if coverableQuery(q) {
			queries = append(queries, q)
		}
	}
	want := make(map[int]map[core.Strategy]naive.Rows)
	for i, q := range queries {
		want[i] = make(map[core.Strategy]naive.Rows)
		for _, strat := range []core.Strategy{core.ECov, core.GCov} {
			ans, err := a.Answer(q, strat)
			if err != nil {
				t.Fatal(err)
			}
			want[i][strat] = relRows(ans.Rel)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range queries {
				strat := core.ECov
				if (w+i)%2 == 1 {
					strat = core.GCov
				}
				ans, err := a.Answer(q, strat)
				if err != nil {
					t.Errorf("concurrent %s: %v", strat, err)
					return
				}
				if !naive.Equal(relRows(ans.Rel), want[i][strat]) {
					t.Errorf("concurrent %s diverged from the lone answer", strat)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
