package core_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/plancache"
	"repro/internal/testkit"
)

// A context canceled before AnswerContext is called must surface the
// typed engine.ErrCanceled for every strategy — whether the cancellation
// is caught in the cover search or at evaluation admission.
func TestAnswerContextPreCanceled(t *testing.T) {
	e := testkit.Paper()
	a := answererFor(e, engine.Native, core.Options{})
	q := paperQuery(e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range core.Strategies() {
		_, err := a.AnswerContext(ctx, q, strat)
		if !errors.Is(err, engine.ErrCanceled) {
			t.Errorf("%s: err = %v, want %v", strat, err, engine.ErrCanceled)
		}
	}
}

// AnswerContext with an uncancelable context must return exactly the
// same answer set as Answer — the cancellation seam is off-path.
func TestAnswerContextBackgroundIdentical(t *testing.T) {
	e := testkit.Random(31, 120)
	a := answererFor(e, engine.Native, core.Options{})
	q := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.V(1)}},
	}
	plain, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	ctxd, err := a.AnswerContext(context.Background(), q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(relRows(ctxd.Rel), relRows(plain.Rel)) {
		t.Errorf("AnswerContext rows differ from Answer rows")
	}
}

// Cancellation through the plan-cache path: a canceled context must fail
// the cache-hit (evaluate only) path too, and a subsequent uncanceled
// call must still answer correctly — the canceled attempt must not have
// poisoned the cache.
func TestAnswerContextCanceledWithPlanCache(t *testing.T) {
	e := testkit.Paper()
	a := answererFor(e, engine.Native, core.Options{PlanCache: plancache.New(0)})
	q := paperQuery(e)

	// Warm the cache.
	want, err := a.AnswerContext(context.Background(), q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.AnswerContext(ctx, q, core.GCov); !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("cache-hit path: err = %v, want %v", err, engine.ErrCanceled)
	}

	got, err := a.AnswerContext(context.Background(), q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(relRows(got.Rel), relRows(want.Rel)) {
		t.Errorf("answer after canceled attempt differs from the original")
	}
}

// collectQueries gathers up to n coverable random queries from the
// fixture, deterministically per seed.
func collectQueries(e *testkit.Example, n int, seed int64) []bgp.CQ {
	rng := rand.New(rand.NewSource(seed))
	var out []bgp.CQ
	for tries := 0; tries < 20*n && len(out) < n; tries++ {
		q := testkit.RandomQuery(e, rng)
		if coverableQuery(q) {
			out = append(out, q)
		}
	}
	return out
}

// Mid-flight cancellations racing plain answers on one shared answerer
// and plan cache must tear nothing: every answer that completes is the
// naive evaluation over the saturated store. Run with -race.
func TestCancellationStressMatchesNaive(t *testing.T) {
	e := testkit.Random(17, 140)
	a := answererFor(e, engine.Native, core.Options{PlanCache: plancache.New(0)})
	qs := collectQueries(e, 4, 17)
	if len(qs) == 0 {
		t.Skip("no coverable queries in fixture")
	}
	sat := e.SaturatedStore()
	want := make([]naive.Rows, len(qs))
	for i, q := range qs {
		want[i] = naive.EvalCQ(sat, q)
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				qi := (w + i) % len(qs)
				var ans *core.Answer
				var err error
				if w%2 == 0 {
					// Deadline somewhere between "immediately" and "after
					// evaluation started", so many cancel mid-flight.
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*50*time.Microsecond)
					ans, err = a.AnswerContext(ctx, qs[qi], core.GCov)
					cancel()
					if err != nil {
						continue
					}
				} else if ans, err = a.Answer(qs[qi], core.GCov); err != nil {
					t.Errorf("uncancelled answer failed: %v", err)
					return
				}
				if !naive.Equal(relRows(ans.Rel), want[qi]) {
					t.Errorf("worker %d: %s answered %d rows, naive over the saturated store %d",
						w, qs[qi], ans.Rel.Len(), len(want[qi]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
