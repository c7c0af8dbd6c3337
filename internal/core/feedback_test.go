package core_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/naive"
	"repro/internal/plancache"
	"repro/internal/testkit"
)

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

// Feedback is strictly advisory: answers must be identical with the loop
// on and off, across every strategy. The fixed-cover strategies (UCQ,
// SCQ, Saturation) must match row for row in order — feedback cannot
// change their cover, so evaluation is bit-for-bit the same. The search
// strategies (ECov, GCov) may legitimately pick a different cover once
// corrections move the estimates, which permutes row order but never the
// answer set (Theorem 3.1) — those compare canonically sorted.
func TestFeedbackAnswersIdentical(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		e := testkit.Random(seed, 60)
		off := answererFor(e, engine.Native, core.Options{})
		on := answererFor(e, engine.Native, core.Options{Feedback: feedback.New(feedback.Config{})})
		for _, q := range collectQueries(e, 3, seed+7000) {
			// Several rounds so the loop actually learns between answers.
			for round := 0; round < 3; round++ {
				for _, strat := range core.Strategies() {
					want, err := off.Answer(q, strat)
					if err != nil {
						t.Fatalf("seed %d %s off: %v", seed, strat, err)
					}
					got, err := on.Answer(q, strat)
					if err != nil {
						t.Fatalf("seed %d %s on: %v", seed, strat, err)
					}
					switch strat {
					case core.ECov, core.GCov:
						if !naive.Equal(relRows(got.Rel), relRows(want.Rel)) {
							t.Errorf("seed %d round %d: %s answer set differs with feedback on", seed, round, strat)
						}
					default:
						if !reflect.DeepEqual(got.Rel.Rows, want.Rel.Rows) {
							t.Errorf("seed %d round %d: %s rows differ with feedback on", seed, round, strat)
						}
					}
				}
			}
		}
	}
}

// On a skewed workload the statistics-only estimates are persistently
// off; repeating the workload must shrink the mean relative cardinality
// error as the correction factors converge.
func TestFeedbackConvergesOnSkewedWorkload(t *testing.T) {
	e := testkit.Random(3, 160)
	fb := feedback.New(feedback.Config{})
	a := answererFor(e, engine.Native, core.Options{Feedback: fb})
	qs := collectQueries(e, 5, 99)
	if len(qs) == 0 {
		t.Skip("no coverable queries in fixture")
	}

	// Warm-up epoch: first pass over the workload.
	for _, q := range qs {
		if _, err := a.Answer(q, core.GCov); err != nil {
			t.Fatal(err)
		}
	}
	s0 := fb.Snapshot()
	if s0.CardErrorCount == 0 {
		t.Fatal("warm-up recorded no cardinality errors")
	}
	firstMean := s0.CardErrorSum / float64(s0.CardErrorCount)

	// Converged epochs: several more passes.
	for round := 0; round < 4; round++ {
		for _, q := range qs {
			if _, err := a.Answer(q, core.GCov); err != nil {
				t.Fatal(err)
			}
		}
	}
	s1 := fb.Snapshot()
	if s1.Observations <= s0.Observations {
		t.Fatal("later epochs recorded no observations")
	}
	lateMean := (s1.CardErrorSum - s0.CardErrorSum) / float64(s1.CardErrorCount-s0.CardErrorCount)

	if math.IsNaN(lateMean) || math.IsNaN(firstMean) {
		t.Fatalf("NaN error means (first %v, late %v; stats %+v)", firstMean, lateMean, s1)
	}
	// Convergence: the post-warm-up error must not exceed the first
	// epoch's, and unless the first epoch was already near-exact it must
	// shrink materially.
	if lateMean > firstMean+1e-9 {
		t.Errorf("mean card error grew after warm-up: %v -> %v", firstMean, lateMean)
	}
	if firstMean > 0.1 && lateMean > firstMean*0.75 {
		t.Errorf("mean card error barely converged: %v -> %v", firstMean, lateMean)
	}
}

// A plan-cache hit after a feedback drift event must observe the current
// correction-factor version: the entry is re-priced (visible in the
// cache's Reprices counter) and replayed estimates come from the raw
// stats under the new factors rather than the values priced at insert.
func TestFeedbackRepricesCachedPlans(t *testing.T) {
	e := testkit.Paper()
	fb := feedback.New(feedback.Config{})
	pc := plancache.New(0)
	a, _ := cachedAnswerer(e, pc, core.Options{Feedback: fb})
	q := paperQuery(e)

	cold, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report.Cached {
		t.Fatal("first answer reported Cached")
	}
	// Drive observations until the estimates drift (the tiny fixture's
	// statistics are crude, so this happens on the first answer or two).
	for i := 0; i < 6 && fb.Version() == 0; i++ {
		if _, err := a.Answer(q, core.GCov); err != nil {
			t.Fatal(err)
		}
	}
	if fb.Version() == 0 {
		t.Skip("fixture estimates too accurate to drift")
	}

	warm, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Report.Cached {
		t.Fatal("repeat answer not served from the cache")
	}
	if got := pc.Snapshot().Reprices; got == 0 {
		t.Error("hit after drift did not re-price the entry")
	}
	// Stats accounting: a re-price is not a put, and the only put is the
	// cold answer's insert.
	if st := pc.Snapshot(); st.Puts != 1 {
		t.Errorf("puts = %d, want 1 (re-prices are counted separately)", st.Puts)
	}
	// The answer itself is unchanged by re-pricing.
	if !reflect.DeepEqual(warm.Rel.Rows, cold.Rel.Rows) {
		t.Error("re-priced hit changed the answer rows")
	}
}

// Cancellation mid-query must never leave torn feedback state: failed
// evaluations record nothing, and concurrent successes keep every
// factor and blended constant finite. Run with -race.
func TestFeedbackCancellationNoTornState(t *testing.T) {
	e := testkit.Random(17, 140)
	fb := feedback.New(feedback.Config{})
	a := answererFor(e, engine.Native, core.Options{Feedback: fb})
	qs := collectQueries(e, 4, 17)
	if len(qs) == 0 {
		t.Skip("no coverable queries in fixture")
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := qs[(w+i)%len(qs)]
				if w%2 == 0 {
					// Deadline somewhere between "immediately" and "after
					// evaluation started", so many cancel mid-flight.
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*50*time.Microsecond)
					_, _ = a.AnswerContext(ctx, q, core.GCov)
					cancel()
				} else if _, err := a.Answer(q, core.GCov); err != nil {
					t.Errorf("uncancelled answer failed: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	s := fb.Snapshot()
	if s.Observations == 0 {
		t.Fatal("no successful observations recorded")
	}
	if math.IsNaN(s.MeanCardError) || math.IsNaN(s.MeanCostError) {
		t.Errorf("torn error stats: %+v", s)
	}
	p := fb.Params(cost.DefaultParams)
	for _, v := range []float64{p.CDB, p.CT, p.CJ, p.CM, p.CL, p.CK} {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("blended constant %v not positive and finite after cancellations", v)
		}
	}
}

// A fragment's correction is shared by every query whose cover contains
// it, so it must only ever learn the fragment's own cardinality. Q09, Q18
// and Q25 all evaluate (?y rdf:type ?v) as an arm under a key filter,
// which lets through only what the query's other arm can join: alternating
// them must leave the correction exactly where evaluating the fragment on
// its own put it.
func TestFilteredArmsTeachFeedbackNothing(t *testing.T) {
	db, err := benchkit.BuildLUBM(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	fragment := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(db.Vocab.Type), O: bgp.V(1)}},
	}
	key := fragment.CanonicalKey()
	storeV := db.Raw.Version()
	learn := func(alternate bool) float64 {
		fb := feedback.New(feedback.Config{})
		a := db.Answerer(engine.Native, core.Options{Feedback: fb})
		for round := 0; round < 4; round++ {
			if _, err := a.Answer(fragment, core.GCov); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"Q09", "Q18", "Q25"} {
				if !alternate {
					break
				}
				q := db.Encoded[db.QueryIndex(name)]
				ans, err := a.Answer(q, core.GCov)
				if err != nil {
					t.Fatal(err)
				}
				shared := false
				for _, f := range ans.Report.Cover {
					shared = shared || (len(ans.Report.Cover) > 1 && cover.Query(q, f).CanonicalKey() == key)
				}
				if !shared {
					t.Fatalf("%s: cover %v does not evaluate %v as one of several arms", name, ans.Report.Cover, fragment)
				}
			}
		}
		return fb.Factor(key, storeV)
	}
	alone, mixed := learn(false), learn(true)
	if alone == 1 {
		t.Fatal("evaluating the fragment on its own taught the loop nothing")
	}
	if mixed != alone {
		t.Errorf("correction of %v: %v after alternating Q09/Q18/Q25 with it, %v from the fragment alone", fragment, mixed, alone)
	}
}

// The adaptive-cost warm-up gate: the LUBM workload answered with GCov on
// the native profile through a plan cache and a feedback loop, four
// passes over it. The mean relative cardinality error of the last pass
// must be at most half the first pass's (or below 0.02), the warm passes
// must re-price cached plans, and every pass must return the answer sets
// of a feedback-free answerer. Queries the baseline cannot answer are
// skipped on both sides.
func TestFeedbackWarmupConverges(t *testing.T) {
	db, err := benchkit.BuildLUBM(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	fb := feedback.New(feedback.Config{})
	pc := plancache.New(0)
	a := db.Answerer(engine.Native, core.Options{Feedback: fb, PlanCache: pc})
	base := db.Answerer(engine.Native, core.Options{})

	want := make(map[int]naive.Rows, len(db.Encoded))
	for qi, q := range db.Encoded {
		if ans, err := base.Answer(q, core.GCov); err == nil {
			want[qi] = relRows(ans.Rel)
		}
	}
	if len(want) == 0 {
		t.Fatal("the feedback-free answerer answered no query")
	}

	const epochs = 4
	var cardErr [epochs]float64
	var firstReprices int64
	prev := fb.Snapshot()
	for epoch := 0; epoch < epochs; epoch++ {
		for qi, q := range db.Encoded {
			wantRows, ok := want[qi]
			if !ok {
				continue
			}
			ans, err := a.Answer(q, core.GCov)
			if err != nil {
				t.Fatalf("epoch %d %s: %v", epoch, db.Specs[qi].Name, err)
			}
			if !naive.Equal(relRows(ans.Rel), wantRows) {
				t.Errorf("epoch %d %s: answer set differs from the feedback-free answerer", epoch, db.Specs[qi].Name)
			}
		}
		s := fb.Snapshot()
		if n := s.CardErrorCount - prev.CardErrorCount; n > 0 {
			cardErr[epoch] = (s.CardErrorSum - prev.CardErrorSum) / float64(n)
		}
		prev = s
		if epoch == 0 {
			firstReprices = pc.Snapshot().Reprices
		}
	}
	t.Logf("mean card error per epoch: %v", cardErr)

	first, last := cardErr[0], cardErr[epochs-1]
	if first == 0 {
		t.Fatal("the first epoch recorded no cardinality error")
	}
	if last > first/2 && last >= 0.02 {
		t.Errorf("card error improved only %.2fx (%.4f -> %.4f), want >= 2x or a final error below 0.02",
			first/last, first, last)
	}
	if got := pc.Snapshot().Reprices - firstReprices; got == 0 {
		t.Error("the warm epochs re-priced no cached plans")
	}
}
