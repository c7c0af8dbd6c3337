package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/plancache"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// Answering with Options.Trace attached must record the optimize,
// reformulate and evaluate stages — and leave the answer identical to
// an untraced run.
func TestAnswerRecordsLifecycleTrace(t *testing.T) {
	e := testkit.Random(2, 60)
	rng := rand.New(rand.NewSource(42))
	var q = testkit.RandomQuery(e, rng)
	for !coverableQuery(q) {
		q = testkit.RandomQuery(e, rng)
	}

	plain := answererFor(e, engine.Native, core.Options{})
	want, err := plain.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}

	root := trace.New("query")
	traced := answererFor(e, engine.Native, core.Options{Trace: root})
	got, err := traced.Answer(q, core.GCov)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(relRows(got.Rel), relRows(want.Rel)) {
		t.Fatal("traced answer differs from untraced")
	}

	opt := root.Find("optimize")
	if opt == nil {
		t.Fatal("no optimize span recorded")
	}
	if v, ok := opt.IntAttr("covers_explored"); !ok || v != int64(got.Report.CoversExplored) {
		t.Errorf("optimize covers_explored = %d, %v; want %d", v, ok, got.Report.CoversExplored)
	}
	if v, ok := opt.IntAttr("gcov_rounds"); !ok || v <= 0 {
		t.Errorf("optimize gcov_rounds = %d, %v; want > 0", v, ok)
	}
	ref := root.Find("reformulate")
	if ref == nil {
		t.Fatal("no reformulate span recorded")
	}
	if got := len(ref.Children()); got != len(want.Report.Cover) {
		t.Errorf("reformulate has %d fragment spans, want %d", got, len(want.Report.Cover))
	}
	ev := root.Find("evaluate")
	if ev == nil {
		t.Fatal("no evaluate span recorded")
	}
	if v, ok := ev.IntAttr("rows_out"); !ok || v != int64(want.Rel.Len()) {
		t.Errorf("evaluate rows_out = %d, %v; want %d", v, ok, want.Rel.Len())
	}
	if got := root.Counter("engine.evals").Value(); got != 1 {
		t.Errorf("engine.evals counter = %d, want 1", got)
	}

	var buf bytes.Buffer
	if err := root.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"optimize", "reformulate", "evaluate", "strategy=gcov"} {
		if !strings.Contains(buf.String(), needle) {
			t.Errorf("rendered trace missing %q:\n%s", needle, buf.String())
		}
	}
}

// WithTrace must attach the trace to a copy: the original answerer stays
// untraced, so harnesses can attach a fresh root per run.
func TestWithTraceDoesNotMutateOriginal(t *testing.T) {
	e := testkit.Random(2, 40)
	rng := rand.New(rand.NewSource(7))
	var q = testkit.RandomQuery(e, rng)
	for !coverableQuery(q) {
		q = testkit.RandomQuery(e, rng)
	}
	a := answererFor(e, engine.Native, core.Options{})
	root := trace.New("query")
	if _, err := a.WithTrace(root).Answer(q, core.GCov); err != nil {
		t.Fatal(err)
	}
	before := len(root.Children())
	if before == 0 {
		t.Fatal("traced copy recorded nothing")
	}
	if _, err := a.Answer(q, core.GCov); err != nil {
		t.Fatal(err)
	}
	if got := len(root.Children()); got != before {
		t.Errorf("answering through the original grew the trace: %d -> %d spans", before, got)
	}
}

// An ECov search aborted mid-stream by budget expiry must still return a
// cover, report itself non-exhaustive, and leave no goroutine behind.
func TestECovAbortLeaksNoGoroutines(t *testing.T) {
	e := testkit.Random(6, 50)
	rng := rand.New(rand.NewSource(11))
	var q = testkit.RandomQuery(e, rng)
	for !coverableQuery(q) || len(q.Atoms) < 3 {
		q = testkit.RandomQuery(e, rng)
	}
	// A 1ns budget expires on the first enumerated cover, mid-stream.
	a := answererFor(e, engine.Native, core.Options{SearchBudget: time.Nanosecond})
	// Counted after the store is built: its loader's joined goroutines
	// may not have exited yet when Build returns.
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c, rep, err := a.ChooseCover(q, core.ECov)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			t.Fatal("aborted search returned no cover")
		}
		if rep.Exhaustive {
			t.Fatal("a 1ns-budget search cannot be exhaustive")
		}
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d running, baseline %d", n, baseline)
	}
}

// A traced answer shows the optimizer's estimates beside what happened:
// est_cost and est_rows next to rows_out and tuples_scanned on the
// evaluate span, est_rows and est_scan_tuples next to rows_out on every
// arm — for a searched plan and for the same plan served from the cache.
func TestTraceShowsEstimatesBesideObserved(t *testing.T) {
	db, err := benchkit.BuildLUBM(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	a := db.Answerer(engine.Native, core.Options{PlanCache: plancache.New(0)})
	q := db.Encoded[db.QueryIndex("Q09")]
	for pass, cached := range []bool{false, true} {
		root := trace.New("query")
		ans, err := a.WithTrace(root).Answer(q, core.GCov)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if ans.Report.Cached != cached {
			t.Fatalf("pass %d: Cached = %v, want %v", pass, ans.Report.Cached, cached)
		}
		if len(ans.Report.Cover) < 2 {
			t.Fatalf("Q09's cover %v has one arm; the test wants several", ans.Report.Cover)
		}
		ev := root.Find("evaluate")
		if v, ok := ev.FloatAttr("est_cost"); !ok || v != ans.Report.EstimatedCost {
			t.Errorf("pass %d: evaluate est_cost = %v, %v; want %v", pass, v, ok, ans.Report.EstimatedCost)
		}
		if v, ok := ev.FloatAttr("est_rows"); !ok || v != ans.Report.EstimatedRows {
			t.Errorf("pass %d: evaluate est_rows = %v, %v; want %v", pass, v, ok, ans.Report.EstimatedRows)
		}
		for _, k := range []string{"rows_out", "tuples_scanned"} {
			if _, ok := ev.IntAttr(k); !ok {
				t.Errorf("pass %d: evaluate span has no %s", pass, k)
			}
		}
		for i := range ans.Report.Cover {
			arm := ev.Find(fmt.Sprintf("arm[%d]", i))
			if arm == nil {
				t.Fatalf("pass %d: no arm[%d] span", pass, i)
			}
			for _, k := range []string{"est_rows", "est_scan_tuples"} {
				if v, ok := arm.FloatAttr(k); !ok || !(v > 0) {
					t.Errorf("pass %d: arm[%d] %s = %v, %v; want a positive estimate", pass, i, k, v, ok)
				}
			}
			if _, ok := arm.IntAttr("rows_out"); !ok {
				t.Errorf("pass %d: arm[%d] has no rows_out", pass, i)
			}
		}
	}
}
