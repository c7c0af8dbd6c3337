package core_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/naive"
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

	plain := answererFor(e, engine.Native, core.Options{Parallelism: 1})
	want, err := plain.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}

	root := trace.New("query")
	traced := answererFor(e, engine.Native, core.Options{Parallelism: 1, Trace: root})
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
	a := answererFor(e, engine.Native, core.Options{Parallelism: 1})
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

// An ECov search aborted mid-stream (budget expiry with a parallel
// pricing pool) must wind its worker pool down completely: no goroutine
// may outlive ChooseCover.
func TestECovAbortLeaksNoGoroutines(t *testing.T) {
	e := testkit.Random(6, 50)
	rng := rand.New(rand.NewSource(11))
	var q = testkit.RandomQuery(e, rng)
	for !coverableQuery(q) || len(q.Atoms) < 3 {
		q = testkit.RandomQuery(e, rng)
	}
	baseline := runtime.NumGoroutine()
	// A 1ns budget expires on the first enumerated cover, mid-stream.
	a := answererFor(e, engine.Native, core.Options{Parallelism: 8, SearchBudget: time.Nanosecond})
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
	// The pool shuts down via close/join, so workers exit promptly; poll
	// briefly to absorb scheduler lag.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
