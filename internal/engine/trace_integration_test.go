package engine_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// WithSpan must record the evaluation's operator tree — arm, join and
// project spans with row counters — and the engine.* registry totals,
// while leaving the answer identical to an untraced run.
func TestEvalRecordsSpanTree(t *testing.T) {
	e := testkit.Paper()
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	q := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.V(1)}},
	}

	plain := engine.New(raw, st, engine.Native)
	want, wantM, err := plain.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}

	root := trace.New("evaluate")
	got, gotM, err := plain.WithSpan(root).EvalCQ(q)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !relEqual(got, want) || gotM != wantM {
		t.Fatal("traced evaluation diverged from untraced")
	}

	if sp := root.Find("arm[0]"); sp == nil {
		t.Error("no arm[0] span recorded")
	} else if v, ok := sp.IntAttr("rows_out"); !ok || v != int64(want.Len()) {
		t.Errorf("arm[0] rows_out = %d, %v; want %d", v, ok, want.Len())
	}
	if root.Find("project") == nil {
		t.Error("no project span recorded")
	}
	if v, ok := root.IntAttr("rows_out"); !ok || v != int64(want.Len()) {
		t.Errorf("root rows_out = %d, %v; want %d", v, ok, want.Len())
	}
	if v, ok := root.IntAttr("tuples_scanned"); !ok || v != wantM.TuplesScanned {
		t.Errorf("root tuples_scanned = %d, %v; want %d", v, ok, wantM.TuplesScanned)
	}
	if got := root.Counter("engine.evals").Value(); got != 1 {
		t.Errorf("engine.evals counter = %d, want 1", got)
	}
	if got := root.Counter("engine.tuples_scanned").Value(); got != wantM.TuplesScanned {
		t.Errorf("engine.tuples_scanned counter = %d, want %d", got, wantM.TuplesScanned)
	}

	var buf bytes.Buffer
	if err := root.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"evaluate", "arm[0]", "project", "rows_out="} {
		if !strings.Contains(out, needle) {
			t.Errorf("rendered trace missing %q:\n%s", needle, out)
		}
	}
}

// An arm's span must report how its members were evaluated: 100 copies of
// a one-atom full scan are one family — one walk of the store, no depth-1
// probe, every member counted — answering as one member alone does, with
// no per-worker spans.
func TestArmSpanRecordsFamilies(t *testing.T) {
	e := testkit.Random(4, 70)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)

	one, _, err := engine.New(raw, st, engine.Native).EvalArms([]uint32{0, 2}, []engine.ArmSource{fullScanArm(1)})
	if err != nil {
		t.Fatal(err)
	}
	root := trace.New("evaluate")
	rel, m, err := engine.New(raw, st, engine.Native).WithSpan(root).EvalArms([]uint32{0, 2}, []engine.ArmSource{fullScanArm(100)})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(rel, one) || m.UnionArms != 100 || m.TuplesScanned != int64(raw.Len()) {
		t.Errorf("%d rows over %d members scanning %d tuples; want the %d rows of one member, 100 members, one scan of %d", rel.Len(), m.UnionArms, m.TuplesScanned, one.Len(), raw.Len())
	}
	arm := root.Find("arm[0]")
	if arm == nil {
		t.Fatal("no arm[0] span recorded")
	}
	fams, _ := arm.IntAttr("families")
	probes, ok := arm.IntAttr("family_probes")
	if fams != 1 || probes != 0 || !ok {
		t.Errorf("families = %d, family_probes = %d (%v); want 1 and 0", fams, probes, ok)
	}
	for _, c := range arm.Children() {
		if strings.HasPrefix(c.Name(), "shard[") || c.Name() == "merge" {
			t.Errorf("member-sharding span %s under the arm", c.Name())
		}
	}
}

// A traced failing evaluation must record the error on the span and
// count it in the registry.
func TestTraceRecordsError(t *testing.T) {
	e := testkit.Random(5, 80)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	prof := engine.Profile{Name: "tight", WorkBudget: 100, ArmJoin: engine.HashJoin}

	root := trace.New("evaluate")
	_, _, err := engine.New(raw, st, prof).WithSpan(root).EvalArms(
		[]uint32{0, 2}, []engine.ArmSource{fullScanArm(50)})
	root.End()
	if err == nil {
		t.Fatal("expected a budget error")
	}
	if got := root.Counter("engine.errors").Value(); got != 1 {
		t.Errorf("engine.errors counter = %d, want 1", got)
	}
}
