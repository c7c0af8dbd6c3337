package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/naive"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// joinCase builds two relations sharing variable 1 (and optionally 2).
func relOf(vars []uint32, rows ...[]dict.ID) *Relation {
	return &Relation{Vars: vars, Rows: rows}
}

func runJoin(t *testing.T, algo JoinAlgorithm, l, r *Relation) *Relation {
	t.Helper()
	ctx := &evalCtx{prof: Profile{Name: "test"}}
	out, err := joinRelations(ctx, l, r, algo)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedRows(rel *Relation) [][]dict.ID {
	rows := append([][]dict.ID(nil), rel.Rows...)
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	return rows
}

func rowsEqual(a, b [][]dict.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// All three algorithms must produce identical results on random inputs,
// including duplicate keys and empty sides.
func TestJoinAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		nl, nr := rng.Intn(30), rng.Intn(30)
		l := &Relation{Vars: []uint32{0, 1}}
		for i := 0; i < nl; i++ {
			l.Rows = append(l.Rows, []dict.ID{dict.ID(rng.Intn(10)), dict.ID(rng.Intn(5))})
		}
		r := &Relation{Vars: []uint32{1, 2}}
		for i := 0; i < nr; i++ {
			r.Rows = append(r.Rows, []dict.ID{dict.ID(rng.Intn(5)), dict.ID(rng.Intn(10))})
		}
		hash := sortedRows(runJoin(t, HashJoin, l, r))
		merge := sortedRows(runJoin(t, MergeJoin, l, r))
		nested := sortedRows(runJoin(t, NestedLoopJoin, l, r))
		if !rowsEqual(hash, merge) {
			t.Fatalf("trial %d: hash and merge disagree (%d vs %d rows)", trial, len(hash), len(merge))
		}
		if !rowsEqual(hash, nested) {
			t.Fatalf("trial %d: hash and nested-loop disagree (%d vs %d rows)", trial, len(hash), len(nested))
		}
	}
}

func TestJoinSchemaAndValues(t *testing.T) {
	l := relOf([]uint32{0, 1}, []dict.ID{10, 1}, []dict.ID{11, 2})
	r := relOf([]uint32{1, 2}, []dict.ID{1, 100}, []dict.ID{1, 101}, []dict.ID{3, 102})
	out := runJoin(t, HashJoin, l, r)
	if len(out.Vars) != 3 || out.Vars[0] != 0 || out.Vars[1] != 1 || out.Vars[2] != 2 {
		t.Fatalf("output schema = %v", out.Vars)
	}
	got := sortedRows(out)
	want := [][]dict.ID{{10, 1, 100}, {10, 1, 101}}
	if !rowsEqual(got, want) {
		t.Errorf("join rows = %v, want %v", got, want)
	}
}

// A product is built left-major, each pair charged 2 work units and
// counted as one joined row.
func TestJoinNoSharedVarsIsCartesian(t *testing.T) {
	l := relOf([]uint32{0}, []dict.ID{1}, []dict.ID{2})
	r := relOf([]uint32{1, 2}, []dict.ID{7, 70}, []dict.ID{8, 80})
	ctx := &evalCtx{prof: Profile{Name: "test"}}
	out, err := joinRelations(ctx, l, r, HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]dict.ID{{1, 7, 70}, {1, 8, 80}, {2, 7, 70}, {2, 8, 80}}
	if !rowsEqual(out.Rows, want) {
		t.Errorf("cartesian product = %v, want %v", out.Rows, want)
	}
	if m := ctx.snapshot(); m.Work != 8 || m.RowsJoined != 4 {
		t.Errorf("%d work units, %d rows joined; want 8 and 4", m.Work, m.RowsJoined)
	}
}

// Arms that share no variable meet in a cartesian arm join: two and three
// such arms must answer what the naive JUCQ evaluator answers, every
// output row one joined pair.
func TestCartesianArmsMatchNaive(t *testing.T) {
	products := 0
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 80)
		raw := e.RawStore()
		eng := New(raw, stats.Collect(raw, e.Vocab), Native)
		cs, ps := e.Closed.Classes(), e.Closed.Properties()
		arms := []bgp.UCQ{
			{Vars: []uint32{0}, CQs: []bgp.CQ{{
				Head:  []bgp.Term{bgp.V(0)},
				Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.Vocab.Type), O: bgp.C(cs[0])}},
			}}},
			{Vars: []uint32{1}, CQs: []bgp.CQ{{
				Head:  []bgp.Term{bgp.V(1)},
				Atoms: []bgp.Atom{{S: bgp.V(1), P: bgp.C(ps[0]), O: bgp.V(2)}},
			}}},
			{Vars: []uint32{3, 4}, CQs: []bgp.CQ{{
				Head:  []bgp.Term{bgp.V(3), bgp.V(4)},
				Atoms: []bgp.Atom{{S: bgp.V(3), P: bgp.C(ps[len(ps)-1]), O: bgp.V(4)}},
			}}},
		}
		for _, j := range []bgp.JUCQ{
			{Head: []uint32{0, 1}, Arms: arms[:2]},
			{Head: []uint32{4, 0, 1, 3}, Arms: arms},
		} {
			rel, m, err := eng.EvalJUCQ(j)
			if err != nil {
				t.Fatalf("seed %d, %d arms: %v", seed, len(j.Arms), err)
			}
			var got naive.Rows
			for _, r := range sortedRows(rel) {
				got = append(got, naive.Row(r))
			}
			if want := naive.EvalJUCQ(raw, j); !naive.Equal(got, want) {
				t.Fatalf("seed %d, %d arms: engine %d rows, naive %d", seed, len(j.Arms), len(got), len(want))
			}
			if len(j.Arms) == 2 && m.RowsJoined != int64(rel.Len()) {
				t.Errorf("seed %d: %d rows joined, want one per output row (%d)", seed, m.RowsJoined, rel.Len())
			}
			if rel.Len() > 0 {
				products++
			}
		}
	}
	if products == 0 {
		t.Error("every product was empty — bad fixture")
	}
}

// A product over the work budget fails with ErrWorkBudget and one over the
// materialization budget with ErrMemoryBudget — charged as a pair-at-a-time
// loop would have charged it up to the overrunning row — and with no budget
// a canceled evaluation fails with ErrCanceled; each before the product is
// allocated (the canceled one holds at most cartesianPresizeRows headers
// and a few left rows' pairs).
func TestCartesianBudgetErrors(t *testing.T) {
	const n = 1000 // a million-row product: 8 MB of cells, 24 MB of row headers
	left, right := &Relation{Vars: []uint32{0}}, &Relation{Vars: []uint32{1}}
	for i := 0; i < n; i++ {
		left.Rows = append(left.Rows, []dict.ID{dict.ID(i)})
		right.Rows = append(right.Rows, []dict.ID{dict.ID(n + i)})
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		prof Profile
		cctx context.Context // nil: no cancelable context
		want error
	}{
		{Profile{Name: "tinywork", WorkBudget: 50}, nil, ErrWorkBudget},
		{Profile{Name: "tinymem", MaxMaterializedRows: 5}, nil, ErrMemoryBudget},
		// No budget at all: only the context stops the product, and it
		// must do so before the product is built, not after sizing it.
		{Native, canceled, ErrCanceled},
	} {
		ctx := &evalCtx{prof: tc.prof}
		if tc.cctx != nil {
			ctx.done, ctx.cctx = tc.cctx.Done(), tc.cctx
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := joinRelations(ctx, left, right, HashJoin)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.prof.Name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: %d bytes allocated before failing, want far less than the product's 32 MB", tc.prof.Name, grew)
		}
		if mb := int64(tc.prof.MaxMaterializedRows); mb > 0 {
			if m := ctx.snapshot(); m.RowsJoined != mb+1 || m.Work != 2*(mb+1) {
				t.Errorf("%s: %d rows joined, %d work units; want %d and %d", tc.prof.Name, m.RowsJoined, m.Work, mb+1, 2*(mb+1))
			}
		}
	}
}

func TestJoinMultiColumnKey(t *testing.T) {
	l := relOf([]uint32{0, 1, 2}, []dict.ID{1, 2, 9}, []dict.ID{1, 3, 9})
	r := relOf([]uint32{0, 1, 3}, []dict.ID{1, 2, 50}, []dict.ID{1, 9, 51})
	for _, algo := range []JoinAlgorithm{HashJoin, MergeJoin, NestedLoopJoin} {
		out := runJoin(t, algo, l, r)
		if len(out.Rows) != 1 {
			t.Errorf("%s: %d rows, want 1 (two-column key)", algo, len(out.Rows))
			continue
		}
		row := out.Rows[0]
		if row[0] != 1 || row[1] != 2 || row[2] != 9 || row[3] != 50 {
			t.Errorf("%s: row = %v", algo, row)
		}
	}
}

func TestJoinEmptySides(t *testing.T) {
	l := relOf([]uint32{0, 1})
	r := relOf([]uint32{1, 2}, []dict.ID{1, 2})
	for _, algo := range []JoinAlgorithm{HashJoin, MergeJoin, NestedLoopJoin} {
		if out := runJoin(t, algo, l, r); len(out.Rows) != 0 {
			t.Errorf("%s: empty left joined to %d rows", algo, len(out.Rows))
		}
		if out := runJoin(t, algo, r, l); len(out.Rows) != 0 {
			t.Errorf("%s: empty right joined to %d rows", algo, len(out.Rows))
		}
	}
}

func TestJoinBudgetEnforced(t *testing.T) {
	l := relOf([]uint32{0}, []dict.ID{1})
	r := relOf([]uint32{0}, []dict.ID{1})
	ctx := &evalCtx{prof: Profile{Name: "t", WorkBudget: 1}}
	// The nested loop charges per comparison; a budget of 1 must trip on
	// output emission.
	if _, err := joinRelations(ctx, l, r, NestedLoopJoin); err == nil {
		t.Error("work budget not enforced in join")
	}
}

func TestSortCost(t *testing.T) {
	if sortCost(0) != 0 || sortCost(1) != 1 {
		t.Error("trivial sort costs wrong")
	}
	if sortCost(8) != 8*3 {
		t.Errorf("sortCost(8) = %d, want 24", sortCost(8))
	}
}
