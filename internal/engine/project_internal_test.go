package engine

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/naive"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// The final projection is one pass into a set sized to its input: it must
// answer what internal/naive answers over the saturated store, keep each
// row's first occurrence in input order, charge one work unit per input
// row and count every dropped duplicate — on a two-atom join of more than
// 4,096 rows whose head drops three columns and finds duplicates, and on
// a head that drops a column and finds none. Under a materialization
// budget smaller than the answer it fails with ErrMemoryBudget.
func TestProjectDistinctMatchesNaive(t *testing.T) {
	e := testkit.Random(4, 400)
	sat := e.SaturatedStore()
	x, p, y, q, z := bgp.V(0), bgp.V(1), bgp.V(2), bgp.V(3), bgp.V(4)
	join := bgp.CQ{Head: []bgp.Term{x, p, y, q, z}, Atoms: []bgp.Atom{{S: x, P: p, O: y}, {S: y, P: q, O: z}}}
	joined, _, err := New(sat, stats.Collect(sat, e.Vocab), Native).EvalCQ(join)
	if err != nil {
		t.Fatal(err)
	}
	// Every triple with its subject repeated in a fourth column: dropping
	// that column drops no row.
	var repeated [][]dict.ID
	snap := sat.Snapshot()
	snap.Scan(storage.Pattern{}, func(tr storage.Triple) bool {
		repeated = append(repeated, []dict.ID{tr.S, tr.P, tr.O, tr.S})
		return true
	})
	snap.Release()

	for _, tc := range []struct {
		name string
		cur  *Relation
		cols []int
		want bgp.CQ
		dups bool
	}{
		{"join on (x, z)", joined, []int{0, 4}, bgp.CQ{Head: []bgp.Term{x, z}, Atoms: join.Atoms}, true},
		{"triples without the repeated subject", &Relation{Vars: []uint32{0, 1, 2, 3}, Rows: repeated}, []int{0, 1, 2},
			bgp.CQ{Head: []bgp.Term{x, p, y}, Atoms: join.Atoms[:1]}, false},
	} {
		in := tc.cur.Rows
		if tc.dups && len(in) <= 4096 {
			t.Fatalf("%s: %d input rows, want more than 4,096", tc.name, len(in))
		}
		head := make([]uint32, len(tc.cols))
		for i, c := range tc.cols {
			head[i] = tc.cur.Vars[c]
		}
		ctx := &evalCtx{prof: Native}
		out, err := projectDistinct(ctx, tc.cur, tc.cols, head)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := make(naive.Rows, len(out.Rows))
		for i, r := range out.Rows {
			got[i] = naive.Row(r)
		}
		slices.SortFunc(got, func(a, b naive.Row) int { return slices.Compare(a, b) })
		if !naive.Equal(got, naive.EvalCQ(sat, tc.want)) {
			t.Fatalf("%s: %d rows differ from naive over the saturated store", tc.name, len(got))
		}
		var first [][]dict.ID
		seen := map[[3]dict.ID]bool{}
		for _, r := range in {
			var k [3]dict.ID
			for i, c := range tc.cols {
				k[i] = r[c]
			}
			if !seen[k] {
				seen[k] = true
				first = append(first, k[:len(tc.cols)])
			}
		}
		if !slices.EqualFunc(out.Rows, first, slices.Equal[[]dict.ID]) {
			t.Errorf("%s: rows are not in first-occurrence order", tc.name)
		}
		dropped := int64(len(in) - len(out.Rows))
		if (dropped > 0) != tc.dups || ctx.rowsDeduped.Load() != dropped || ctx.work.Load() != int64(len(in)) {
			t.Errorf("%s: %d of %d rows dropped, %d counted, %d work units; want duplicates %v, all counted, one unit per row",
				tc.name, dropped, len(in), ctx.rowsDeduped.Load(), ctx.work.Load(), tc.dups)
		}

		tight := &evalCtx{prof: Profile{Name: "tight", MaxMaterializedRows: len(out.Rows) - 1}}
		if _, err := projectDistinct(tight, tc.cur, tc.cols, head); !errors.Is(err, ErrMemoryBudget) {
			t.Errorf("%s: under a budget of %d rows err = %v, want %v", tc.name, len(out.Rows)-1, err, ErrMemoryBudget)
		}
	}
}
