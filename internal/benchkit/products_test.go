package benchkit

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/sparql"
)

// Every cross-product query under every strategy must answer exactly
// what the naive evaluator answers over the saturated store — and not
// emptily, or the fixture tests nothing.
func TestProductSpecsMatchNaive(t *testing.T) {
	db := tinyLUBM(t)
	answerer := db.Answerer(engine.Native, core.Options{})
	for _, spec := range FactorizedSpecs() {
		parsed, err := sparql.Parse(spec.Text)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		enc, err := sparql.Encode(parsed, db.Dict)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		q := enc.CQ
		want := naive.EvalCQ(db.Sat, q)
		if len(want) == 0 {
			t.Fatalf("%s: empty answer — bad fixture", spec.Name)
		}
		for _, strat := range core.Strategies() {
			label := spec.Name + "/" + string(strat)
			ans, err := answerer.Answer(q, strat)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := make(naive.Rows, len(ans.Rel.Rows))
			for i, r := range ans.Rel.Rows {
				got[i] = naive.Row(r)
			}
			sort.Slice(got, func(i, j int) bool {
				a, b := got[i], got[j]
				for k := range a {
					if a[k] != b[k] {
						return a[k] < b[k]
					}
				}
				return false
			})
			if !naive.Equal(got, want) {
				t.Errorf("%s: %d rows, naive over the saturated store %d", label, len(got), len(want))
			}
		}
	}
}
