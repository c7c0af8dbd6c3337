package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// The final projection skips duplicate elimination when the head keeps
// every column of the join once, in order or permuted, and keeps it when
// the head drops or repeats a column. Every such head must still answer
// exactly the query's answer over the saturated store, with no duplicate
// rows, for every cover.
func TestProjectionHeadsMatchNaive(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		e := testkit.Random(seed, 90)
		rng := rand.New(rand.NewSource(seed + 4400))
		sat := e.SaturatedStore()
		st := e.RawStore()
		eng := engine.New(st, stats.Collect(st, e.Vocab), engine.Native)
		for n := 0; n < 8; n++ {
			q := testkit.RandomQuery(e, rng)
			if n >= 6 {
				q = disconnected(e, rng)
			}
			// Every variable distinguished, so each arm and the join carry
			// them all and any head over them is a projection of q.
			all := make([]uint32, 0, 8)
			for v := range q.VarSet() {
				all = append(all, v)
			}
			slices.Sort(all)
			q.Head = q.Head[:0]
			for _, v := range all {
				q.Head = append(q.Head, bgp.V(v))
			}
			reversed := slices.Clone(all)
			slices.Reverse(reversed)
			heads := map[string][]uint32{
				"identity": all,
				"reversed": reversed,
				// As wide as the join, but one column twice and one dropped.
				"repeated": append([]uint32{all[0]}, all[:len(all)-1]...),
				"widened":  append([]uint32{all[len(all)-1]}, all...),
			}
			if len(all) > 1 {
				heads["dropped"] = all[1:]
			}
			for _, c := range coversOf(t, q) {
				arms := coverArms(t, e, q, c)
				for name, head := range heads {
					hq := bgp.CQ{Atoms: q.Atoms}
					for _, v := range head {
						hq.Head = append(hq.Head, bgp.V(v))
					}
					want := naive.EvalCQ(sat, hq)
					label := fmt.Sprintf("seed %d %v cover %v head %s", seed, q, c, name)
					rel, _, err := eng.EvalArms(head, arms)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got := toRows(rel)
					if rel.Len() != len(got) || !naive.Equal(got, want) {
						t.Fatalf("%s: engine %d rows %v, naive over the saturated store %v", label, rel.Len(), got, want)
					}
				}
			}
		}
	}
}
