package core_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/reformulate"
	"repro/internal/stats"
)

// referenceArmStats is the arm pricing the search used before slot
// aggregates were memoized: every block re-derives every slot's
// statistics from per-alternative AtomCard and DistinctForVar calls, into
// per-block maps, and the join-of-unions estimate derives them again.
func referenceArmStats(st *stats.Stats, ref *reformulate.Reformulation) cost.ArmStats {
	out := cost.ArmStats{Arms: ref.NumCQs()}
	for _, b := range ref.Blocks {
		arms := 1.0
		for _, alts := range b.Slots {
			arms *= float64(len(alts))
		}
		type slotInfo struct {
			n        int
			sum      float64
			distinct map[uint32]float64
		}
		slots := make([]slotInfo, len(b.Slots))
		for i, alts := range b.Slots {
			si := slotInfo{n: len(alts), distinct: referenceDistinct(st, alts)}
			for _, alt := range alts {
				si.sum += st.AtomCard(alt)
			}
			slots[i] = si
		}
		order := make([]int, len(slots))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, c int) bool { return slots[order[a]].sum < slots[order[c]].sum })

		first := slots[order[0]]
		if first.n > 0 {
			out.ScanTuples += first.sum * (arms / float64(first.n))
		}
		bound := make(map[uint32]float64)
		bindings := first.sum
		for v, d := range first.distinct {
			bound[v] = d
		}
		for _, idx := range order[1:] {
			sl := slots[idx]
			eff := sl.sum
			for v, d := range sl.distinct {
				if prev, ok := bound[v]; ok {
					if m := math.Max(prev, d); m > 1 {
						eff /= m
					}
					bound[v] = math.Min(prev, d)
				} else {
					bound[v] = d
				}
			}
			out.ScanTuples += bindings * math.Max(eff, 1)
			bindings *= math.Max(eff, 0.001)
		}
		out.ResultTuples += referenceJoinOfUnions(st, b.Slots)
	}
	return out
}

// referenceDistinct sums DistinctForVar per variable over the slot's
// alternatives, counting a variable once per alternative.
func referenceDistinct(st *stats.Stats, alts []bgp.Atom) map[uint32]float64 {
	distinct := make(map[uint32]float64)
	for _, a := range alts {
		handled := make(map[uint32]bool)
		for _, v := range a.Vars(nil) {
			if !handled[v] {
				handled[v] = true
				distinct[v] += st.DistinctForVar(a, v)
			}
		}
	}
	return distinct
}

// referenceJoinOfUnions is the map-based join-of-unions estimate.
func referenceJoinOfUnions(st *stats.Stats, slots [][]bgp.Atom) float64 {
	seen := make(map[uint32]float64)
	card := 1.0
	for _, alts := range slots {
		var slotCard float64
		for _, a := range alts {
			slotCard += st.AtomCard(a)
		}
		card *= slotCard
		for v, d := range referenceDistinct(st, alts) {
			d = math.Min(math.Max(d, 1), math.Max(slotCard, 1))
			if prev, ok := seen[v]; ok {
				if m := math.Max(prev, d); m > 1 {
					card /= m
				}
				seen[v] = math.Min(prev, d)
			} else {
				seen[v] = d
			}
		}
		if card <= 0 {
			return 0
		}
	}
	return card
}

func relClose(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

// Every fragment ECov prices on the LUBM and DBLP queries gets the
// statistics the per-block reference derives: the member count exactly,
// the scan and result estimates up to floating-point summation order.
func TestArmStatsMatchPerBlockReference(t *testing.T) {
	lubm, err := benchkit.BuildLUBM(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := benchkit.BuildDBLP(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*benchkit.Database{lubm, dblp} {
		a := db.Answerer(engine.Native, core.Options{Params: cost.DefaultParams})
		frags := 0
		for qi, spec := range db.Specs {
			err := a.PricedFragments(db.Encoded[qi], func(ref *reformulate.Reformulation, got cost.ArmStats) {
				frags++
				want := referenceArmStats(db.RawStats, ref)
				if got.Arms != want.Arms || !relClose(got.ScanTuples, want.ScanTuples) || !relClose(got.ResultTuples, want.ResultTuples) {
					t.Errorf("%s %s fragment %s: stats %+v, reference %+v", db.Name, spec.Name, ref.Query, got, want)
				}
			})
			if err != nil {
				t.Fatalf("%s %s: %v", db.Name, spec.Name, err)
			}
		}
		if frags == 0 {
			t.Errorf("%s: no fragment priced", db.Name)
		}
	}
}
