package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/reformulate"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// awkwardQueries are the CQ shapes the compiled program has a case for
// each: a variable repeated inside one atom (after being first bound
// there, and after being bound at an earlier depth), a constant and a
// never-bound variable in the head, no atoms at all, and atoms that
// share no variable.
func awkwardQueries(e *testkit.Example, rng *rand.Rand) []bgp.CQ {
	props, classes := e.Closed.Properties(), e.Closed.Classes()
	p := func() bgp.Term { return bgp.C(props[rng.Intn(len(props))]) }
	c := bgp.C(classes[rng.Intn(len(classes))])
	typ := bgp.C(e.Vocab.Type)
	x, y, z, w := bgp.V(0), bgp.V(1), bgp.V(2), bgp.V(9)
	return []bgp.CQ{
		{Head: []bgp.Term{x}, Atoms: []bgp.Atom{{S: x, P: p(), O: x}}},
		{Head: []bgp.Term{x, y}, Atoms: []bgp.Atom{{S: x, P: y, O: x}}},
		{Head: []bgp.Term{y, x}, Atoms: []bgp.Atom{{S: x, P: typ, O: y}, {S: x, P: p(), O: x}}},
		{Head: []bgp.Term{x, z}, Atoms: []bgp.Atom{{S: x, P: p(), O: y}, {S: y, P: z, O: y}}},
		{Head: []bgp.Term{c, w, x}, Atoms: []bgp.Atom{{S: x, P: typ, O: c}}},
		{Head: []bgp.Term{w, x, c, y}, Atoms: []bgp.Atom{{S: x, P: p(), O: y}, {S: y, P: typ, O: z}}},
		{Head: []bgp.Term{c}},
		{Head: []bgp.Term{c, w}},
		{Head: []bgp.Term{x, z}, Atoms: []bgp.Atom{{S: x, P: p(), O: y}, {S: z, P: typ, O: c}}},
		{Head: []bgp.Term{z, x, y}, Atoms: []bgp.Atom{{S: x, P: typ, O: c}, {S: y, P: p(), O: y}, {S: z, P: p(), O: bgp.V(3)}}},
	}
}

// The compiled bind-join must answer exactly as the naive backtracking
// evaluator does — on the awkward shapes above and on random CQs, over
// the flat and the frozen representation, at either parallelism, with
// the store compacted and with a pending delta and tombstones.
func TestCompiledProgramMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		e := testkit.Random(seed, 90)
		rng := rand.New(rand.NewSource(seed + 4100))
		queries := awkwardQueries(e, rng)
		for i := 0; i < 12; i++ {
			queries = append(queries, testkit.RandomQuery(e, rng))
		}
		for _, frozen := range []bool{false, true} {
			for _, pending := range []bool{false, true} {
				st := e.RawStore()
				if frozen {
					st = rebuildCompressed(st)
				}
				if pending {
					for i := 0; i < 12; i++ { // tombstones and joinable additions
						st.Remove(e.Data[rng.Intn(len(e.Data))])
						a, b := e.Data[rng.Intn(len(e.Data))], e.Data[rng.Intn(len(e.Data))]
						st.Add(storage.Triple{S: a.S, P: b.P, O: b.O})
					}
				}
				sts := stats.Collect(st, e.Vocab)
				for qi, q := range queries {
					// Column names of their own: a head constant or repeated
					// head variable must not be taken for a column's name.
					u := bgp.UCQ{CQs: []bgp.CQ{q}}
					for i := range q.Head {
						u.Vars = append(u.Vars, uint32(1000+i))
					}
					want := naive.EvalUCQ(st, u)
					name := fmt.Sprintf("seed %d frozen=%v pending=%v query %d %v", seed, frozen, pending, qi, q)
					rel, _, err := engine.New(st, sts, engine.Native).EvalUCQ(u)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := toRows(rel); !naive.Equal(got, want) {
						t.Fatalf("%s: engine %v, naive %v", name, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkBindJoinMember measures the bind-join kernel on its own: the
// members of Q01's reformulation (one UCQ arm: a class scan bound-joined
// with a property probe per member family), one worker, no planning cache
// in the way. ns/tuple is wall time over tuples scanned; probes/op counts
// the depth-1 probes, one per family and binding — the kernel's currency
// once families share them.
func BenchmarkBindJoinMember(b *testing.B) {
	db, u := q01Arm(b)
	eng := engine.New(db.Raw, db.RawStats, engine.Native)
	root := trace.New("bindjoin")
	_, m, err := eng.WithSpan(root).EvalUCQ(u)
	if err != nil {
		b.Fatal(err)
	}
	probes, _ := root.Find("arm[0]").IntAttr("family_probes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.EvalUCQ(u); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.TuplesScanned), "ns/tuple")
	b.ReportMetric(float64(m.TuplesScanned), "tuples/op")
	b.ReportMetric(float64(probes), "probes/op")
}

// q01Arm builds LUBM at the small scale and reformulates Q01 into its
// UCQ — one arm of a few hundred near-identical two-atom members.
func q01Arm(b *testing.B) (*benchkit.Database, bgp.UCQ) {
	b.Helper()
	db, err := benchkit.BuildLUBM(benchkit.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := reformulate.Reformulate(db.Encoded[db.QueryIndex("Q01")], db.Closed)
	if err != nil {
		b.Fatal(err)
	}
	u, err := ref.UCQ(100000)
	if err != nil {
		b.Fatal(err)
	}
	return db, u
}
