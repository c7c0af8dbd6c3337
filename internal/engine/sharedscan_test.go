package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/reformulate"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// The shared-scan layer (merged member scans and member families over a
// pinned snapshot) must be invisible in the answers: the
// baseline scan-per-member path's rows, over the same members, on every
// profile, for UCQs and multi-arm JUCQs alike.
func TestSharedScanMatchesBaseline(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 50)
		raw := e.RawStore()
		st := stats.Collect(raw, e.Vocab)
		rng := rand.New(rand.NewSource(seed + 177))
		q := testkit.RandomQuery(e, rng)
		if len(q.Atoms) < 2 || !connectedQuery(q) {
			continue
		}
		ref, err := reformulate.Reformulate(q, e.Closed)
		if err != nil {
			t.Fatal(err)
		}
		u, err := ref.UCQ(100000)
		if err != nil {
			t.Fatal(err)
		}
		head, arms := scqArms(t, e, q)
		for _, prof := range append(engine.Profiles(), engine.Native) {
			shared := engine.New(raw, st, prof)
			base := engine.New(raw, st, prof).WithSharedScan(false)

			wantRel, wantM, err := base.EvalUCQ(u)
			if err != nil {
				t.Fatalf("seed %d %s: baseline UCQ: %v", seed, prof.Name, err)
			}
			gotRel, gotM, err := shared.EvalUCQ(u)
			if err != nil {
				t.Fatalf("seed %d %s: shared UCQ: %v", seed, prof.Name, err)
			}
			if !sameAnswers(gotRel, wantRel) {
				t.Errorf("seed %d %s: shared UCQ relation differs from baseline", seed, prof.Name)
			}
			if gotM.UnionArms != wantM.UnionArms {
				t.Errorf("seed %d %s: shared UCQ metrics = %+v, baseline = %+v", seed, prof.Name, gotM, wantM)
			}

			wantRel, wantM, err = base.EvalArms(head, arms)
			if err != nil {
				t.Fatalf("seed %d %s: baseline JUCQ: %v", seed, prof.Name, err)
			}
			gotRel, gotM, err = shared.EvalArms(head, arms)
			if err != nil {
				t.Fatalf("seed %d %s: shared JUCQ: %v", seed, prof.Name, err)
			}
			if !sameAnswers(gotRel, wantRel) {
				t.Errorf("seed %d %s: shared JUCQ relation differs from baseline", seed, prof.Name)
			}
			if gotM.UnionArms != wantM.UnionArms {
				t.Errorf("seed %d %s: shared JUCQ metrics = %+v, baseline = %+v", seed, prof.Name, gotM, wantM)
			}
		}
	}
}

// A handcrafted UCQ whose members differ only in the class constant must
// light up the trace counters deterministically: every member joins one
// merged-scan group and the inner probes go straight to the snapshot;
// three single-member arms that open with the same atom each take its
// range from the snapshot at depth 0.
func TestSharedScanCountersObservable(t *testing.T) {
	const (
		typeID   = dict.ID(1)
		worksFor = dict.ID(2)
	)
	classes := []dict.ID{10, 11, 12, 13}
	b := storage.NewBuilder()
	for i := 0; i < 10; i++ {
		s := dict.ID(100 + i)
		for _, c := range classes {
			b.Add(storage.Triple{S: s, P: typeID, O: c})
		}
		b.Add(storage.Triple{S: s, P: worksFor, O: dict.ID(500 + i)})
	}
	raw := b.Build()
	st := stats.Collect(raw, schema.Vocab{})

	u := bgp.UCQ{Vars: []uint32{1, 2}}
	for _, c := range classes {
		u.CQs = append(u.CQs, bgp.CQ{
			Head: []bgp.Term{bgp.V(1), bgp.V(2)},
			Atoms: []bgp.Atom{
				{S: bgp.V(1), P: bgp.C(typeID), O: bgp.C(c)},
				{S: bgp.V(1), P: bgp.C(worksFor), O: bgp.V(2)},
			},
		})
	}

	sp := trace.New("sharedscan")
	eng := engine.New(raw, st, engine.Native).WithSpan(sp)
	rel, _, err := eng.EvalUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	// 10 subjects x 1 dept, identical across the 4 members after dedup.
	if rel.Len() != 10 {
		t.Fatalf("got %d rows, want 10", rel.Len())
	}

	snap := sp.Registry().Snapshot()
	if got := snap["merged_members"]; got != int64(len(classes)) {
		t.Errorf("merged_members = %d, want %d", got, len(classes))
	}
	// Depth-0 scans were all pre-located by the merged group.
	if got := snap["snapshot_ranges"]; got != int64(len(classes)) {
		t.Errorf("snapshot_ranges = %d, want %d", got, len(classes))
	}

	open := bgp.Atom{S: bgp.V(1), P: bgp.C(typeID), O: bgp.C(classes[0])}
	var arms []engine.ArmSource
	for _, c := range classes[1:] {
		arms = append(arms, engine.SourceFromUCQ(bgp.UCQ{Vars: []uint32{1}, CQs: []bgp.CQ{{
			Head:  []bgp.Term{bgp.V(1)},
			Atoms: []bgp.Atom{open, {S: bgp.V(1), P: bgp.C(typeID), O: bgp.C(c)}},
		}}}))
	}
	sp = trace.New("memo")
	rel, _, err = engine.New(raw, st, engine.Native).WithSpan(sp).EvalArms([]uint32{1}, arms)
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	if rel.Len() != 10 {
		t.Fatalf("got %d rows, want 10", rel.Len())
	}
	snap = sp.Registry().Snapshot()
	if got := snap["snapshot_ranges"]; got != int64(len(arms)) {
		t.Errorf("snapshot_ranges = %d, want one per arm (%d)", got, len(arms))
	}
}
