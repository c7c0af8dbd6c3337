package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/reformulate"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// rebuildCompressed copies a store with deliberately small blocks, so
// engine scans cross many block boundaries.
func rebuildCompressed(src *storage.Store) *storage.Store {
	b := storage.NewBuilder(src.Orders()...).WithBlockSize(32)
	src.Each(func(t storage.Triple) bool {
		b.Add(t)
		return true
	})
	return b.Build()
}

// Block boundaries must be invisible to the engine: over a store cut
// into 32-triple blocks, UCQs and multi-arm JUCQs answer exactly what
// the naive evaluator answers. (The name predates the single index
// representation, when the reference was a flat-array store.)
func TestCompressedStoreMatchesFlat(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		e := testkit.Random(seed, 50)
		raw := e.RawStore()
		comp := rebuildCompressed(raw)
		if fp := comp.Footprint(); fp.Blocks < 2*len(comp.Orders()) {
			t.Fatalf("seed %d: rebuild has only %d blocks", seed, fp.Blocks)
		}
		compEng := engine.New(comp, stats.Collect(comp, e.Vocab), engine.Native)

		rng := rand.New(rand.NewSource(seed + 771))
		q := testkit.RandomQuery(e, rng)
		if len(q.Atoms) < 2 || !connectedQuery(q) {
			continue
		}
		u, err := mustReformulate(q, e.Closed).UCQ(100000)
		if err != nil {
			t.Fatal(err)
		}
		gotRel, _, err := compEng.EvalUCQ(u)
		if err != nil {
			t.Fatalf("seed %d: UCQ: %v", seed, err)
		}
		if !naive.Equal(toRows(gotRel), naive.EvalUCQ(raw, u)) {
			t.Errorf("seed %d: UCQ relation differs from the naive answer", seed)
		}

		head := headVars(q)
		var arms []bgp.UCQ
		for i := range q.Atoms {
			u, err := mustReformulate(coverQuery(q, []int{i}, head), e.Closed).UCQ(100000)
			if err != nil {
				t.Fatal(err)
			}
			arms = append(arms, u)
		}
		gotRel, _, err = compEng.EvalArms(head, sources(arms))
		if err != nil {
			t.Fatalf("seed %d: JUCQ: %v", seed, err)
		}
		if !naive.Equal(toRows(gotRel), naive.EvalJUCQ(raw, bgp.JUCQ{Head: head, Arms: arms})) {
			t.Errorf("seed %d: JUCQ relation differs from the naive answer", seed)
		}
	}
}

// Repeated evaluations over one compressed store must stay stable while
// snapshots are released between them — the pooled decode buffers cycle
// through the pool without corrupting later reads.
func TestCompressedRepeatedEvaluationStable(t *testing.T) {
	e := testkit.Random(3, 60)
	comp := rebuildCompressed(e.RawStore())
	st := stats.Collect(comp, e.Vocab)
	rng := rand.New(rand.NewSource(99))
	q := testkit.RandomQuery(e, rng)
	ref, err := reformulate.Reformulate(q, e.Closed)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ref.UCQ(100000)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(comp, st, engine.Native)
	first, _, err := eng.EvalUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, _, err := eng.EvalUCQ(u)
		if err != nil {
			t.Fatal(err)
		}
		if !relEqual(again, first) {
			t.Fatalf("evaluation %d differs from the first", i)
		}
	}
}
