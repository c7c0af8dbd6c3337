package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/reformulate"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// rebuildCompressed copies a store into the compressed block-columnar
// representation with deliberately small blocks, so engine scans cross
// many block boundaries.
func rebuildCompressed(src *storage.Store) *storage.Store {
	b := storage.NewBuilder(src.Orders()...).
		WithCompression(storage.CompressionOn).
		WithBlockSize(32)
	src.Each(func(t storage.Triple) bool {
		b.Add(t)
		return true
	})
	return b.Build()
}

// The compressed frozen representation must be invisible to the engine:
// byte-identical relations to evaluation over the flat representation,
// for UCQs and multi-arm JUCQs.
func TestCompressedStoreMatchesFlat(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		e := testkit.Random(seed, 50)
		raw := e.RawStore()
		comp := rebuildCompressed(raw)
		if fp := comp.Footprint(); !fp.Compressed {
			t.Fatalf("seed %d: rebuild is not compressed", seed)
		}
		flatStats := stats.Collect(raw, e.Vocab)
		compStats := stats.Collect(comp, e.Vocab)

		rng := rand.New(rand.NewSource(seed + 771))
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
		flatEng := engine.New(raw, flatStats, engine.Native)
		compEng := engine.New(comp, compStats, engine.Native)

		wantRel, _, err := flatEng.EvalUCQ(u)
		if err != nil {
			t.Fatalf("seed %d: flat UCQ: %v", seed, err)
		}
		gotRel, _, err := compEng.EvalUCQ(u)
		if err != nil {
			t.Fatalf("seed %d: compressed UCQ: %v", seed, err)
		}
		if !relEqual(gotRel, wantRel) {
			t.Errorf("seed %d: compressed UCQ relation differs from flat", seed)
		}

		wantRel, _, err = flatEng.EvalArms(head, arms)
		if err != nil {
			t.Fatalf("seed %d: flat JUCQ: %v", seed, err)
		}
		gotRel, _, err = compEng.EvalArms(head, arms)
		if err != nil {
			t.Fatalf("seed %d: compressed JUCQ: %v", seed, err)
		}
		if !relEqual(gotRel, wantRel) {
			t.Errorf("seed %d: compressed JUCQ relation differs from flat", seed)
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
