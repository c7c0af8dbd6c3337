package stats_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dict"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// referenceCollect is the per-property hash-set pass Collect once was:
// the oracle its (S,P) runs and sorted (P,O) keys must agree with.
func referenceCollect(st *storage.Store) map[dict.ID]stats.PropStat {
	byProp := make(map[dict.ID]*stats.PropStat)
	subjSets := make(map[dict.ID]map[dict.ID]struct{})
	objSets := make(map[dict.ID]map[dict.ID]struct{})
	st.Each(func(t storage.Triple) bool {
		ps := byProp[t.P]
		if ps == nil {
			ps = &stats.PropStat{}
			byProp[t.P] = ps
			subjSets[t.P] = make(map[dict.ID]struct{})
			objSets[t.P] = make(map[dict.ID]struct{})
		}
		ps.Count++
		subjSets[t.P][t.S] = struct{}{}
		objSets[t.P][t.O] = struct{}{}
		return true
	})
	out := make(map[dict.ID]stats.PropStat, len(byProp))
	for p, ps := range byProp {
		ps.DistinctS = len(subjSets[p])
		ps.DistinctO = len(objSets[p])
		out[p] = *ps
	}
	return out
}

// checkCollect collects st's statistics (folding any pending delta),
// checks that the walk left no decoded block cached, and compares every
// property's PropStat with the reference pass.
func checkCollect(t *testing.T, name string, st *storage.Store, vocab schema.Vocab) {
	t.Helper()
	s := stats.Collect(st, vocab)
	if fp := st.Footprint(); fp.DecodedBlocks != 0 {
		t.Errorf("%s: Collect left %d decoded blocks cached", name, fp.DecodedBlocks)
	}
	got := make(map[dict.ID]stats.PropStat)
	s.EachProperty(func(p dict.ID, ps stats.PropStat) bool {
		got[p] = ps
		return true
	})
	want := referenceCollect(st)
	if len(want) == 0 {
		t.Fatalf("%s: empty store", name)
	}
	if !reflect.DeepEqual(got, want) {
		for p, w := range want {
			if got[p] != w {
				t.Errorf("%s: property %d: Collect %+v, reference %+v", name, p, got[p], w)
			}
		}
		t.Fatalf("%s: Collect has %d properties, reference %d", name, len(got), len(want))
	}
	if s.Total() != st.Len() {
		t.Errorf("%s: Total %d, store holds %d", name, s.Total(), st.Len())
	}
}

func TestCollectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e := testkit.Random(seed, 60+int(seed)*10)
		checkCollect(t, "random", e.RawStore(), e.Vocab)
	}
}

func TestCollectMatchesReferenceLUBM(t *testing.T) {
	d := dict.New()
	vocab := schema.EncodeVocab(d)
	b := storage.NewBuilder()
	add := func(tr rdf.Triple) {
		s, p, o := d.EncodeTriple(tr)
		b.Add(storage.Triple{S: s, P: p, O: o})
	}
	for _, tr := range lubm.Ontology() {
		add(tr)
	}
	lubm.Generate(1, 42, lubm.Tiny(), add)
	checkCollect(t, "LUBM tiny", b.Build(), vocab)
}

// A pending delta and tombstones are folded before the walk, so the
// statistics describe the store's current contents.
func TestCollectMatchesReferenceWithDeltaAndTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := int64(1); seed <= 10; seed++ {
		e := testkit.Random(seed, 120)
		st := e.RawStore()
		for i, tr := range st.Triples() {
			if i%3 == 0 {
				st.Remove(tr)
			}
		}
		for i := 0; i < 40; i++ {
			tr := e.Data[rng.Intn(len(e.Data))]
			tr.O = e.Data[rng.Intn(len(e.Data))].S
			st.Add(tr)
		}
		checkCollect(t, "delta and tombstones", st, e.Vocab)
	}
}

// Without an SPO index Each falls back to a sorted copy; the statistics
// must not change.
func TestCollectMatchesReferenceWithoutSPO(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		e := testkit.Random(seed, 100)
		checkCollect(t, "no SPO", e.RawStore(storage.OrderPOS, storage.OrderOSP), e.Vocab)
	}
}
