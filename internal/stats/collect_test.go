package stats_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/saturate"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// referenceCollect is the per-property hash-set pass Collect once was:
// the oracle the loader's tallies must agree with.
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

// checkCollect collects st's statistics (folding any pending delta) and
// compares every property's PropStat with the reference pass.
func checkCollect(t *testing.T, name string, st *storage.Store, vocab schema.Vocab) {
	t.Helper()
	s := stats.Collect(st, vocab)
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

// checkCollectThrough checks Collect on st as built, then after removals
// and additions folded by Compact, and on the maintained saturation of
// st's contents under the closed schema as built and after the same
// kind of updates: the loader re-tallies at every Compact, for the raw
// store and for the saturated twin alike. Additions recombine the
// subjects, properties and objects of pool.
func checkCollectThrough(t *testing.T, name string, st *storage.Store, vocab schema.Vocab, closed *schema.Closed, pool []storage.Triple, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	updates := func() (adds, removes []storage.Triple) {
		for i, tr := range st.Triples() {
			if i%4 == 1 {
				removes = append(removes, tr)
			}
		}
		for i := 0; i < 40; i++ {
			tr := pool[rng.Intn(len(pool))]
			tr.O = pool[rng.Intn(len(pool))].S
			adds = append(adds, tr)
		}
		return adds, removes
	}

	checkCollect(t, name, st, vocab)
	twin := saturate.NewMaintainedFrom(st.Each, closed)
	checkCollect(t, name+", saturated twin", twin.Store(), vocab)

	adds, removes := updates()
	for _, tr := range removes {
		st.Remove(tr)
		twin.Remove(tr)
	}
	for _, tr := range adds {
		st.Add(tr)
		twin.Add(tr)
	}
	st.Compact()
	checkCollect(t, name+", after Compact", st, vocab)
	twin.Store().Compact()
	checkCollect(t, name+", saturated twin after Compact", twin.Store(), vocab)
}

func TestCollectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e := testkit.Random(seed, 60+int(seed)*10)
		checkCollectThrough(t, "random", e.RawStore(), e.Vocab, e.Closed, e.Data, seed)
	}
}

// lubmStore loads the ontology and nUniv universities of LUBM data as
// the facade's Freeze does: the data plus the closed constraint triples.
func lubmStore(nUniv int, cfg lubm.Config) (*storage.Store, schema.Vocab, *schema.Closed, []storage.Triple) {
	d := dict.New()
	vocab := schema.EncodeVocab(d)
	sch := schema.New(vocab)
	for _, tr := range lubm.Ontology() {
		s, p, o := d.EncodeTriple(tr)
		sch.AddTriple(s, p, o)
	}
	var data []storage.Triple
	lubm.Generate(nUniv, 42, cfg, func(tr rdf.Triple) {
		s, p, o := d.EncodeTriple(tr)
		data = append(data, storage.Triple{S: s, P: p, O: o})
	})
	closed := sch.Close()
	b := storage.NewBuilder()
	b.AddAll(data)
	for _, c := range closed.ConstraintTriples() {
		b.Add(storage.Triple{S: c[0], P: c[1], O: c[2]})
	}
	return b.Build(), vocab, closed, data
}

func TestCollectMatchesReferenceLUBM(t *testing.T) {
	st, vocab, closed, data := lubmStore(1, lubm.Tiny())
	checkCollectThrough(t, "LUBM tiny", st, vocab, closed, data, 42)
}

// A pending delta and tombstones are folded before the tallies are read,
// so the statistics describe the store's current contents.
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

// A store asked for without an SPO index gets one, and a POS index,
// since the loader tallies the statistics from those two; the statistics
// must not change.
func TestCollectMatchesReferenceWithoutSPO(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		e := testkit.Random(seed, 100)
		st := e.RawStore(storage.OrderOSP)
		if !slices.Contains(st.Orders(), storage.OrderSPO) || !slices.Contains(st.Orders(), storage.OrderPOS) {
			t.Fatalf("orders %v: SPO and POS missing", st.Orders())
		}
		checkCollectThrough(t, "no SPO asked for", st, e.Vocab, e.Closed, e.Data, seed)
	}
}

// Collect reads the loader's tallies: what it allocates depends on the
// number of properties, not of triples. LUBM's tiny and default profiles
// use the same properties; the default's university has twenty times the
// triples.
func TestCollectAllocatesPerProperty(t *testing.T) {
	small, vocab, _, _ := lubmStore(1, lubm.Tiny())
	large, _, _, _ := lubmStore(1, lubm.Default())
	if large.Len() < 10*small.Len() {
		t.Fatalf("stores of %d and %d triples: want a tenfold difference", small.Len(), large.Len())
	}
	props := len(large.PropTallies())
	if n := len(small.PropTallies()); n != props {
		t.Fatalf("%d and %d properties: want the same set", n, props)
	}
	allocs := func(st *storage.Store) (count float64, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		count = testing.AllocsPerRun(20, func() { stats.Collect(st, vocab) })
		runtime.ReadMemStats(&after)
		return count, (after.TotalAlloc - before.TotalAlloc) / 21
	}
	sc, sb := allocs(small)
	lc, lb := allocs(large)
	if lc != sc {
		t.Errorf("Collect allocates %.0f times over %d triples, %.0f over %d", sc, small.Len(), lc, large.Len())
	}
	if limit := uint64(4096 + 256*props); lb > limit || sb > limit {
		t.Errorf("Collect allocates %d B over %d triples and %d B over %d; want at most %d for %d properties", sb, small.Len(), lb, large.Len(), limit, props)
	}
}
