package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plancache"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// cachedAnswerer builds an answerer over the Paper fixture with the given
// plan cache, returning the answerer and its (mutable) raw store.
func cachedAnswerer(e *testkit.Example, pc *plancache.Cache, opts core.Options) (*core.Answerer, *storage.Store) {
	raw := e.RawStore()
	opts.PlanCache = pc
	eng := engine.New(raw, stats.Collect(raw, e.Vocab), engine.Native)
	return core.NewAnswerer(e.Closed, eng, nil, opts), raw
}

// renameAndReorder returns an isomorphic copy of q: variables shifted by
// off, atoms rotated by one.
func renameAndReorder(q bgp.CQ, off uint32) bgp.CQ {
	ren := func(t bgp.Term) bgp.Term {
		if t.Var {
			return bgp.V(t.ID + off)
		}
		return t
	}
	out := bgp.CQ{Head: make([]bgp.Term, len(q.Head))}
	for i, t := range q.Head {
		out.Head[i] = ren(t)
	}
	for i := range q.Atoms {
		a := q.Atoms[(i+1)%len(q.Atoms)]
		out.Atoms = append(out.Atoms, bgp.Atom{S: ren(a.S), P: ren(a.P), O: ren(a.O)})
	}
	return out
}

// paperQuery is Example 3's first two atoms: authors and their names.
func paperQuery(e *testkit.Example) bgp.CQ {
	return bgp.CQ{
		Head: []bgp.Term{bgp.V(0), bgp.V(2)},
		Atoms: []bgp.Atom{
			{S: bgp.V(0), P: bgp.C(e.ID("hasAuthor")), O: bgp.V(1)},
			{S: bgp.V(1), P: bgp.C(e.ID("hasName")), O: bgp.V(2)},
		},
	}
}

// A repeated query that differs only by variable renaming and atom order
// must be answered from the cache, skipping the optimize and reformulate
// stages, with rows identical to an uncached answerer's.
func TestCacheHitAcrossRenaming(t *testing.T) {
	e := testkit.Paper()
	pc := plancache.New(0)
	a, _ := cachedAnswerer(e, pc, core.Options{})
	plain, _ := cachedAnswerer(e, nil, core.Options{})
	q := paperQuery(e)

	cold, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report.Cached {
		t.Fatal("first answer reported Cached")
	}

	q2 := renameAndReorder(q, 40)
	root := trace.New("query")
	warm, err := a.WithTrace(root).Answer(q2, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if !warm.Report.Cached {
		t.Fatal("renamed+reordered repeat was not answered from the cache")
	}
	// Byte-identical relations: the cached plan replays the original
	// query's arms, whose columns correspond positionally.
	if !reflect.DeepEqual(cold.Rel.Rows, warm.Rel.Rows) {
		t.Fatalf("cached rows differ:\n got %v\nwant %v", warm.Rel.Rows, cold.Rel.Rows)
	}
	uncached, err := plain.Answer(q2, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uncached.Rel.Rows, warm.Rel.Rows) {
		t.Fatalf("cached answer differs from uncached:\n got %v\nwant %v", warm.Rel.Rows, uncached.Rel.Rows)
	}

	// The trace must show the skipped stages: no optimize or reformulate
	// child, an evaluate child marked cached, and a hit counter.
	for _, child := range root.Children() {
		if child.Name() == "optimize" || child.Name() == "reformulate" {
			t.Errorf("cached answer still ran the %q stage", child.Name())
		}
	}
	if got := root.Counter("plancache.hits").Value(); got != 1 {
		t.Errorf("plancache.hits = %d, want 1", got)
	}
	if got := root.Counter("search.covers_priced").Value(); got != 0 {
		t.Errorf("cached answer priced %d covers, want 0", got)
	}
	if st := pc.Snapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache counters = %+v, want 1 hit / 1 miss", st)
	}

	// The report must replay the optimizer's findings.
	if !reflect.DeepEqual(warm.Report.Cover, cold.Report.Cover) ||
		warm.Report.TotalCQs != cold.Report.TotalCQs ||
		warm.Report.EstimatedCost != cold.Report.EstimatedCost {
		t.Errorf("cached report diverges: %+v vs %+v", warm.Report, cold.Report)
	}
}

// After a Store.Add or Remove the next answer must reflect the new data:
// the store version moved, so the entry is invalidated, and the fresh
// statistics price the new plan.
func TestCacheInvalidatedByMutation(t *testing.T) {
	e := testkit.Paper()
	pc := plancache.New(0)
	a, raw := cachedAnswerer(e, pc, core.Options{})
	q := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.ID("hasAuthor")), O: bgp.V(1)}},
	}
	first, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}

	// New triple matching the query directly.
	extra := storage.Triple{S: 900_001, P: e.ID("hasAuthor"), O: 900_002}
	if !raw.Add(extra) {
		t.Fatal("Add failed")
	}
	root := trace.New("query")
	second, err := a.WithTrace(root).Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.Cached {
		t.Fatal("post-mutation answer served from the cache")
	}
	if got, want := len(second.Rel.Rows), len(first.Rel.Rows)+1; got != want {
		t.Fatalf("post-Add answer has %d rows, want %d", got, want)
	}
	found := false
	for _, row := range second.Rel.Rows {
		if row[0] == extra.S && row[1] == extra.O {
			found = true
		}
	}
	if !found {
		t.Fatal("post-Add answer misses the new triple")
	}
	if got := root.Counter("plancache.invalidations").Value(); got != 1 {
		t.Errorf("plancache.invalidations = %d, want 1", got)
	}

	// Remove restores the original content; the re-installed entry must be
	// invalidated again (version moved even though content matches an old
	// state) and the answer must drop the row.
	if !raw.Remove(extra) {
		t.Fatal("Remove failed")
	}
	third, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if third.Report.Cached {
		t.Fatal("post-Remove answer served from the cache")
	}
	if !reflect.DeepEqual(third.Rel.Rows, first.Rel.Rows) {
		t.Fatalf("post-Remove answer differs from the original:\n got %v\nwant %v", third.Rel.Rows, first.Rel.Rows)
	}

	// Steady state again: the repeat is a hit.
	fourth, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if !fourth.Report.Cached {
		t.Fatal("steady-state repeat missed the cache")
	}
}

// Concurrent cached readers against a concurrent mutator, under -race:
// every answer must be either the pre-Add or the post-Add relation (never
// a torn mix), and once the mutator is done the cached and uncached
// answers must be byte-identical again.
func TestCacheConcurrentReadersAndMutator(t *testing.T) {
	e := testkit.Paper()
	pc := plancache.New(0)
	a, raw := cachedAnswerer(e, pc, core.Options{})
	plain, _ := cachedAnswerer(e, nil, core.Options{})
	q := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(e.ID("hasAuthor")), O: bgp.V(1)}},
	}
	before, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	extra := storage.Triple{S: 900_001, P: e.ID("hasAuthor"), O: 900_002}
	withExtra, err := func() (*core.Answer, error) {
		raw.Add(extra)
		defer raw.Remove(extra)
		return a.Answer(q, core.GCov)
	}()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	mutatorDone := make(chan struct{})
	go func() {
		defer close(mutatorDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				// Leave the store in its original state.
				raw.Remove(extra)
				return
			default:
			}
			if i%2 == 0 {
				raw.Add(extra)
			} else {
				raw.Remove(extra)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				qi := renameAndReorder(q, uint32(1+(i%5)))
				ans, err := a.Answer(qi, core.GCov)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !reflect.DeepEqual(ans.Rel.Rows, before.Rel.Rows) &&
					!reflect.DeepEqual(ans.Rel.Rows, withExtra.Rel.Rows) {
					t.Errorf("worker %d: torn answer with %d rows", w, len(ans.Rel.Rows))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-mutatorDone

	// Quiescent again: cached and uncached answers agree byte-for-byte.
	final, err := a.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := plain.Answer(q, core.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Rel.Rows, uncached.Rel.Rows) {
		t.Fatalf("post-quiescence divergence:\n cached %v\n plain %v", final.Rel.Rows, uncached.Rel.Rows)
	}
	if !reflect.DeepEqual(final.Rel.Rows, before.Rel.Rows) {
		t.Fatalf("store content not restored:\n got %v\nwant %v", final.Rel.Rows, before.Rel.Rows)
	}
}

// Entries are validated against a store version stamp; pinned snapshots
// expose the same counter, so a Get keyed on Snapshot().Version() must
// classify entries exactly as one keyed on Store.Version() — Hit while
// the store is unchanged, Stale as soon as it mutates.
func TestCacheValidationAgreesWithSnapshotVersion(t *testing.T) {
	b := storage.NewBuilder()
	b.Add(storage.Triple{S: 1, P: 2, O: 3})
	raw := b.Build()
	pc := plancache.New(0)
	const stamp = 7
	put := func() {
		pc.Put(&plancache.Entry{Key: "k", StoreVersion: raw.Version(), SchemaStamp: stamp})
	}

	put()
	if sv, snv := raw.Version(), raw.Snapshot().Version(); sv != snv {
		t.Fatalf("snapshot version %d, store version %d", snv, sv)
	}
	if _, out := pc.Get("k", raw.Version(), stamp); out != plancache.Hit {
		t.Fatalf("store-version Get = %v, want Hit", out)
	}
	if _, out := pc.Get("k", raw.Snapshot().Version(), stamp); out != plancache.Hit {
		t.Fatalf("snapshot-version Get = %v, want Hit", out)
	}

	// Mutation moves both versions together; a stale Get drops the entry,
	// so reinstall between the two probes.
	raw.Add(storage.Triple{S: 4, P: 5, O: 6})
	if _, out := pc.Get("k", raw.Snapshot().Version(), stamp); out != plancache.Stale {
		t.Fatalf("post-Add snapshot-version Get = %v, want Stale", out)
	}
	put()
	if _, out := pc.Get("k", raw.Version(), stamp); out != plancache.Hit {
		t.Fatalf("reinstalled store-version Get = %v, want Hit", out)
	}
	raw.Remove(storage.Triple{S: 4, P: 5, O: 6})
	if _, out := pc.Get("k", raw.Version(), stamp); out != plancache.Stale {
		t.Fatalf("post-Remove store-version Get = %v, want Stale", out)
	}
}

// Results for every strategy must be unchanged by the cache, both on the
// install pass and the hit pass.
func TestCachePreservesAllStrategies(t *testing.T) {
	e := testkit.Paper()
	pc := plancache.New(0)
	a, _ := cachedAnswerer(e, pc, core.Options{})
	plain, _ := cachedAnswerer(e, nil, core.Options{})
	q := paperQuery(e)
	for _, strat := range []core.Strategy{core.UCQ, core.SCQ, core.ECov, core.GCov} {
		want, err := plain.Answer(q, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := a.Answer(q, strat)
			if err != nil {
				t.Fatalf("%s pass %d: %v", strat, pass, err)
			}
			if got.Report.Cached != (pass == 1) {
				t.Errorf("%s pass %d: Cached = %v", strat, pass, got.Report.Cached)
			}
			if !reflect.DeepEqual(got.Rel.Rows, want.Rel.Rows) {
				t.Errorf("%s pass %d: rows differ", strat, pass)
			}
		}
	}
	// Four strategies, two passes each: 4 misses then 4 hits, and the
	// strategies must not collide on one signature.
	if st := pc.Snapshot(); st.Hits != 4 || st.Misses != 4 {
		t.Errorf("cache counters = %+v, want 4 hits / 4 misses", st)
	}
}

// Answerers that price covers differently may share one plan cache, and
// each must still get the cover its own search picks: a MySQL-like
// answerer must not be served the cover a native one cached for the same
// query. Every query is answered natively first, then MySQL-like through
// the shared cache, and compared with a MySQL-like answerer's fresh
// choice.
func TestSharedCacheKeepsProfilesApart(t *testing.T) {
	db, err := benchkit.BuildLUBM(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Source: core.EngineInternal, PlanCache: plancache.New(0)}
	native := db.Answerer(engine.Native, opts)
	mysql := db.Answerer(engine.MySQLLike, opts)
	opts.PlanCache = nil
	fresh := db.Answerer(engine.MySQLLike, opts)
	differ := 0
	for qi, q := range db.Encoded {
		name := db.Specs[qi].Name
		nat, err := native.Answer(q, core.GCov)
		if err != nil {
			continue
		}
		want, _, err := fresh.ChooseCover(q, core.GCov)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := mysql.Answer(q, core.GCov)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Report.Cover.Key() != want.Key() {
			t.Errorf("%s: MySQL-like answerer sharing the cache got cover %v, its own search picks %v",
				name, got.Report.Cover, want)
		}
		if nat.Report.Cover.Key() != want.Key() {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("native and MySQL-like pick the same cover on every query; the test shows nothing")
	}
}
