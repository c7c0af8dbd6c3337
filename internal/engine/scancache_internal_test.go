package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
)

func TestScanCacheBasics(t *testing.T) {
	c := newScanCache()
	p := storage.Pattern{S: 1}
	if _, ok := c.get(p); ok {
		t.Fatalf("empty cache reported a hit")
	}

	// A cached empty result (nil slice) is distinguishable from a miss.
	c.put(p, nil)
	if ts, ok := c.get(p); !ok || ts != nil {
		t.Fatalf("cached-empty get = (%v, %v), want (nil, true)", ts, ok)
	}

	q := storage.Pattern{S: 2, P: 3}
	want := []storage.Triple{{S: 2, P: 3, O: 4}, {S: 2, P: 3, O: 5}}
	c.put(q, want)
	if ts, ok := c.get(q); !ok || !reflect.DeepEqual(ts, want) {
		t.Fatalf("get = (%v, %v), want (%v, true)", ts, ok, want)
	}

	// First writer wins; a duplicate put neither replaces the entry nor
	// leaks an entry count.
	before := len(c.m)
	c.put(q, []storage.Triple{{S: 9, P: 9, O: 9}})
	if len(c.m) != before {
		t.Fatalf("duplicate put changed the entry count: %d -> %d", before, len(c.m))
	}
	if ts, _ := c.get(q); !reflect.DeepEqual(ts, want) {
		t.Fatalf("duplicate put replaced the entry")
	}
}

// release must fully reset the recycled cache: every seen-once tag mark
// and the map. A stale seen mark only shifts
// when a pattern gets cached, but a stale map entry would replay
// triples from another evaluation's snapshot — and the tag-table reset
// must go through the slots' atomic Store API, not a wholesale clear()
// (the atomicmix analyzer enforces the latter; this test the former).
func TestScanCacheReleaseResets(t *testing.T) {
	c := newScanCache()
	p := storage.Pattern{S: 5, P: 6}
	if c.seenBefore(p) {
		t.Fatalf("fresh cache reports pattern already seen")
	}
	if !c.seenBefore(p) {
		t.Fatalf("second scan of the pattern not reported seen")
	}
	c.put(p, []storage.Triple{{S: 5, P: 6, O: 7}})
	if len(c.m) == 0 {
		t.Fatalf("put did not account an entry")
	}

	c.release()
	if got := len(c.m); got != 0 {
		t.Fatalf("released cache keeps entry count %d", got)
	}
	for i := range c.seen {
		if c.seen[i].Load() != 0 {
			t.Fatalf("released cache keeps seen mark in slot %d", i)
		}
	}
	if _, ok := c.get(p); ok {
		t.Fatalf("released cache still serves a cached entry")
	}
	if c.seenBefore(p) {
		t.Fatalf("released cache still reports the pattern seen")
	}
	// The probe above re-marked its slot on the now-pooled cache (release
	// already returned it); scrub the table directly rather than calling
	// release again, which would put the same cache into the pool twice
	// and hand one copy to a test while another test still mutates it.
	for i := range c.seen {
		c.seen[i].Store(0)
	}
}

func TestScanCacheEntryCap(t *testing.T) {
	c := newScanCache()
	for i := 0; i < maxScanCacheEntries; i++ {
		c.put(storage.Pattern{O: dict.ID(i + 1)}, nil)
	}
	if !c.full() {
		t.Fatalf("cache at capacity not reported full")
	}
	p := storage.Pattern{S: 7}
	c.put(p, []storage.Triple{{S: 7, P: 1, O: 1}})
	if _, ok := c.get(p); ok {
		t.Fatalf("put succeeded beyond the entry cap")
	}
	if len(c.m) != maxScanCacheEntries {
		t.Fatalf("rejected put leaked an entry count: %d", len(c.m))
	}
}

// scanPattern must stand for the exact Scan sequence on every path: cold
// (exact range, materialize-and-replay, or a decline the caller streams),
// warm (memo walk), with and without a hint carried between probes.
func TestScanPatternMatchesSnapshotScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := storage.NewBuilder()
	for i := 0; i < 300; i++ {
		b.Add(storage.Triple{
			S: dict.ID(rng.Intn(40) + 1),
			P: dict.ID(rng.Intn(8) + 1),
			O: dict.ID(rng.Intn(40) + 1),
		})
	}
	st := b.Build()
	// Mutate so some patterns lose the zero-copy exact-range path and
	// exercise materialize-and-replay.
	st.Add(storage.Triple{S: 1, P: 1, O: 1})
	st.Remove(storage.Triple{S: 2, P: 2, O: 2})

	ctx := &evalCtx{snap: st.Snapshot(), shared: true, scans: newScanCache()}
	m := &meter{ctx: ctx}
	patterns := []storage.Pattern{
		{}, {S: 1}, {P: 3}, {O: 5}, {S: 1, P: 1}, {P: 2, O: 2}, {S: 3, O: 7},
	}
	var hint storage.Hint
	declined := 0
	for round := 0; round < 3; round++ { // round 0 cold, later rounds from the memo
		for _, p := range patterns {
			var want []storage.Triple
			ctx.snap.Scan(p, func(tr storage.Triple) bool { want = append(want, tr); return true })
			got, ok := ctx.scanPattern(m, p, &hint)
			if !ok {
				declined++ // the caller streams: nothing to compare
				continue
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("round %d pattern %+v: scanPattern %v, snapshot scan %v", round, p, got, want)
			}
		}
	}
	if m.hits == 0 || m.misses == 0 || declined == 0 {
		t.Fatalf("paths not all taken: hits=%d misses=%d declined=%d", m.hits, m.misses, declined)
	}
}

// memberOrder is joinOrder plus caching (per-arm order cache keyed by
// the member's renaming-invariant shape, cardinality memos shared across
// members, probes through the snapshot). The chosen orders must agree —
// the shared-vs-baseline equality tests cannot catch a divergence here,
// because both configurations evaluate through memberOrder.
func TestMemberOrderAgreesWithJoinOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b := storage.NewBuilder()
	for i := 0; i < 500; i++ {
		b.Add(storage.Triple{
			S: dict.ID(rng.Intn(60) + 1),
			P: dict.ID(rng.Intn(10) + 1),
			O: dict.ID(rng.Intn(60) + 1),
		})
	}
	raw := b.Build()
	e := New(raw, stats.Collect(raw, schema.Vocab{}), Native)
	shared := &evalCtx{snap: raw.Snapshot(), shared: true}
	base := &evalCtx{snap: raw.Snapshot()}
	sc := newArmScratch(shared, nil)
	baseSc := newArmScratch(base, nil)

	term := func() bgp.Term {
		if rng.Intn(2) == 0 {
			return bgp.V(uint32(rng.Intn(4) + 1))
		}
		return bgp.C(dict.ID(rng.Intn(60) + 1))
	}
	for qi := 0; qi < 200; qi++ {
		n := rng.Intn(4) + 1
		cq := bgp.CQ{Head: []bgp.Term{bgp.V(1)}}
		for i := 0; i < n; i++ {
			cq.Atoms = append(cq.Atoms, bgp.Atom{
				S: term(),
				P: bgp.C(dict.ID(rng.Intn(10) + 1)),
				O: term(),
			})
		}
		want := e.joinOrder(cq)
		got := e.memberOrder(shared, sc, cq)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (%v): memberOrder %v, joinOrder %v", qi, cq.Atoms, got, want)
		}
		// The cached second call must return the same order.
		if again := e.memberOrder(shared, sc, cq); !reflect.DeepEqual(again, want) {
			t.Fatalf("query %d: cached memberOrder %v, want %v", qi, again, want)
		}
		// The uncached baseline branch must agree too.
		if b := e.memberOrder(base, baseSc, cq); !reflect.DeepEqual(b, want) {
			t.Fatalf("query %d: baseline memberOrder %v, want %v", qi, b, want)
		}
	}
}
