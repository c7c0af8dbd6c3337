package storage

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
)

func randomTriples(rng *rand.Rand, n int, maxID dict.ID) []Triple {
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = Triple{
			S: dict.ID(rng.Intn(int(maxID)) + 1),
			P: dict.ID(rng.Intn(8) + 1), // few properties, like real RDF
			O: dict.ID(rng.Intn(int(maxID)) + 1),
		}
	}
	return ts
}

func buildStore(ts []Triple, orders ...Order) *Store {
	b := NewBuilder(orders...)
	for _, t := range ts {
		b.Add(t)
	}
	return b.Build()
}

// linearScan is the specification for Scan/Count.
func linearScan(ts []Triple, p Pattern) map[Triple]int {
	set := make(map[Triple]struct{})
	for _, t := range ts {
		set[t] = struct{}{}
	}
	out := make(map[Triple]int)
	for t := range set {
		if p.Matches(t) {
			out[t]++
		}
	}
	return out
}

func allPatterns(t Triple) []Pattern {
	var ps []Pattern
	for mask := 0; mask < 8; mask++ {
		p := Pattern{}
		if mask&1 != 0 {
			p.S = t.S
		}
		if mask&2 != 0 {
			p.P = t.P
		}
		if mask&4 != 0 {
			p.O = t.O
		}
		ps = append(ps, p)
	}
	return ps
}

// model is the specification of a store under mutation: the distinct
// triples the last Build or Compact sorted, each marked false once
// tombstoned, and the insertion-ordered delta. Its scan is the exact
// sequence Scan must produce.
type model struct {
	orders []Order
	base   map[Triple]bool
	delta  []Triple
}

func newModel(data []Triple, orders ...Order) *model {
	if len(orders) == 0 {
		orders = DefaultOrders
	}
	m := &model{orders: orders, base: make(map[Triple]bool, len(data))}
	for _, t := range data {
		m.base[t] = true
	}
	return m
}

// add and remove mirror Store.Add and Store.Remove.
func (m *model) add(t Triple) {
	if _, ok := m.base[t]; ok {
		m.base[t] = true
		return
	}
	if !slices.Contains(m.delta, t) {
		m.delta = append(m.delta, t)
	}
}

func (m *model) remove(t Triple) {
	if _, ok := m.base[t]; ok {
		m.base[t] = false
		return
	}
	if i := slices.Index(m.delta, t); i >= 0 {
		m.delta = slices.Delete(m.delta, i, i+1)
	}
}

// compact mirrors Store.Compact: the live triples become the sorted base.
func (m *model) compact() {
	live := m.live()
	m.base = make(map[Triple]bool, len(live))
	for _, t := range live {
		m.base[t] = true
	}
	m.delta = nil
}

func (m *model) clone() *model {
	return &model{orders: m.orders, base: maps.Clone(m.base), delta: slices.Clone(m.delta)}
}

// live returns the visible triples in SPO order.
func (m *model) live() []Triple {
	var ts []Triple
	for t, alive := range m.base {
		if alive {
			ts = append(ts, t)
		}
	}
	ts = append(ts, m.delta...)
	sortByOrder(ts, OrderSPO.perm())
	return ts
}

// scan returns what Scan(p) yields, in its order: the live sorted
// triples matching p in the order of the index p's shape reads, then the
// matching delta triples in insertion order.
func (m *model) scan(p Pattern) []Triple {
	var out []Triple
	for t, alive := range m.base {
		if alive && p.Matches(t) {
			out = append(out, t)
		}
	}
	sortByOrder(out, choosePath(m.orders, maskOf(p)).perm)
	for _, t := range m.delta {
		if p.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

func checkAgainstLinear(t *testing.T, st *Store, data []Triple, pats []Pattern) {
	t.Helper()
	for _, p := range pats {
		want := linearScan(data, p)
		got := make(map[Triple]int)
		st.Scan(p, func(tr Triple) bool {
			got[tr]++
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("pattern %+v: got %d triples, want %d", p, len(got), len(want))
		}
		for tr, n := range got {
			if n != 1 {
				t.Fatalf("pattern %+v: triple %v returned %d times", p, tr, n)
			}
			if _, ok := want[tr]; !ok {
				t.Fatalf("pattern %+v: unexpected triple %v", p, tr)
			}
		}
		if c := st.Count(p); c != len(want) {
			t.Fatalf("pattern %+v: Count = %d, want %d", p, c, len(want))
		}
	}
}

// Scans must agree with a linear filter for every pattern shape, for both
// the default (3-index) and full (6-index) configurations.
func TestScanMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := randomTriples(rng, 500, 40)
	var pats []Pattern
	for i := 0; i < 30; i++ {
		pats = append(pats, allPatterns(data[rng.Intn(len(data))])...)
	}
	for _, orders := range [][]Order{DefaultOrders, AllOrders, {OrderSPO}} {
		st := buildStore(data, orders...)
		checkAgainstLinear(t, st, data, pats)
	}
}

func TestBuildDeduplicates(t *testing.T) {
	tr := Triple{S: 1, P: 2, O: 3}
	st := buildStore([]Triple{tr, tr, tr})
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

func TestContains(t *testing.T) {
	st := buildStore([]Triple{{S: 1, P: 2, O: 3}})
	if !st.Contains(Triple{S: 1, P: 2, O: 3}) {
		t.Error("Contains missed a present triple")
	}
	if st.Contains(Triple{S: 1, P: 2, O: 4}) {
		t.Error("Contains found an absent triple")
	}
}

func TestAddAndCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randomTriples(rng, 200, 30)
	st := buildStore(data[:100])
	for _, tr := range data[100:] {
		st.Add(tr)
	}
	// Before compaction: scans must see the delta.
	var pats []Pattern
	for i := 0; i < 20; i++ {
		pats = append(pats, allPatterns(data[100+rng.Intn(100)])...)
	}
	checkAgainstLinear(t, st, data, pats)

	// Compaction folds the grown store into fresh blocks: every added
	// triple survives it.
	st.Compact()
	checkAgainstLinear(t, st, data, pats)
	for _, tr := range data[100:] {
		if !st.Contains(tr) {
			t.Fatalf("lost %v across Compact", tr)
		}
	}

	want := linearScan(data, Pattern{})
	if st.Len() != len(want) {
		t.Errorf("Len after compact = %d, want %d", st.Len(), len(want))
	}
}

func TestAddReportsNew(t *testing.T) {
	st := buildStore([]Triple{{S: 1, P: 2, O: 3}})
	if st.Add(Triple{S: 1, P: 2, O: 3}) {
		t.Error("Add reported insertion of an existing triple")
	}
	if !st.Add(Triple{S: 9, P: 9, O: 9}) {
		t.Error("Add failed to insert a new triple")
	}
	if st.Add(Triple{S: 9, P: 9, O: 9}) {
		t.Error("Add reported insertion of a delta duplicate")
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2", st.Len())
	}
}

// Random interleavings of Add, Remove and Compact must always agree with
// a reference set.
func TestAddRemoveCompactProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := randomTriples(rng, 100, 15)
		st := buildStore(base)
		ref := linearScan(base, Pattern{})

		pool := randomTriples(rng, 100, 15)
		for step := 0; step < 200; step++ {
			switch rng.Intn(5) {
			case 0, 1: // add
				tr := pool[rng.Intn(len(pool))]
				_, had := ref[tr]
				if got := st.Add(tr); got == had {
					t.Fatalf("seed %d step %d: Add(%v) reported %v, had=%v", seed, step, tr, got, had)
				}
				ref[tr] = 1
			case 2, 3: // remove
				tr := pool[rng.Intn(len(pool))]
				_, had := ref[tr]
				if got := st.Remove(tr); got != had {
					t.Fatalf("seed %d step %d: Remove(%v) reported %v, had=%v", seed, step, tr, got, had)
				}
				delete(ref, tr)
			default:
				st.Compact()
			}
			if st.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len=%d, want %d", seed, step, st.Len(), len(ref))
			}
		}
		// Final full comparison over every pattern shape of a few triples.
		var pats []Pattern
		for i := 0; i < 10; i++ {
			pats = append(pats, allPatterns(pool[rng.Intn(len(pool))])...)
		}
		data := make([]Triple, 0, len(ref))
		for tr := range ref {
			data = append(data, tr)
		}
		checkAgainstLinear(t, st, data, pats)
	}
}

func TestRemoveThenReAdd(t *testing.T) {
	tr := Triple{S: 1, P: 2, O: 3}
	st := buildStore([]Triple{tr})
	if !st.Remove(tr) || st.Contains(tr) {
		t.Fatal("remove failed")
	}
	if !st.Add(tr) || !st.Contains(tr) {
		t.Fatal("re-add after tombstone failed")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
	st.Compact()
	if !st.Contains(tr) || st.Len() != 1 {
		t.Fatal("compact lost the resurrected triple")
	}
}

func TestRemoveFromDelta(t *testing.T) {
	st := buildStore(nil)
	tr := Triple{S: 1, P: 2, O: 3}
	st.Add(tr)
	if !st.Remove(tr) {
		t.Fatal("remove from delta failed")
	}
	if st.Len() != 0 || st.Contains(tr) {
		t.Fatal("delta removal left residue")
	}
}

func TestScanEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := buildStore(randomTriples(rng, 100, 10))
	n := 0
	st.Scan(Pattern{}, func(Triple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("visited %d triples after early stop, want 5", n)
	}
}

func TestTriplesSortedSPO(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := buildStore(randomTriples(rng, 300, 20))
	ts := st.Triples()
	for i := 1; i < len(ts); i++ {
		a, b := ts[i-1], ts[i]
		if a.S > b.S || (a.S == b.S && a.P > b.P) || (a.S == b.S && a.P == b.P && a.O > b.O) {
			t.Fatalf("Triples not in SPO order at %d: %v then %v", i, a, b)
		}
		if a == b {
			t.Fatalf("duplicate triple in Triples(): %v", a)
		}
	}
}

func TestOrderString(t *testing.T) {
	names := map[Order]string{
		OrderSPO: "SPO", OrderPOS: "POS", OrderOSP: "OSP",
		OrderSOP: "SOP", OrderPSO: "PSO", OrderOPS: "OPS",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("Order %d String = %q, want %q", o, o.String(), want)
		}
	}
}

// An empty store answers every read with nothing: one built empty, and
// one whose every triple was removed and compacted away.
func TestEmptyStore(t *testing.T) {
	data := randomTriples(rand.New(rand.NewSource(19)), 300, 20)
	emptied := buildStore(data)
	for _, tr := range data {
		emptied.Remove(tr)
	}
	emptied.Compact()
	for name, st := range map[string]*Store{"built empty": NewBuilder().Build(), "emptied": emptied} {
		if st.Len() != 0 {
			t.Errorf("%s: Len = %d", name, st.Len())
		}
		if got := st.Triples(); len(got) != 0 {
			t.Errorf("%s: Triples = %v", name, got)
		}
		st.Each(func(tr Triple) bool {
			t.Errorf("%s: Each yielded %v", name, tr)
			return false
		})
		if st.Contains(data[0]) {
			t.Errorf("%s: Contains(%v)", name, data[0])
		}
		sn := st.Snapshot()
		if sn.Len() != 0 || sn.Contains(data[0]) {
			t.Errorf("%s: snapshot Len %d, Contains %v", name, sn.Len(), sn.Contains(data[0]))
		}
		var h Hint
		for _, p := range append(allPatterns(data[0]), Pattern{S: 1}) {
			if n := st.Count(p); n != 0 {
				t.Errorf("%s: Count(%+v) = %d", name, p, n)
			}
			if n := sn.Count(p); n != 0 {
				t.Errorf("%s: snapshot Count(%+v) = %d", name, p, n)
			}
			for _, scan := range []func(Pattern, func(Triple) bool){st.Scan, sn.Scan} {
				if got := collectScan(scan, p); len(got) != 0 {
					t.Errorf("%s: Scan(%+v) = %v", name, p, got)
				}
			}
			if got, ok := sn.Range(p); !ok || len(got) != 0 {
				t.Errorf("%s: Range(%+v) = %v, %v", name, p, got, ok)
			}
			if got, ok := sn.RangeFrom(p, &h); !ok || got.Len() != 0 {
				t.Errorf("%s: RangeFrom(%+v) = %v, %v", name, p, got, ok)
			}
		}
		ranges, ok := sn.MultiRange(Pattern{P: data[0].P}, 2, []dict.ID{1, 2, 2, 5}, nil, nil)
		if !ok || len(ranges) != 4 {
			t.Fatalf("%s: MultiRange = %v, %v", name, ranges, ok)
		}
		for i, r := range ranges {
			if r.Len() != 0 {
				t.Errorf("%s: MultiRange range %d = %v", name, i, r)
			}
		}
		sn.Release()
	}
}

func TestPatternMatches(t *testing.T) {
	tr := Triple{S: 1, P: 2, O: 3}
	if !(Pattern{}).Matches(tr) {
		t.Error("wildcard pattern should match")
	}
	if !(Pattern{S: 1, O: 3}).Matches(tr) {
		t.Error("partial pattern should match")
	}
	if (Pattern{S: 2}).Matches(tr) {
		t.Error("mismatched pattern should not match")
	}
}
