package stats_test

import (
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/naive"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
)

func collect(e *testkit.Example) (*storage.Store, *stats.Stats) {
	st := e.RawStore()
	return st, stats.Collect(st, e.Vocab)
}

func TestPropertyStats(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	writtenBy := e.ID("writtenBy")
	ps := s.Property(writtenBy)
	if ps.Count != 1 || ps.DistinctS != 1 || ps.DistinctO != 1 {
		t.Errorf("writtenBy stats = %+v", ps)
	}
	if s.Property(dict.ID(9999)).Count != 0 {
		t.Error("unknown property should have zero stats")
	}
	if s.Total() < len(e.Data) {
		t.Errorf("Total = %d, want >= %d", s.Total(), len(e.Data))
	}
}

func TestPatternCountExact(t *testing.T) {
	rngSeed := int64(3)
	e := testkit.Random(rngSeed, 80)
	st, s := collect(e)
	// Exhaustive check against direct store counts over random patterns.
	rng := rand.New(rand.NewSource(99))
	triples := st.Triples()
	for i := 0; i < 50; i++ {
		tr := triples[rng.Intn(len(triples))]
		pats := []storage.Pattern{
			{},
			{P: tr.P},
			{S: tr.S},
			{S: tr.S, P: tr.P},
			{P: tr.P, O: tr.O},
			{S: tr.S, P: tr.P, O: tr.O},
		}
		for _, p := range pats {
			if got, want := s.PatternCount(p), st.Count(p); got != want {
				t.Fatalf("PatternCount(%+v) = %d, want %d", p, got, want)
			}
			// Memoized second call must agree.
			if got2 := s.PatternCount(p); got2 != st.Count(p) {
				t.Fatalf("memoized PatternCount changed: %d", got2)
			}
		}
	}
}

// AtomCard with all-constant or single-variable atoms is exact.
func TestAtomCardExactCases(t *testing.T) {
	e := testkit.Paper()
	st, s := collect(e)
	writtenBy := e.ID("writtenBy")
	atom := bgp.Atom{S: bgp.V(0), P: bgp.C(writtenBy), O: bgp.V(1)}
	if got := s.AtomCard(atom); got != float64(st.Count(storage.Pattern{P: writtenBy})) {
		t.Errorf("AtomCard = %v", got)
	}
	all := bgp.Atom{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}
	if got := s.AtomCard(all); got != float64(st.Len()) {
		t.Errorf("AtomCard(???) = %v, want %d", got, st.Len())
	}
}

// The CQ cardinality estimate must be within a reasonable factor of the
// true result size on single-join queries over random data — it is an
// estimate, so only order-of-magnitude sanity is asserted.
func TestCQCardSanity(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := testkit.Random(seed, 120)
		st, s := collect(e)
		rng := rand.New(rand.NewSource(seed + 42))
		for i := 0; i < 5; i++ {
			q := testkit.RandomQuery(e, rng)
			truth := float64(len(naive.EvalCQ(st, q)))
			est := s.CQCard(q)
			if est < 0 {
				t.Fatalf("negative estimate for %s", q)
			}
			// Estimates must not be absurd: within 100x when the truth
			// is nonzero (the projection-free estimate can exceed the
			// deduplicated answer count).
			if truth > 0 && (est > truth*100+100) {
				t.Errorf("seed %d: estimate %v vs truth %v for %s", seed, est, truth, q)
			}
		}
	}
}

func TestCQScanTuples(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	q := bgp.CQ{Atoms: []bgp.Atom{
		{S: bgp.V(0), P: bgp.C(e.ID("writtenBy")), O: bgp.V(1)},
		{S: bgp.V(0), P: bgp.C(e.ID("hasTitle")), O: bgp.V(2)},
	}}
	want := s.AtomCard(q.Atoms[0]) + s.AtomCard(q.Atoms[1])
	if got := s.CQScanTuples(q); got != want {
		t.Errorf("CQScanTuples = %v, want %v", got, want)
	}
}

// JoinOfUnionsCard with singleton slots must equal CQCard.
func TestJoinOfUnionsConsistentWithCQCard(t *testing.T) {
	e := testkit.Random(5, 100)
	_, s := collect(e)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		q := testkit.RandomQuery(e, rng)
		slots := make([][]bgp.Atom, len(q.Atoms))
		for j, a := range q.Atoms {
			slots[j] = []bgp.Atom{a}
		}
		if got, want := s.JoinOfUnionsCard(slots), s.CQCard(q); got != want {
			t.Errorf("JoinOfUnionsCard = %v, CQCard = %v for %s", got, want, q)
		}
	}
}

// A union slot's cardinality must dominate each member's.
func TestJoinOfUnionsMonotone(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	a1 := bgp.Atom{S: bgp.V(0), P: bgp.C(e.ID("writtenBy")), O: bgp.V(1)}
	a2 := bgp.Atom{S: bgp.V(0), P: bgp.C(e.ID("hasTitle")), O: bgp.V(1)}
	single := s.JoinOfUnionsCard([][]bgp.Atom{{a1}})
	union := s.JoinOfUnionsCard([][]bgp.Atom{{a1, a2}})
	if union < single {
		t.Errorf("union slot card %v < member card %v", union, single)
	}
}

func TestDistinctForVar(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	writtenBy := e.ID("writtenBy")
	atom := bgp.Atom{S: bgp.V(0), P: bgp.C(writtenBy), O: bgp.V(1)}
	if d := s.DistinctForVar(atom, 0); d != 1 {
		t.Errorf("distinct subjects of writtenBy = %v, want 1", d)
	}
	if d := s.DistinctForVar(atom, 1); d != 1 {
		t.Errorf("distinct objects of writtenBy = %v, want 1", d)
	}
}

// AtomCardOn and DistinctForVarOn sit on the engine's per-member join
// ordering path: once the pattern counts are memoized they allocate
// nothing, repeated variables included.
func TestAtomCardOnAllocatesNothing(t *testing.T) {
	e := testkit.Paper()
	st, s := collect(e)
	snap := st.Snapshot()
	defer snap.Release()
	writtenBy := e.ID("writtenBy")
	atoms := []bgp.Atom{
		{S: bgp.V(0), P: bgp.C(writtenBy), O: bgp.V(1)},
		{S: bgp.V(0), P: bgp.C(writtenBy), O: bgp.V(0)},
		{S: bgp.V(0), P: bgp.V(0), O: bgp.V(0)},
		{S: bgp.V(0), P: bgp.V(1), O: bgp.V(0)},
	}
	for _, src := range []stats.CountSource{st, snap} {
		probe := func() {
			for _, a := range atoms {
				s.AtomCardOn(src, a)
				s.DistinctForVarOn(src, a, 0)
			}
		}
		probe()
		if n := testing.AllocsPerRun(100, probe); n != 0 {
			t.Errorf("%T: %v allocations per probe round, want 0", src, n)
		}
	}
}

func TestEachProperty(t *testing.T) {
	e := testkit.Paper()
	_, s := collect(e)
	n := 0
	s.EachProperty(func(dict.ID, stats.PropStat) bool { n++; return true })
	if n == 0 {
		t.Error("EachProperty visited nothing")
	}
	first := 0
	s.EachProperty(func(dict.ID, stats.PropStat) bool { first++; return false })
	if first != 1 {
		t.Error("EachProperty ignored early stop")
	}
}
