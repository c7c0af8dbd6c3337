package cover

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
)

// chainQuery builds q(v0) :- (v0 p v1), (v1 p v2), ... — a path of n atoms.
func chainQuery(n int) bgp.CQ {
	q := bgp.CQ{Head: []bgp.Term{bgp.V(0)}}
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, bgp.Atom{
			S: bgp.V(uint32(i)), P: bgp.C(100), O: bgp.V(uint32(i + 1)),
		})
	}
	return q
}

// starQuery builds q(v0) :- (v0 p1 v1), (v0 p2 v2), ... — all atoms share v0.
func starQuery(n int) bgp.CQ {
	q := bgp.CQ{Head: []bgp.Term{bgp.V(0)}}
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, bgp.Atom{
			S: bgp.V(0), P: bgp.C(dict.ID(100 + i)), O: bgp.V(uint32(i + 1)),
		})
	}
	return q
}

func TestFragmentBasics(t *testing.T) {
	f := Single(0).With(2)
	if !f.Has(0) || f.Has(1) || !f.Has(2) {
		t.Error("Has wrong")
	}
	if f.Count() != 2 {
		t.Errorf("Count = %d", f.Count())
	}
	if got := f.Atoms(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Atoms = %v", got)
	}
	if f.String() != "{t1,t3}" {
		t.Errorf("String = %q", f.String())
	}
	if !f.ContainsAll(Single(2)) || f.ContainsAll(Single(1)) {
		t.Error("ContainsAll wrong")
	}
}

func TestCoverCanonical(t *testing.T) {
	a := NewCover(Single(1), Single(0), Single(1))
	b := NewCover(Single(0), Single(1))
	if a.Key() != b.Key() {
		t.Errorf("canonical keys differ: %q vs %q", a.Key(), b.Key())
	}
	if len(a) != 2 {
		t.Errorf("duplicates not removed: %v", a)
	}
}

func TestGraphAdjacency(t *testing.T) {
	q := chainQuery(3) // t1(v0,v1) t2(v1,v2) t3(v2,v3)
	g := mustGraph(q)
	if !g.Adjacent(0, 1) || !g.Adjacent(1, 2) || g.Adjacent(0, 2) {
		t.Error("chain adjacency wrong")
	}
	if !g.Joins(0, Single(1)) || g.Joins(0, Single(2)) {
		t.Error("Joins wrong")
	}
}

func TestFragmentConnected(t *testing.T) {
	g := mustGraph(chainQuery(3))
	if !g.FragmentConnected(Single(0).With(1)) {
		t.Error("{t1,t2} should be connected")
	}
	if g.FragmentConnected(Single(0).With(2)) {
		t.Error("{t1,t3} shares no variable, should be disconnected")
	}
	if !g.FragmentConnected(Single(0).With(1).With(2)) {
		t.Error("{t1,t2,t3} should be connected")
	}
	if g.FragmentConnected(0) {
		t.Error("empty fragment is not connected")
	}
}

func TestValid(t *testing.T) {
	g := mustGraph(chainQuery(3))
	cases := []struct {
		c    Cover
		want bool
	}{
		{NewCover(Single(0).With(1), Single(1).With(2)), true},
		{NewCover(Single(0).With(1).With(2)), true},                     // whole query
		{NewCover(Single(0), Single(1), Single(2)), true},               // per atom
		{NewCover(Single(0), Single(1)), false},                         // misses t3
		{NewCover(Single(0).With(1), Single(0).With(1).With(2)), false}, // inclusion
		{NewCover(Single(0).With(2), Single(1)), false},                 // cartesian fragment
		{Cover{}, false},
	}
	for _, c := range cases {
		if got := g.Valid(c.c); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestMinimal(t *testing.T) {
	if !NewCover(Single(0).With(1), Single(1).With(2)).Minimal() {
		t.Error("overlapping cover with private atoms should be minimal")
	}
	if NewCover(Single(0).With(1).With(2), Single(1).With(2)).Minimal() {
		t.Error("fragment fully covered by the other is not minimal")
	}
}

func TestWholeAndPerAtom(t *testing.T) {
	g := mustGraph(chainQuery(4))
	if !g.Valid(WholeQuery(4)) {
		t.Error("whole-query cover should be valid")
	}
	if !g.Valid(PerAtom(4)) {
		t.Error("per-atom cover should be valid on a connected query")
	}
	if len(PerAtom(4)) != 4 || len(WholeQuery(4)) != 1 {
		t.Error("cover shapes wrong")
	}
}

// The paper's Table 2 enumerates all eight covers of a three-atom query
// where every pair of atoms joins: UCQ, SCQ, three two-fragment covers of
// sizes {2,1}, and three of sizes {2,2} — our enumeration must find the
// same eight (the count the upper bound of Section 3 refers to).
func TestEnumerateMinimalTriangle(t *testing.T) {
	g := mustGraph(starQuery(3))
	var covers []Cover
	exhaustive := g.EnumerateMinimal(0, func(c Cover) bool {
		covers = append(covers, c)
		return true
	})
	if !exhaustive {
		t.Error("enumeration should be exhaustive")
	}
	if len(covers) != 8 {
		for _, c := range covers {
			t.Logf("  %v", c)
		}
		t.Fatalf("enumerated %d covers, want 8", len(covers))
	}
	seen := make(map[string]bool)
	for _, c := range covers {
		if seen[c.Key()] {
			t.Errorf("duplicate cover %v", c)
		}
		seen[c.Key()] = true
		if !g.Valid(c) || !c.Minimal() {
			t.Errorf("invalid or non-minimal cover %v", c)
		}
	}
}

func TestEnumerateChain(t *testing.T) {
	g := mustGraph(chainQuery(3))
	count := 0
	g.EnumerateMinimal(0, func(c Cover) bool {
		count++
		if !g.Valid(c) {
			t.Errorf("invalid cover %v", c)
		}
		return true
	})
	// Chain of 3: fragments must be contiguous runs. Covers: {123},
	// {1}{2}{3}, {12}{3}, {1}{23}, {12}{23} = 5.
	if count != 5 {
		t.Errorf("chain of 3 has %d covers, want 5", count)
	}
}

func TestEnumerateLimit(t *testing.T) {
	g := mustGraph(starQuery(5))
	count := 0
	exhaustive := g.EnumerateMinimal(3, func(c Cover) bool {
		count++
		return true
	})
	if exhaustive {
		t.Error("limited enumeration must report non-exhaustive")
	}
	if count > 3 {
		t.Errorf("visited %d covers, limit 3", count)
	}
}

// Every enumerated cover must be valid and minimal on random query shapes.
func TestEnumerateAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		var q bgp.CQ
		q.Head = []bgp.Term{bgp.V(0)}
		// Random connected query: atom i joins a random earlier atom.
		for i := 0; i < n; i++ {
			prev := uint32(0)
			if i > 0 {
				prev = uint32(rng.Intn(i*2 + 1))
			}
			q.Atoms = append(q.Atoms, bgp.Atom{
				S: bgp.V(prev), P: bgp.C(dict.ID(100 + i)), O: bgp.V(uint32(i*2 + 2)),
			})
		}
		g := mustGraph(q)
		g.EnumerateMinimal(10000, func(c Cover) bool {
			if !g.Valid(c) {
				t.Errorf("trial %d: invalid cover %v for %s", trial, c, q)
			}
			if !c.Minimal() {
				t.Errorf("trial %d: non-minimal cover %v", trial, c)
			}
			return true
		})
	}
}

func TestCoverQuery(t *testing.T) {
	// q(v0) :- t1(v0 p v1), t2(v1 p v2), t3(v2 p v3)
	q := chainQuery(3)
	// Fragment {t2}: head must be v1 (shared with t1) and v2 (shared
	// with t3); v0 (distinguished) is not in the fragment.
	sub := Query(q, Single(1))
	if len(sub.Atoms) != 1 || sub.Atoms[0] != q.Atoms[1] {
		t.Fatalf("fragment atoms wrong: %v", sub.Atoms)
	}
	if len(sub.Head) != 2 || sub.Head[0] != bgp.V(1) || sub.Head[1] != bgp.V(2) {
		t.Errorf("cover query head = %v, want [?v1 ?v2]", sub.Head)
	}
	// Fragment {t1,t2}: head = v0 (distinguished) and v2 (shared with t3).
	sub2 := Query(q, Single(0).With(1))
	if len(sub2.Head) != 2 || sub2.Head[0] != bgp.V(0) || sub2.Head[1] != bgp.V(2) {
		t.Errorf("cover query head = %v, want [?v0 ?v2]", sub2.Head)
	}
	// Whole query: head = distinguished vars only.
	sub3 := Query(q, Single(0).With(1).With(2))
	if len(sub3.Head) != 1 || sub3.Head[0] != bgp.V(0) {
		t.Errorf("whole-query head = %v, want [?v0]", sub3.Head)
	}
}

// mustGraph wraps NewGraph for queries the tests construct under the
// MaxAtoms limit.
func mustGraph(q bgp.CQ) *Graph {
	g, err := NewGraph(q)
	if err != nil {
		panic(err)
	}
	return g
}

// Queries beyond MaxAtoms do not fit the bitmask representation and
// must be rejected, not mis-indexed.
func TestNewGraphTooManyAtoms(t *testing.T) {
	if _, err := NewGraph(chainQuery(MaxAtoms + 1)); err == nil {
		t.Fatal("NewGraph accepted a query beyond MaxAtoms")
	}
	if g, err := NewGraph(chainQuery(MaxAtoms)); err != nil || g.N() != MaxAtoms {
		t.Fatalf("NewGraph rejected a query at the MaxAtoms limit: %v", err)
	}
}

// Key builds its bytes without fmt; they must be exactly the "%x." form
// per fragment the cover search's maps were keyed by, for random covers
// over every fragment width up to 64 atoms.
func TestCoverKeyMatchesFmtForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	covers := []Cover{nil, {0}, {1}, {Fragment(^uint64(0))}}
	for i := 0; i < 500; i++ {
		var c Cover
		for j := rng.Intn(6); j >= 0; j-- {
			c = append(c, Fragment(rng.Uint64()>>uint(rng.Intn(64))))
		}
		covers = append(covers, NewCover(c...))
	}
	for _, c := range covers {
		var want strings.Builder
		for _, f := range c {
			fmt.Fprintf(&want, "%x.", uint64(f))
		}
		if got := c.Key(); got != want.String() {
			t.Fatalf("cover %v: Key %q, fmt form %q", []Fragment(c), got, want.String())
		}
	}
}
