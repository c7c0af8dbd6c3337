// Package cover implements BGP query covers (Definition 3.3 of the
// paper), cover queries (Definition 3.4) and the enumeration of the
// cover-based reformulation search space that ECov explores.
//
// A cover of a query with atoms t1..tn is a set of fragments — non-empty,
// possibly overlapping subsets of the atoms — whose union is all the
// atoms, with no fragment included in another, and (when there is more
// than one fragment) every fragment sharing a variable with another. As
// the paper notes after its Theorem 3.1, fragments are additionally
// required to be internally connected so that no cover query features a
// cartesian product.
//
// Fragments are bitmasks over atom positions, so queries of up to 64
// atoms are supported — far beyond the paper's 10-atom maximum.
package cover

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bgp"
)

// Fragment is a set of atom indexes of one query, as a bitmask.
type Fragment uint64

// MaxAtoms is the largest query size the bitmask representation handles.
const MaxAtoms = 64

// Single returns the fragment containing only atom i.
func Single(i int) Fragment { return 1 << uint(i) }

// Has reports whether atom i is in the fragment.
func (f Fragment) Has(i int) bool { return f&(1<<uint(i)) != 0 }

// With returns the fragment extended with atom i.
func (f Fragment) With(i int) Fragment { return f | 1<<uint(i) }

// Count returns the number of atoms in the fragment.
func (f Fragment) Count() int { return bits.OnesCount64(uint64(f)) }

// ContainsAll reports whether f includes every atom of g.
func (f Fragment) ContainsAll(g Fragment) bool { return f&g == g }

// Atoms returns the atom indexes of the fragment in increasing order.
func (f Fragment) Atoms() []int {
	out := make([]int, 0, f.Count())
	for i := 0; i < MaxAtoms; i++ {
		if f.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the fragment as {t1,t3}.
func (f Fragment) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for n, i := range f.Atoms() {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "t%d", i+1)
	}
	b.WriteByte('}')
	return b.String()
}

// Cover is a set of fragments, kept sorted so equal covers have equal
// representations (and Key values).
type Cover []Fragment

// NewCover returns a canonical (sorted, deduplicated) cover.
func NewCover(frags ...Fragment) Cover {
	c := append(Cover(nil), frags...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	w := 0
	for i, f := range c {
		if i == 0 || f != c[i-1] {
			c[w] = f
			w++
		}
	}
	return c[:w]
}

// Key returns a canonical map key for the cover: each fragment's bits in
// lowercase hex, each followed by a dot.
func (c Cover) Key() string {
	b := make([]byte, 0, 8*len(c))
	for _, f := range c {
		b = strconv.AppendUint(b, uint64(f), 16)
		b = append(b, '.')
	}
	return string(b)
}

// Union returns the union of all fragments.
func (c Cover) Union() Fragment {
	var u Fragment
	for _, f := range c {
		u |= f
	}
	return u
}

// String renders the cover as {{t1,t2},{t3}}.
func (c Cover) String() string {
	parts := make([]string, len(c))
	for i, f := range c {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Graph is the variable-sharing structure of one query: adj[i][j] reports
// whether atoms i and j share a variable (the paper's "joins with").
type Graph struct {
	n   int
	adj [][]bool
}

// NewGraph builds the sharing graph of the query. Queries beyond
// MaxAtoms atoms do not fit the bitmask fragment representation and are
// reported as an error.
func NewGraph(q bgp.CQ) (*Graph, error) {
	n := len(q.Atoms)
	if n > MaxAtoms {
		return nil, fmt.Errorf("cover: query has %d atoms, limit is %d", n, MaxAtoms)
	}
	g := &Graph{n: n, adj: make([][]bool, n)}
	for i := range g.adj {
		g.adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if q.Atoms[i].SharesVar(q.Atoms[j]) {
				g.adj[i][j] = true
				g.adj[j][i] = true
			}
		}
	}
	return g, nil
}

// N returns the number of atoms.
func (g *Graph) N() int { return g.n }

// Adjacent reports whether atoms i and j share a variable.
func (g *Graph) Adjacent(i, j int) bool { return g.adj[i][j] }

// Joins reports whether atom i shares a variable with any atom of f.
func (g *Graph) Joins(i int, f Fragment) bool {
	for j := 0; j < g.n; j++ {
		if f.Has(j) && g.adj[i][j] {
			return true
		}
	}
	return false
}

// FragmentConnected reports whether the fragment's atoms form a single
// connected component under variable sharing (so its cover query has no
// cartesian product).
func (g *Graph) FragmentConnected(f Fragment) bool {
	atoms := f.Atoms()
	if len(atoms) <= 1 {
		return len(atoms) == 1
	}
	seen := Fragment(0).With(atoms[0])
	stack := []int{atoms[0]}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range atoms {
			if !seen.Has(j) && g.adj[i][j] {
				seen = seen.With(j)
				stack = append(stack, j)
			}
		}
	}
	return seen == f
}

// FragmentsJoin reports whether fragments a and b share a variable:
// either they overlap on an atom, or some atom of a is adjacent to some
// atom of b.
func (g *Graph) FragmentsJoin(a, b Fragment) bool {
	if a&b != 0 {
		return true
	}
	for i := 0; i < g.n; i++ {
		if a.Has(i) && g.Joins(i, b) {
			return true
		}
	}
	return false
}

// Valid reports whether c is a cover per Definition 3.3, with the no-
// cartesian-product strengthening: fragments non-empty and internally
// connected, union covering all atoms, no inclusion between fragments,
// and (if more than one) every fragment joining at least one other.
func (g *Graph) Valid(c Cover) bool {
	if len(c) == 0 {
		return false
	}
	all := Fragment(0)
	for i := 0; i < g.n; i++ {
		all = all.With(i)
	}
	if c.Union() != all {
		return false
	}
	for i, f := range c {
		if f == 0 || !g.FragmentConnected(f) {
			return false
		}
		for j, h := range c {
			if i != j && h.ContainsAll(f) {
				return false
			}
		}
	}
	if len(c) > 1 {
		for _, f := range c {
			joins := false
			for _, h := range c {
				if h != f && g.FragmentsJoin(f, h) {
					joins = true
					break
				}
			}
			if !joins {
				return false
			}
		}
	}
	return true
}

// Minimal reports whether every fragment covers at least one atom no
// other fragment covers (the minimal-cover bound the paper cites for the
// size of the search space).
func (c Cover) Minimal() bool {
	for i, f := range c {
		others := Fragment(0)
		for j, h := range c {
			if i != j {
				others |= h
			}
		}
		if others.ContainsAll(f) {
			return false
		}
	}
	return true
}

// WholeQuery returns the single-fragment cover (the UCQ reformulation's
// cover).
func WholeQuery(n int) Cover {
	f := Fragment(0)
	for i := 0; i < n; i++ {
		f = f.With(i)
	}
	return Cover{f}
}

// PerAtom returns the one-atom-per-fragment cover (the SCQ
// reformulation's cover).
func PerAtom(n int) Cover {
	c := make(Cover, n)
	for i := 0; i < n; i++ {
		c[i] = Single(i)
	}
	return c
}

// EnumerateMinimal enumerates every valid minimal cover of the query,
// calling visit for each; it stops early when visit returns false or
// after max covers (max <= 0 means unlimited) and reports whether the
// enumeration was exhaustive.
func (g *Graph) EnumerateMinimal(max int, visit func(Cover) bool) (exhaustive bool) {
	// Candidate fragments: every internally connected non-empty subset.
	var candidates []Fragment
	seen := make(map[Fragment]bool)
	var collect func(f Fragment)
	collect = func(f Fragment) {
		if seen[f] {
			return
		}
		seen[f] = true
		candidates = append(candidates, f)
		for i := 0; i < g.n; i++ {
			if !f.Has(i) && g.Joins(i, f) {
				collect(f.With(i))
			}
		}
	}
	for i := 0; i < g.n; i++ {
		collect(Single(i))
	}

	// Enumerate minimal set covers: branch on the lowest uncovered atom.
	// Different branch orders can assemble the same cover, so emitted
	// covers are deduplicated by canonical key. Two safeguards keep the
	// recursion tractable on wide queries (the paper's 10-atom DBLP
	// query, where exhaustive search becomes infeasible): minimality is
	// enforced *during* descent — adding a fragment that strips every
	// private atom from an already-chosen fragment is pruned immediately
	// — and the total number of visited search nodes is bounded, marking
	// the enumeration non-exhaustive when the bound trips.
	count := 0
	nodes := 0
	maxNodes := 1 << 22
	if max > 0 && max*256 > maxNodes {
		maxNodes = max * 256
	}
	exhaustive = true
	emitted := make(map[string]bool)
	var rec func(covered Fragment, chosen []Fragment) bool
	rec = func(covered Fragment, chosen []Fragment) bool {
		nodes++
		if nodes > maxNodes {
			exhaustive = false
			return false
		}
		if max > 0 && count >= max {
			exhaustive = false
			return false
		}
		first := -1
		for i := 0; i < g.n; i++ {
			if !covered.Has(i) {
				first = i
				break
			}
		}
		if first == -1 {
			c := NewCover(chosen...)
			if !c.Minimal() || !g.Valid(c) {
				return true
			}
			k := c.Key()
			if emitted[k] {
				return true
			}
			emitted[k] = true
			count++
			return visit(c)
		}
		for _, f := range candidates {
			if !f.Has(first) {
				continue
			}
			// Skip fragments fully covered already: they would be
			// redundant.
			if covered.ContainsAll(f) {
				continue
			}
			// Minimality pruning: every already-chosen fragment must
			// keep an atom that no other fragment (including f) covers.
			ok := true
			for i, gch := range chosen {
				others := f
				for j, h := range chosen {
					if j != i {
						others |= h
					}
				}
				if others.ContainsAll(gch) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if !rec(covered|f, append(chosen, f)) {
				return false
			}
		}
		return true
	}
	rec(0, nil)
	return exhaustive
}

// Query builds the cover query of fragment f w.r.t. query q
// (Definition 3.4): the fragment's atoms, with head variables being q's
// distinguished variables occurring in the fragment plus the variables
// shared with atoms outside the fragment. Head variables are emitted in
// increasing variable order, so equal fragments always produce identical
// cover queries.
func Query(q bgp.CQ, f Fragment) bgp.CQ {
	inVars := make(map[uint32]bool)
	outVars := make(map[uint32]bool)
	var buf []uint32
	for i, a := range q.Atoms {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			if f.Has(i) {
				inVars[v] = true
			} else {
				outVars[v] = true
			}
		}
	}
	distinguished := make(map[uint32]bool)
	for _, h := range q.Head {
		if h.Var {
			distinguished[h.ID] = true
		}
	}
	var headIDs []uint32
	for v := range inVars {
		if distinguished[v] || outVars[v] {
			headIDs = append(headIDs, v)
		}
	}
	sort.Slice(headIDs, func(i, j int) bool { return headIDs[i] < headIDs[j] })

	sub := bgp.CQ{Head: make([]bgp.Term, 0, len(headIDs))}
	for _, v := range headIDs {
		sub.Head = append(sub.Head, bgp.V(v))
	}
	for _, i := range f.Atoms() {
		sub.Atoms = append(sub.Atoms, q.Atoms[i])
	}
	return sub
}
