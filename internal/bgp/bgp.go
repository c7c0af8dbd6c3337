// Package bgp defines the dictionary-encoded query algebra shared by the
// reformulation, cover-enumeration, cost-estimation and evaluation layers:
//
//   - CQ: a conjunctive query (SPARQL Basic Graph Pattern) whose atoms are
//     triple patterns over dictionary IDs and variables;
//   - UCQ: a union of CQs with positionally compatible heads;
//   - JUCQ: a join of UCQs (Definition 3.1 of the paper), the reformulation
//     language this reproduction optimizes over.
//
// Variables are small dense integers scoped to one query. Reformulation may
// bind a head variable to a constant (Example 4 of the paper: q(x, Book)),
// so CQ heads are Terms (variable or constant), while the variable *names*
// of a UCQ's columns are carried by UCQ.Vars.
package bgp

import (
	"fmt"
	"strings"

	"repro/internal/dict"
)

// Term is one position of a triple pattern or query head: either a
// variable (Var true, ID is the variable number) or a constant
// (Var false, ID is a dictionary code).
type Term struct {
	Var bool
	ID  uint32
}

// V returns a variable term.
func V(v uint32) Term { return Term{Var: true, ID: v} }

// C returns a constant term for a dictionary ID.
func C(id dict.ID) Term { return Term{Var: false, ID: uint32(id)} }

// Const returns the dictionary ID of a constant term; it panics on a
// variable, which always indicates a caller bug.
func (t Term) Const() dict.ID {
	if t.Var {
		//lint:ignore panicfree documented invariant accessor: callers must test Var first, so this is unreachable outside a caller bug
		panic("bgp: Const called on a variable term")
	}
	return dict.ID(t.ID)
}

// String renders the term for debugging: ?v3 or #42.
func (t Term) String() string {
	if t.Var {
		return fmt.Sprintf("?v%d", t.ID)
	}
	return fmt.Sprintf("#%d", t.ID)
}

// Atom is a triple pattern (s, p, o) over Terms.
type Atom struct {
	S, P, O Term
}

// Positions returns the three terms in subject, property, object order.
func (a Atom) Positions() [3]Term { return [3]Term{a.S, a.P, a.O} }

// Vars appends the variables of the atom to dst and returns it; a variable
// occurring twice is appended twice.
func (a Atom) Vars(dst []uint32) []uint32 {
	for _, t := range a.Positions() {
		if t.Var {
			dst = append(dst, t.ID)
		}
	}
	return dst
}

// HasVar reports whether variable v occurs in the atom.
func (a Atom) HasVar(v uint32) bool {
	return a.S.Var && a.S.ID == v || a.P.Var && a.P.ID == v || a.O.Var && a.O.ID == v
}

// SharesVar reports whether the two atoms share at least one variable —
// the "joins with" relation used by query covers (Definition 3.3).
func (a Atom) SharesVar(b Atom) bool {
	for _, t := range a.Positions() {
		if t.Var && b.HasVar(t.ID) {
			return true
		}
	}
	return false
}

// Packed returns the atom as three words, each a term's ID with its
// variable flag in bit 32: a map key that hashes as plain memory.
func (a Atom) Packed() [3]uint64 {
	var w [3]uint64
	for i, t := range a.Positions() {
		w[i] = uint64(t.ID)
		if t.Var {
			w[i] |= 1 << 32
		}
	}
	return w
}

// Subst returns the atom with every occurrence of variable v replaced by
// term repl.
func (a Atom) Subst(v uint32, repl Term) Atom {
	sub := func(t Term) Term {
		if t.Var && t.ID == v {
			return repl
		}
		return t
	}
	return Atom{S: sub(a.S), P: sub(a.P), O: sub(a.O)}
}

// String renders the atom for debugging.
func (a Atom) String() string {
	return a.S.String() + " " + a.P.String() + " " + a.O.String()
}

// CQ is a conjunctive query: head terms over body atoms. Head entries are
// usually variables; reformulation can turn them into constants.
type CQ struct {
	Head  []Term
	Atoms []Atom
}

// MaxVar returns the largest variable number occurring in the query
// (head or body), and ok=false if the query has no variables.
func (q CQ) MaxVar() (max uint32, ok bool) {
	consider := func(t Term) {
		if t.Var && (!ok || t.ID > max) {
			max, ok = t.ID, true
		}
	}
	for _, t := range q.Head {
		consider(t)
	}
	for _, a := range q.Atoms {
		consider(a.S)
		consider(a.P)
		consider(a.O)
	}
	return max, ok
}

// VarSet returns the set of variables occurring in the body.
func (q CQ) VarSet() map[uint32]struct{} {
	set := make(map[uint32]struct{})
	var buf []uint32
	for _, a := range q.Atoms {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			set[v] = struct{}{}
		}
	}
	return set
}

// Subst returns a copy of the query with variable v replaced by repl in
// the head and every atom.
func (q CQ) Subst(v uint32, repl Term) CQ {
	out := CQ{Head: make([]Term, len(q.Head)), Atoms: make([]Atom, len(q.Atoms))}
	for i, t := range q.Head {
		if t.Var && t.ID == v {
			out.Head[i] = repl
		} else {
			out.Head[i] = t
		}
	}
	for i, a := range q.Atoms {
		out.Atoms[i] = a.Subst(v, repl)
	}
	return out
}

// Clone returns a deep copy of the query.
func (q CQ) Clone() CQ {
	out := CQ{Head: make([]Term, len(q.Head)), Atoms: make([]Atom, len(q.Atoms))}
	copy(out.Head, q.Head)
	copy(out.Atoms, q.Atoms)
	return out
}

// Key returns a canonical string for the query with variables renamed in
// order of first appearance, so two CQs equal up to variable renaming get
// the same key. Used for duplicate elimination in reformulation outputs.
func (q CQ) Key() string {
	rename := make(map[uint32]int)
	var b strings.Builder
	writeTerm := func(t Term) {
		if t.Var {
			n, ok := rename[t.ID]
			if !ok {
				n = len(rename)
				rename[t.ID] = n
			}
			fmt.Fprintf(&b, "?%d", n)
		} else {
			fmt.Fprintf(&b, "#%d", t.ID)
		}
		b.WriteByte(' ')
	}
	for _, t := range q.Head {
		writeTerm(t)
	}
	b.WriteByte('|')
	for _, a := range q.Atoms {
		writeTerm(a.S)
		writeTerm(a.P)
		writeTerm(a.O)
		b.WriteByte('.')
	}
	return b.String()
}

// canonMaxStates bounds the branch-and-bound frontier of CanonicalKey.
// Keeping every tie would be exponential in pathological symmetric queries;
// truncating the frontier can only make the chosen atom order suboptimal,
// never unsound (see CanonicalKey), so a small cap is safe.
const canonMaxStates = 256

// canonState is one partial atom ordering during canonicalization: which
// atoms were already emitted and the variable numbering they induced.
type canonState struct {
	mask   uint64
	rename map[uint32]int
}

// CanonicalKey returns a canonical string for the query that is invariant
// under variable renaming AND body-atom reordering, strengthening Key
// (which renames but is order-sensitive). Two CQs with equal canonical
// keys are isomorphic: every emitted key is the faithful rendering of the
// query under *some* atom permutation and first-appearance renaming, so
// equal keys always denote equal queries — the frontier cap above only
// risks two isomorphic queries picking different permutations (a missed
// match, e.g. a spurious cache miss), never a false match.
//
// The key is built greedily: the head is rendered first (pinning the head
// variables' canonical numbers), then at each step the unused atom whose
// rendering under the current numbering is lexicographically smallest is
// emitted, branching on ties. Queries with more than 64 atoms fall back
// to Key (the cover layer never sees them; see cover.MaxAtoms).
func (q CQ) CanonicalKey() string {
	if len(q.Atoms) > 64 {
		return q.Key()
	}
	base := make(map[uint32]int)
	var b strings.Builder
	for _, t := range q.Head {
		if t.Var {
			n, ok := base[t.ID]
			if !ok {
				n = len(base)
				base[t.ID] = n
			}
			fmt.Fprintf(&b, "?%d", n)
		} else {
			fmt.Fprintf(&b, "#%d", t.ID)
		}
		b.WriteByte(' ')
	}
	b.WriteByte('|')
	states := []canonState{{mask: 0, rename: base}}
	n := len(q.Atoms)
	for step := 0; step < n; step++ {
		var best string
		var next []canonState
		for _, st := range states {
			for i := 0; i < n; i++ {
				if st.mask&(1<<uint(i)) != 0 {
					continue
				}
				s, fresh := renderCanonAtom(q.Atoms[i], st.rename)
				if len(next) > 0 && s > best {
					continue
				}
				if len(next) == 0 || s < best {
					best = s
					next = next[:0]
				}
				r2 := make(map[uint32]int, len(st.rename)+len(fresh))
				for k, v := range st.rename {
					r2[k] = v
				}
				for _, v := range fresh {
					r2[v] = len(r2)
				}
				next = append(next, canonState{mask: st.mask | 1<<uint(i), rename: r2})
			}
		}
		b.WriteString(best)
		b.WriteByte('.')
		states = dedupCanonStates(next)
		if len(states) > canonMaxStates {
			states = states[:canonMaxStates]
		}
	}
	return b.String()
}

// renderCanonAtom renders the atom under the given variable numbering,
// numbering unseen variables on from len(rename) in order of appearance.
// It returns the rendering and the unseen variables in appearance order
// (so the caller can extend the numbering if it keeps this candidate).
func renderCanonAtom(a Atom, rename map[uint32]int) (string, []uint32) {
	var b strings.Builder
	var fresh []uint32
	for _, t := range a.Positions() {
		if !t.Var {
			fmt.Fprintf(&b, "#%d ", t.ID)
			continue
		}
		idx, ok := rename[t.ID]
		if !ok {
			idx = -1
			for j, v := range fresh {
				if v == t.ID {
					idx = len(rename) + j
					break
				}
			}
			if idx < 0 {
				idx = len(rename) + len(fresh)
				fresh = append(fresh, t.ID)
			}
		}
		fmt.Fprintf(&b, "?%d ", idx)
	}
	return b.String(), fresh
}

// dedupCanonStates drops states that are equivalent for every future
// rendering decision: same emitted-atom set and same induced numbering.
func dedupCanonStates(states []canonState) []canonState {
	if len(states) < 2 {
		return states
	}
	seen := make(map[string]struct{}, len(states))
	out := states[:0]
	for _, st := range states {
		inv := make([]uint32, len(st.rename))
		for v, i := range st.rename {
			inv[i] = v
		}
		var k strings.Builder
		fmt.Fprintf(&k, "%x|", st.mask)
		for _, v := range inv {
			fmt.Fprintf(&k, "%d,", v)
		}
		if _, dup := seen[k.String()]; dup {
			continue
		}
		seen[k.String()] = struct{}{}
		out = append(out, st)
	}
	return out
}

// String renders the query for debugging.
func (q CQ) String() string {
	var b strings.Builder
	b.WriteString("q(")
	for i, t := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString(") :- ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	return b.String()
}

// UCQ is a union of conjunctive queries. Vars names the head columns: for
// every member CQ, Head[i] produces the value of variable Vars[i]. All
// member heads have len(Vars) entries.
type UCQ struct {
	Vars []uint32
	CQs  []CQ
}

// Arity returns the number of head columns.
func (u UCQ) Arity() int { return len(u.Vars) }

// Validate checks the positional head invariant, returning a descriptive
// error on the first violation.
func (u UCQ) Validate() error {
	for i, q := range u.CQs {
		if len(q.Head) != len(u.Vars) {
			return fmt.Errorf("bgp: UCQ member %d has arity %d, want %d", i, len(q.Head), len(u.Vars))
		}
	}
	return nil
}

// JUCQ is a join of UCQs: the arms are joined on the variables they share
// (by name, via each arm's Vars), and the result is projected on Head.
// A JUCQ with a single arm is a plain UCQ; a JUCQ whose arms are all
// single-atom UCQ reformulations is the SCQ of Thomazo et al. that the
// paper generalizes.
type JUCQ struct {
	Head []uint32
	Arms []UCQ
}

// Validate checks that every head variable is produced by some arm.
func (j JUCQ) Validate() error {
	produced := make(map[uint32]struct{})
	for _, arm := range j.Arms {
		if err := arm.Validate(); err != nil {
			return err
		}
		for _, v := range arm.Vars {
			produced[v] = struct{}{}
		}
	}
	for _, v := range j.Head {
		if _, ok := produced[v]; !ok {
			return fmt.Errorf("bgp: JUCQ head variable ?v%d is not produced by any arm", v)
		}
	}
	return nil
}
