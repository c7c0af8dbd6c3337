// Package reformulate implements the CQ-to-UCQ query reformulation
// algorithm of the database fragment of RDF (Reformulate, introduced by
// Goasdoué, Manolescu and Roatiş and recalled in Section 2.3 of the
// reproduced paper): given a conjunctive query q and the closed RDFS
// schema of a database, it produces the union of conjunctive queries whose
// evaluation against the *non-saturated* database returns q's complete
// answer set, q(db∞) = q_ref(db).
//
// The 13 reformulation rules fall into two groups, which the
// implementation exploits to keep the (often huge) output in factorized
// form:
//
//  1. Variable-instantiation rules. A variable in class position (the
//     object of an rdf:type atom) is bound to each class of the schema; a
//     variable in property position is bound to each schema property and
//     to rdf:type. Each binding is a query-wide substitution; the
//     unbound original is kept (it matches explicit triples, including
//     ones using values outside the schema). Binding a property variable
//     to rdf:type can place another variable in class position, so
//     instantiation iterates to fixpoint.
//
//  2. Atom-expansion rules, applied on the closed schema after
//     instantiation. With τ = rdf:type, ≼sc / ≼sp the closed class /
//     property inclusions, and ←d / ←r the closed domain / range typing:
//
//     (s, τ, c)  ⇒  (s, τ, c′)        for every c′ ≼sc c
//     (s, τ, c)  ⇒  (s, p, fresh)     for every p ←d c
//     (s, τ, c)  ⇒  (fresh, p, s)     for every p ←r c
//     (s, p, o)  ⇒  (s, p′, o)        for every p′ ≼sp p
//
//     Because the schema is closed, one expansion step is complete: a
//     subproperty of a property whose domain is a subclass of c is already
//     listed by ←d c. Schema-level atoms (rdfs:subClassOf etc.) need no
//     expansion: the closed constraint triples are loaded into the store,
//     the mixed-saturation arrangement the paper describes for
//     schema-only saturation.
//
// Crucially for this paper, expansion alternatives of different atoms are
// independent once instantiation has been applied, so a reformulation is a
// set of "blocks" (one per instantiation), each a cross product of
// per-atom alternative lists. |q_ref| and the cost-model quantities can be
// computed from this factorized form without materializing the union —
// which is what makes pricing a 300,000-CQ reformulation feasible — while
// Each and UCQ stream or materialize the members on demand.
package reformulate

import (
	"errors"
	"fmt"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/schema"
)

// ErrTooLarge is returned by UCQ when the reformulation has more member
// CQs than the requested limit (or than fits in an int).
var ErrTooLarge = errors.New("reformulate: union of conjunctive queries exceeds the materialization limit")

// Block is one variable instantiation of the query: the substituted head
// and, per original atom, the list of expansion alternatives. Every member
// CQ of the block picks one alternative per slot. Blocks whose slot holds
// the same instantiated atom share one alternatives slice, so Slots and
// the lists it holds are read-only.
type Block struct {
	Head  []bgp.Term
	Slots [][]bgp.Atom
}

// Size returns the number of member CQs of the block.
func (b Block) Size() int64 {
	n := int64(1)
	for _, alts := range b.Slots {
		n *= int64(len(alts))
		if n <= 0 {
			return -1 // overflow; treated as "too large" by callers
		}
	}
	return n
}

// Reformulation is the factorized CQ-to-UCQ reformulation of a query.
type Reformulation struct {
	// Query is the input conjunctive query.
	Query bgp.CQ
	// Vars names the head columns; Vars[i] is the variable of the
	// original query's i-th head term.
	Vars []uint32
	// Blocks holds one entry per variable instantiation.
	Blocks []Block

	freshBase uint32 // FreshVar(0)
}

// FreshVar returns the existential variable the domain and range rules
// introduce in slot i of every block.
func (r *Reformulation) FreshVar(i int) uint32 { return r.freshBase + uint32(i) }

// Reformulate computes the reformulation of q with respect to the closed
// schema. Every head term of q must be a variable (cover queries and
// user queries always satisfy this; reformulated members may not); a
// constant head position is reported as an error.
func Reformulate(q bgp.CQ, sch *schema.Closed) (*Reformulation, error) {
	r := &Reformulation{Query: q}
	for i, h := range q.Head {
		if !h.Var {
			return nil, fmt.Errorf("reformulate: head position %d of input query is not a variable: %s", i, q)
		}
		r.Vars = append(r.Vars, h.ID)
	}
	maxVar, _ := q.MaxVar()
	r.freshBase = maxVar + 1

	// Each distinct (instantiated atom, fresh variable) pair is expanded
	// once and shared by every block holding it. An atom no instantiation
	// touched reuses the original atom's expansion without a map lookup.
	orig := make([][]bgp.Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		orig[i] = expandAtom(a, sch, r.FreshVar(i))
	}
	type expansion struct {
		atom  [3]uint64
		fresh uint64
	}
	shared := make(map[expansion][]bgp.Atom)
	for _, inst := range instantiate(q, sch) {
		blk := Block{Head: inst.Head, Slots: make([][]bgp.Atom, len(inst.Atoms))}
		for i, a := range inst.Atoms {
			if a == q.Atoms[i] {
				blk.Slots[i] = orig[i]
				continue
			}
			k := expansion{a.Packed(), uint64(r.FreshVar(i))}
			alts, ok := shared[k]
			if !ok {
				alts = expandAtom(a, sch, r.FreshVar(i))
				shared[k] = alts
			}
			blk.Slots[i] = alts
		}
		r.Blocks = append(r.Blocks, blk)
	}
	return r, nil
}

// NumCQs returns the number of member CQs (|q_ref| in the paper's Table 4
// notation), or -1 if the count overflows int64.
func (r *Reformulation) NumCQs() int64 {
	var n int64
	for _, b := range r.Blocks {
		s := b.Size()
		if s < 0 {
			return -1
		}
		n += s
		if n < 0 {
			return -1
		}
	}
	return n
}

// Each streams every member CQ to f in a deterministic order, stopping
// early (and returning false) if f returns false.
func (r *Reformulation) Each(f func(bgp.CQ) bool) bool {
	for _, b := range r.Blocks {
		idx := make([]int, len(b.Slots))
		for {
			cq := bgp.CQ{Head: b.Head, Atoms: make([]bgp.Atom, len(b.Slots))}
			for i, alts := range b.Slots {
				cq.Atoms[i] = alts[idx[i]]
			}
			if !f(cq) {
				return false
			}
			// Advance the mixed-radix counter.
			i := len(idx) - 1
			for i >= 0 {
				idx[i]++
				if idx[i] < len(b.Slots[i]) {
					break
				}
				idx[i] = 0
				i--
			}
			if i < 0 {
				break
			}
		}
	}
	return true
}

// UCQ materializes the reformulation as a UCQ, deduplicating members that
// coincide up to variable renaming and atom reordering (the canonical key
// also used by the plan cache; the raw bgp.CQ.Key is order-sensitive, so
// two expansions that instantiate the same atoms through different slots
// used to survive dedup). It returns ErrTooLarge if the member count
// exceeds limit (limit <= 0 means no limit).
func (r *Reformulation) UCQ(limit int) (bgp.UCQ, error) {
	n := r.NumCQs()
	if n < 0 || (limit > 0 && n > int64(limit)) {
		return bgp.UCQ{}, fmt.Errorf("%w: %d members, limit %d", ErrTooLarge, n, limit)
	}
	// n counts duplicates, so it only bounds the members the union keeps;
	// sizing the slice and map by it would pin memory for CQs that dedup
	// away. Let append grow them to the honest size.
	u := bgp.UCQ{Vars: r.Vars}
	seen := make(map[string]struct{})
	r.Each(func(cq bgp.CQ) bool {
		k := cq.CanonicalKey()
		if _, dup := seen[k]; dup {
			return true
		}
		seen[k] = struct{}{}
		u.CQs = append(u.CQs, cq)
		return true
	})
	return u, nil
}

// instantiation is a variable instantiation of the query: the original
// query with some class- and property-position variables bound to schema
// values.
type instantiation struct {
	Head  []bgp.Term
	Atoms []bgp.Atom
}

type posKind uint8

const (
	classPos posKind = iota
	propPos
)

type decision struct {
	v    uint32
	kind posKind
}

// instantiate enumerates the variable instantiations of q: the cross
// product of, per class-position variable, "keep" plus each schema class,
// and per property-position variable, "keep" plus each schema property
// plus rdf:type. Binding a property variable to rdf:type can surface new
// class-position variables, which the worklist then revisits.
func instantiate(q bgp.CQ, sch *schema.Closed) []instantiation {
	start := instState{
		inst:    instantiation{Head: append([]bgp.Term(nil), q.Head...), Atoms: append([]bgp.Atom(nil), q.Atoms...)},
		decided: map[decision]bool{},
	}
	var done []instantiation
	stack := []instState{start}
	vocab := sch.Vocab()
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		d, ok := nextDecision(cur.inst.Atoms, cur.decided, vocab)
		if !ok {
			done = append(done, cur.inst)
			continue
		}

		// Option 1: keep the variable unbound.
		kept := instState{inst: cur.inst, decided: copyDecided(cur.decided)}
		kept.decided[d] = true
		stack = append(stack, kept)

		// Option 2..n: bind it to each applicable schema value.
		var values []dict.ID
		switch d.kind {
		case classPos:
			values = sch.Classes()
		case propPos:
			values = append(append(values, sch.Properties()...), vocab.Type)
		}
		for _, val := range values {
			stack = append(stack, cur.bind(d.v, bgp.C(val)))
		}
	}
	return done
}

// instState is one node of the instantiation search: a partially
// substituted query plus the positions already decided.
type instState struct {
	inst    instantiation
	decided map[decision]bool
}

// bind returns the state with variable v replaced by repl everywhere.
func (s instState) bind(v uint32, repl bgp.Term) instState {
	out := instState{
		inst: instantiation{
			Head:  make([]bgp.Term, len(s.inst.Head)),
			Atoms: make([]bgp.Atom, len(s.inst.Atoms)),
		},
		decided: copyDecided(s.decided),
	}
	for i, h := range s.inst.Head {
		if h.Var && h.ID == v {
			out.inst.Head[i] = repl
		} else {
			out.inst.Head[i] = h
		}
	}
	for i, a := range s.inst.Atoms {
		out.inst.Atoms[i] = a.Subst(v, repl)
	}
	return out
}

func copyDecided(m map[decision]bool) map[decision]bool {
	out := make(map[decision]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// nextDecision finds an undecided class- or property-position variable.
func nextDecision(atoms []bgp.Atom, decided map[decision]bool, vocab schema.Vocab) (decision, bool) {
	for _, a := range atoms {
		if a.P.Var {
			d := decision{v: a.P.ID, kind: propPos}
			if !decided[d] {
				return d, true
			}
		} else if a.P.Const() == vocab.Type && a.O.Var {
			d := decision{v: a.O.ID, kind: classPos}
			if !decided[d] {
				return d, true
			}
		}
	}
	return decision{}, false
}

// expandAtom returns the expansion alternatives of one (post-instantiation)
// atom: the atom itself plus the rule applications described in the package
// comment. freshVar is the variable number to use for the existential
// variable the domain/range rules introduce; it is unique per atom slot.
func expandAtom(a bgp.Atom, sch *schema.Closed, freshVar uint32) []bgp.Atom {
	out := []bgp.Atom{a}
	if a.P.Var {
		return out // property variables were handled by instantiation
	}
	vocab := sch.Vocab()
	p := a.P.Const()
	switch {
	case p == vocab.Type:
		if a.O.Var {
			return out // class variable kept unbound: explicit matches only
		}
		c := a.O.Const()
		for _, sub := range sch.SubClassesOf(c) {
			out = append(out, bgp.Atom{S: a.S, P: a.P, O: bgp.C(sub)})
		}
		for _, prop := range sch.PropertiesWithDomain(c) {
			out = append(out, bgp.Atom{S: a.S, P: bgp.C(prop), O: bgp.V(freshVar)})
		}
		for _, prop := range sch.PropertiesWithRange(c) {
			out = append(out, bgp.Atom{S: bgp.V(freshVar), P: bgp.C(prop), O: a.S})
		}
	case vocab.IsConstraintProperty(p):
		// Schema-level atom: answered against the closed constraint
		// triples loaded in the store.
	default:
		for _, sub := range sch.SubPropertiesOf(p) {
			out = append(out, bgp.Atom{S: a.S, P: bgp.C(sub), O: a.O})
		}
	}
	return out
}
