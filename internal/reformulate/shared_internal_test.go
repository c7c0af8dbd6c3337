package reformulate

import (
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/lubm"
	"repro/internal/schema"
	"repro/internal/sparql"
)

// lubmWorkload encodes the LUBM ontology and its 28 queries.
func lubmWorkload(t *testing.T) ([]bgp.CQ, *schema.Closed) {
	t.Helper()
	d := dict.New()
	sch := schema.New(schema.EncodeVocab(d))
	for _, tr := range lubm.Ontology() {
		s, p, o := d.EncodeTriple(tr)
		sch.AddTriple(s, p, o)
	}
	var qs []bgp.CQ
	for _, q := range lubm.Queries() {
		parsed, err := sparql.Parse(q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		enc, err := sparql.Encode(parsed, d)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		qs = append(qs, enc.CQ)
	}
	return qs, sch.Close()
}

// Sharing expansions between blocks changes no member: over the
// whole-query reformulations of the LUBM queries, Each streams exactly
// the members of a reference that expands every slot of every block on
// its own, and every block whose slot holds the same instantiated atom
// holds the very same alternatives slice.
func TestSharedExpansionsMatchUnsharedReference(t *testing.T) {
	qs, sch := lubmWorkload(t)
	for qi, q := range qs {
		r, err := Reformulate(q, sch)
		if err != nil {
			t.Fatal(err)
		}
		ref := &Reformulation{Query: q, Vars: r.Vars}
		for _, inst := range instantiate(q, sch) {
			blk := Block{Head: inst.Head}
			for i, a := range inst.Atoms {
				blk.Slots = append(blk.Slots, expandAtom(a, sch, r.FreshVar(i)))
			}
			ref.Blocks = append(ref.Blocks, blk)
		}

		var want []bgp.CQ
		ref.Each(func(cq bgp.CQ) bool { want = append(want, cq); return true })
		n := 0
		r.Each(func(cq bgp.CQ) bool {
			if n >= len(want) || !slices.Equal(cq.Head, want[n].Head) || !slices.Equal(cq.Atoms, want[n].Atoms) {
				t.Fatalf("query %d: member %d differs from the unshared reference", qi+1, n)
			}
			n++
			return true
		})
		if n != len(want) {
			t.Fatalf("query %d: %d members, reference has %d", qi+1, n, len(want))
		}

		type slotAtom struct {
			slot int
			atom bgp.Atom
		}
		backing := make(map[slotAtom]*bgp.Atom)
		for _, b := range r.Blocks {
			for i, alts := range b.Slots {
				k := slotAtom{i, alts[0]}
				if p, ok := backing[k]; !ok {
					backing[k] = &alts[0]
				} else if p != &alts[0] {
					t.Fatalf("query %d: slot %d atom %s expanded twice", qi+1, i, alts[0])
				}
			}
		}
	}
}
