package dict

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

// FuzzDictionaryIdentity drives Encode with terms built from the fuzzed
// strings, interleaved with reads through views taken earlier, and checks
// the identity contract against a model keyed by canonical spelling: two
// terms share an ID exactly when they spell alike, a view's Term(id)
// spells the first term encoded under id, and a view's answers never
// change while the dictionary grows past it.
//
// Each byte of script is one step. Its low two bits pick the action:
// encode a term (0), encode a triple through EncodeTriple (1), take a
// view (2), or re-read every view taken (3). For an encode, the other
// bits pick the kind, the value (one of the strings, their
// concatenation, a long repeat that takes chunks of its own, or the
// empty value), and the datatype and language tag; a triple's subject is
// that term, and its property and object are the terms the same bits
// shifted by one and by two pick, so its positions often share a term.
func FuzzDictionaryIdentity(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 1, 3, 0x10, 0x31, 3}, "http://x/a", "chat", "en")
	f.Add([]byte{0x40, 0x44, 2, 0xc0, 0xc4, 0x80, 3, 0xfc, 3}, "a\xff", "a\xfe", "")
	f.Add([]byte{0x70, 2, 0x71, 0x72, 3, 0x20, 0x60, 3}, "", "\"q\"\n", "http://x/t")
	f.Fuzz(func(t *testing.T, script []byte, a, b, c string) {
		d := New()
		model := make(map[string]ID) // canonical spelling -> ID
		var first []rdf.Term         // first[i] was encoded first under ID i+1
		type view struct {
			v    View
			seen []string // the canonical spelling of each ID, as first read
		}
		var views []view
		check := func(w view) {
			for i, want := range w.seen {
				if got := w.v.Term(ID(i + 1)).Canonical(); got != want {
					t.Fatalf("view of %d IDs: Term(%d) = %s, first read as %s", len(w.seen), i+1, got, want)
				}
			}
		}
		for _, op := range script {
			switch op & 3 {
			case 2:
				w := view{v: d.View()}
				for i, term := range first {
					got := w.v.Term(ID(i + 1))
					if got.Canonical() != term.Canonical() {
						t.Fatalf("Term(%d) = %s, first encoded %s", i+1, got.Canonical(), term.Canonical())
					}
					w.seen = append(w.seen, got.Canonical())
				}
				views = append(views, w)
				continue
			case 3:
				for _, w := range views {
					check(w)
				}
				continue
			}
			// expect returns the ID the model gives term, assigning the
			// next one if it is new.
			expect := func(term rdf.Term) ID {
				key := term.Canonical()
				want, known := model[key]
				if !known {
					first = append(first, term)
					want = ID(len(first))
					model[key] = want
				}
				return want
			}
			terms := []rdf.Term{fuzzTerm(op>>2, a, b, c)}
			if op&3 == 0 {
				want := expect(terms[0])
				if got := d.Encode(terms[0]); got != want {
					t.Fatalf("Encode(%#v) = %d, the model says %d", terms[0], got, want)
				}
			} else {
				terms = append(terms, fuzzTerm(op>>3, a, b, c), fuzzTerm(op>>4, a, b, c))
				want := [3]ID{expect(terms[0]), expect(terms[1]), expect(terms[2])}
				s, p, o := d.EncodeTriple(rdf.NewTriple(terms[0], terms[1], terms[2]))
				if got := [3]ID{s, p, o}; got != want {
					t.Fatalf("EncodeTriple(%#v) = %v, the model says %v", terms, got, want)
				}
			}
			for _, term := range terms {
				if got, ok := d.Lookup(term); !ok || got != model[term.Canonical()] {
					t.Fatalf("Lookup(%#v) = %d, %v after encoding gave %d", term, got, ok, model[term.Canonical()])
				}
			}
		}
		for _, w := range views {
			check(w)
		}
		if d.Len() != len(first) {
			t.Fatalf("Len = %d, the model has %d terms", d.Len(), len(first))
		}
	})
}

// fuzzTerm builds a term from six bits: two for the kind, two for the
// value and two for the suffixes.
func fuzzTerm(bits byte, a, b, c string) rdf.Term {
	kind := []rdf.TermKind{rdf.IRI, rdf.Blank, rdf.Literal, rdf.Literal}[bits&3]
	var value string
	switch bits >> 2 & 3 {
	case 0:
		value = a
	case 1:
		value = b
	case 2:
		value = a + b
	case 3:
		value = strings.Repeat(c+"|", 1+(largeValue+len(a))%(3*chunkSize)/(len(c)+1))
	}
	term := rdf.Term{Kind: kind, Value: value}
	switch bits >> 4 & 3 {
	case 1:
		term.Datatype = rdf.XSDInteger
	case 2:
		term.Datatype = c
	case 3:
		term.Lang = c
	}
	return term
}
