package dict

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func TestEncodeLookupRoundTrip(t *testing.T) {
	d := New()
	a := rdf.NewIRI("http://example.org/a")
	b := rdf.NewLiteral("hello")

	ida := d.Encode(a)
	idb := d.Encode(b)
	if ida == None || idb == None {
		t.Fatal("Encode returned the reserved None ID")
	}
	if ida == idb {
		t.Fatal("distinct terms got the same ID")
	}
	if again := d.Encode(a); again != ida {
		t.Errorf("re-encoding gave %d, want %d", again, ida)
	}
	if got := d.Term(ida); got != a {
		t.Errorf("Term(%d) = %v, want %v", ida, got, a)
	}
	if got, ok := d.Lookup(b); !ok || got != idb {
		t.Errorf("Lookup = (%d,%v)", got, ok)
	}
	if _, ok := d.Lookup(rdf.NewIRI("http://absent")); ok {
		t.Error("Lookup found an absent term")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestTermPanicsOnUnassigned(t *testing.T) {
	d := New()
	d.Encode(rdf.NewIRI("x"))
	for _, id := range []ID{None, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Term(%d) did not panic", id)
				}
			}()
			d.Term(id)
		}()
	}
}

func TestEncodeTriple(t *testing.T) {
	d := New()
	tr := rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral("o"))
	s, p, o := d.EncodeTriple(tr)
	if got := d.DecodeTriple(s, p, o); got != tr {
		t.Errorf("DecodeTriple = %v, want %v", got, tr)
	}
}

// Encoding is injective and stable: equal terms share an ID, distinct
// terms never do, and decoding returns the original term.
func TestEncodeProperty(t *testing.T) {
	d := New()
	f := func(values []string) bool {
		ids := make(map[ID]rdf.Term)
		for _, v := range values {
			term := rdf.NewLiteral(v)
			id := d.Encode(term)
			if prev, ok := ids[id]; ok && prev != term {
				return false
			}
			ids[id] = term
			if d.Term(id) != term {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentEncode(t *testing.T) {
	d := New()
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	results := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]ID, perG)
			for i := 0; i < perG; i++ {
				// All goroutines encode the same value sequence, racing
				// on assignment.
				results[g][i] = d.Encode(rdf.NewIRI(fmt.Sprintf("http://x/%d", i)))
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != perG {
		t.Fatalf("Len = %d, want %d", d.Len(), perG)
	}
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got ID %d for value %d, goroutine 0 got %d",
					g, results[g][i], i, results[0][i])
			}
		}
	}
}

func TestNewWithCapacity(t *testing.T) {
	d := NewWithCapacity(100)
	if d.Len() != 0 {
		t.Error("fresh dictionary not empty")
	}
	if id := d.Encode(rdf.NewIRI("a")); id != 1 {
		t.Errorf("first ID = %d, want 1", id)
	}
}

// randomTerm draws from a small space, so that terms repeat and collide:
// every kind (and one the rdf package does not know), values with invalid
// UTF-8 that render alike, and literals with either suffix, both, or none.
func randomTerm(rng *rand.Rand, values int) rdf.Term {
	var value string
	switch rng.Intn(8) {
	case 0:
		value = []string{"a\xff", "a\xfe", "a\uFFFD", "a", "", "\xed\xa0\x80", "\"q\"\n"}[rng.Intn(7)]
	default:
		value = fmt.Sprintf("http://x/%d", rng.Intn(values))
	}
	datatype := []string{"", "", rdf.XSDInteger, "http://x/t"}[rng.Intn(4)]
	lang := []string{"", "", "", "en", "http://x/t"}[rng.Intn(5)]
	kind := []rdf.TermKind{rdf.IRI, rdf.Literal, rdf.Literal, rdf.Blank, rdf.TermKind(7)}[rng.Intn(5)]
	return rdf.Term{Kind: kind, Value: value, Datatype: datatype, Lang: lang}
}

// The dictionary agrees with a map keyed by the canonical spelling, which
// is its identity: the same IDs in the same first-seen order, the same
// Lookup answers, and Term returning the first term seen under an ID. The
// index starts at its smallest size and grows many times on the way.
func TestEncodeMatchesCanonicalModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := New()
	model := make(map[string]ID)
	var first []rdf.Term // first[i] is the first term seen under ID i+1
	for i := 0; i < 40_000; i++ {
		term := randomTerm(rng, 4_000)
		key := term.Canonical()
		if i%3 == 0 {
			want, known := model[key]
			if got, ok := d.Lookup(term); ok != known || got != want {
				t.Fatalf("Lookup(%#v) = %d, %v; model has %d, %v", term, got, ok, want, known)
			}
			continue
		}
		want, known := model[key]
		if !known {
			first = append(first, term)
			want = ID(len(first))
			model[key] = want
		}
		if got := d.Encode(term); got != want {
			t.Fatalf("Encode(%#v) = %d, want %d", term, got, want)
		}
	}
	if d.Len() != len(first) || len(first) < 1_000 {
		t.Fatalf("Len = %d, model %d: the index did not grow far", d.Len(), len(first))
	}
	v := d.View()
	for i, want := range first {
		if got := v.Term(ID(i + 1)); got != want {
			t.Fatalf("Term(%d) = %#v, want %#v", i+1, got, want)
		}
	}
}

// Literals are spelled rune by rune, each invalid byte as U+FFFD, so two
// literals whose invalid bytes differ share one ID, with a literal
// holding U+FFFD itself. IRIs and blank nodes are spelled byte for byte.
func TestInvalidUTF8Identity(t *testing.T) {
	d := New()
	lit := d.Encode(rdf.NewLiteral("a\xff"))
	for _, same := range []rdf.Term{rdf.NewLiteral("a\xfe"), rdf.NewLiteral("a\uFFFD")} {
		if got := d.Encode(same); got != lit {
			t.Errorf("Encode(%q) = %d, want the ID %d of %q", same.Value, got, lit, "a\xff")
		}
	}
	if got := d.Term(lit); got.Value != "a\xff" {
		t.Errorf("Term(%d).Value = %q, want the first spelling seen", lit, got.Value)
	}
	iri := d.Encode(rdf.NewIRI("a\xff"))
	if iri == lit || d.Encode(rdf.NewIRI("a\xfe")) == iri {
		t.Error("IRIs with different invalid bytes must not share an ID")
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

// A literal's datatype and language tag come back as given. A language
// tag hides the datatype from the spelling, and an IRI shows neither.
func TestSuffixesRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewLangLiteral("chat", "fr"),
		rdf.NewLangLiteral("chat", "en"),
		rdf.NewTypedLiteral("chat", "en"),
		rdf.NewLiteral("chat"),
		{Kind: rdf.Literal, Value: "x", Datatype: rdf.XSDInteger, Lang: "de"},
	}
	ids := make(map[ID]bool)
	for _, term := range terms {
		id := d.Encode(term)
		ids[id] = true
		if got := d.Term(id); got != term {
			t.Errorf("Term(Encode(%#v)) = %#v", term, got)
		}
	}
	if len(ids) != len(terms) {
		t.Errorf("%d terms got %d IDs, want one each", len(terms), len(ids))
	}
	for _, alias := range []struct{ a, b rdf.Term }{
		{rdf.NewLangLiteral("x", "de"), terms[5]},
		{rdf.Term{Kind: rdf.IRI, Value: "http://x/", Lang: "en"}, rdf.NewIRI("http://x/")},
		{rdf.NewTypedLiteral("chat", ""), rdf.NewLiteral("chat")},
	} {
		if got, want := d.Encode(alias.a), d.Encode(alias.b); got != want {
			t.Errorf("%#v got ID %d, %#v got %d; they spell alike", alias.a, got, alias.b, want)
		}
	}
}

// Encoding a known term, looking one up and decoding an ID allocate
// nothing.
func TestKnownTermOpsAllocateNothing(t *testing.T) {
	d := New()
	terms := []rdf.Term{rdf.NewIRI("http://x/a"), rdf.NewLangLiteral("chat", "fr"), rdf.NewBlank("b0")}
	for _, term := range terms {
		d.Encode(term)
	}
	v := d.View()
	for name, op := range map[string]func(){
		"Encode": func() {
			for _, term := range terms {
				d.Encode(term)
			}
		},
		"Lookup": func() {
			for _, term := range terms {
				d.Lookup(term)
			}
		},
		"View.Term": func() {
			for id := ID(1); id <= 3; id++ {
				v.Term(id)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", name, allocs)
		}
	}
}
