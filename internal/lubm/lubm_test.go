package lubm

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestOntologyWellFormed(t *testing.T) {
	seen := make(map[rdf.Triple]bool)
	for _, tr := range Ontology() {
		if err := tr.Validate(); err != nil {
			t.Errorf("invalid ontology triple %v: %v", tr, err)
		}
		if !rdf.IsSchemaTriple(tr) {
			t.Errorf("non-constraint triple in ontology: %v", tr)
		}
		if seen[tr] {
			t.Errorf("duplicate ontology triple %v", tr)
		}
		seen[tr] = true
	}
	if len(seen) < 50 {
		t.Errorf("ontology suspiciously small: %d constraints", len(seen))
	}
}

func TestOntologyHierarchyAnchors(t *testing.T) {
	// Spot-check the constraints the motivating queries rely on.
	want := []rdf.Triple{
		rdf.NewTriple(Prop("doctoralDegreeFrom"), rdf.SubPropertyOf, Prop("degreeFrom")),
		rdf.NewTriple(Prop("mastersDegreeFrom"), rdf.SubPropertyOf, Prop("degreeFrom")),
		rdf.NewTriple(Prop("worksFor"), rdf.SubPropertyOf, Prop("memberOf")),
		rdf.NewTriple(Prop("headOf"), rdf.SubPropertyOf, Prop("worksFor")),
		rdf.NewTriple(Class("GraduateStudent"), rdf.SubClassOf, Class("Student")),
		rdf.NewTriple(Class("FullProfessor"), rdf.SubClassOf, Class("Professor")),
	}
	have := make(map[rdf.Triple]bool)
	for _, tr := range Ontology() {
		have[tr] = true
	}
	for _, tr := range want {
		if !have[tr] {
			t.Errorf("ontology missing %v", tr)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	count := func() []rdf.Triple {
		var out []rdf.Triple
		Generate(1, 7, Tiny(), func(tr rdf.Triple) { out = append(out, tr) })
		return out
	}
	a, b := count(), count()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic triple at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// The generated stream is pinned byte for byte: SHA-256 over its
// N-Triples lines, for both profiles at two seeds and two sizes. Any
// change to a term's spelling, to the order of the triples or to the
// random draws moves a digest.
func TestGenerateGolden(t *testing.T) {
	for _, c := range []struct {
		profile string
		cfg     Config
		seed    int64
		univs   int
		triples int
		sha256  string
	}{
		{"Tiny", Tiny(), 7, 1, 851, "2e733d5261e631c1a9e4b0db4957060328bca55ba05c946b7f61bbaa5bfa9a32"},
		{"Tiny", Tiny(), 7, 2, 2108, "aa7be952648049323605268773e92bdd391b968e6570dea69aebc95c8d817386"},
		{"Tiny", Tiny(), 42, 1, 1180, "6eefa83fcb17716e11e486d67767b0e82ed89aae5dc45dc7185ae48f41e6b892"},
		{"Tiny", Tiny(), 42, 2, 1917, "1545be3d72e5475f83a73ba51e77f6228aed0eb7aeb01323e55776fc0bd14a7e"},
		{"Default", Default(), 7, 1, 96766, "a63f3e6710732a77367abba0d59ef046c4d97f0940ddba5e2a8d56d3476a0a51"},
		{"Default", Default(), 7, 2, 186049, "59fbba649f3fdb340a3ca0390abee8d760cc608eb160a281759449fb94dce492"},
		{"Default", Default(), 42, 1, 81205, "8bd19c7fff05d0a9ebae7eb7ee664b0c310d7f4c0f18692e8de066e835472214"},
		{"Default", Default(), 42, 2, 190137, "f0654bbb817cd5e7a4fd10491ce2b92768753dd1cedfc9ac8659d19d414b7d0c"},
	} {
		h := sha256.New()
		n := 0
		var line []byte
		Generate(c.univs, c.seed, c.cfg, func(tr rdf.Triple) {
			line = rdf.AppendCanonical(line[:0], tr.S)
			line = rdf.AppendCanonical(append(line, ' '), tr.P)
			line = rdf.AppendCanonical(append(line, ' '), tr.O)
			h.Write(append(line, " .\n"...))
			n++
		})
		if got := hex.EncodeToString(h.Sum(nil)); n != c.triples || got != c.sha256 {
			t.Errorf("%s, seed %d, %d universities: %d triples, SHA-256 %s; want %d, %s", c.profile, c.seed, c.univs, n, got, c.triples, c.sha256)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	n1 := CountTriples(1, 1, Tiny())
	n2 := CountTriples(1, 2, Tiny())
	if n1 == 0 || n2 == 0 {
		t.Fatal("empty generation")
	}
	// Sizes are random draws; at least the streams should not be byte-
	// identical for different seeds.
	var a, b []rdf.Triple
	Generate(1, 1, Tiny(), func(tr rdf.Triple) { a = append(a, tr) })
	Generate(1, 2, Tiny(), func(tr rdf.Triple) { b = append(b, tr) })
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateValidTriples(t *testing.T) {
	n := 0
	Generate(1, 42, Tiny(), func(tr rdf.Triple) {
		n++
		if err := tr.Validate(); err != nil {
			t.Fatalf("invalid generated triple %v: %v", tr, err)
		}
		if rdf.IsSchemaTriple(tr) {
			t.Fatalf("generator emitted a constraint triple: %v", tr)
		}
	})
	if n < 1000 {
		t.Errorf("tiny profile generated only %d triples", n)
	}
}

// The query constants must exist in any generated dataset (nUniv >= 1).
func TestQueryConstantsExist(t *testing.T) {
	subjects := make(map[string]bool)
	objects := make(map[string]bool)
	Generate(1, 42, Tiny(), func(tr rdf.Triple) {
		subjects[tr.S.Value] = true
		if tr.O.IsIRI() {
			objects[tr.O.Value] = true
		}
	})
	for _, iri := range []string{
		"http://www.University0.edu",
		"http://www.Department0.University0.edu",
		"http://www.Department0.University0.edu/FullProfessor0",
		"http://www.Department0.University0.edu/GraduateCourse0",
	} {
		if !subjects[iri] && !objects[iri] {
			t.Errorf("query constant %s absent from generated data", iri)
		}
	}
}

func TestScalingWithUniversities(t *testing.T) {
	one := CountTriples(1, 42, Tiny())
	three := CountTriples(3, 42, Tiny())
	if three < 2*one {
		t.Errorf("3 universities (%d triples) should be at least twice 1 (%d)", three, one)
	}
}

func TestQueriesParse(t *testing.T) {
	specs := Queries()
	if len(specs) != 28 {
		t.Fatalf("got %d queries, want 28", len(specs))
	}
	names := make(map[string]bool)
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate query name %s", s.Name)
		}
		names[s.Name] = true
		q, err := sparql.Parse(s.Text)
		if err != nil {
			t.Errorf("%s does not parse: %v", s.Name, err)
			continue
		}
		if len(q.Where) == 0 {
			t.Errorf("%s has no patterns", s.Name)
		}
		if s.Comment == "" {
			t.Errorf("%s has no design comment", s.Name)
		}
	}
	// ParseAll must succeed on the full set.
	got, err := ParseAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 28 {
		t.Errorf("ParseAll returned %d queries", len(got))
	}
}

// The motivating queries must have the shapes the paper describes.
func TestMotivatingQueryShapes(t *testing.T) {
	qs, err := ParseAll(Queries())
	if err != nil {
		t.Fatal(err)
	}
	if len(qs[0].Where) != 3 {
		t.Errorf("Q01 has %d triples, want 3", len(qs[0].Where))
	}
	if len(qs[1].Where) != 6 {
		t.Errorf("Q02 has %d triples, want 6", len(qs[1].Where))
	}
}
