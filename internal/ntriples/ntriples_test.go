package ntriples

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/rdf"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		want rdf.Triple
	}{
		{
			`<http://x/s> <http://x/p> <http://x/o> .`,
			rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/o")),
		},
		{
			`_:b1 <http://x/p> "hello" .`,
			rdf.NewTriple(rdf.NewBlank("b1"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("hello")),
		},
		{
			`<http://x/s> <http://x/p> "bonjour"@fr .`,
			rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewLangLiteral("bonjour", "fr")),
		},
		{
			`<http://x/s> <http://x/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
			rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewTypedLiteral("42", rdf.XSDInteger)),
		},
		{
			`<http://x/s> <http://x/p> "line\nbreak \"q\"" .`,
			rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("line\nbreak \"q\"")),
		},
		{
			`<http://x/s> <http://x/p> _:obj`,
			rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewBlank("obj")),
		},
	}
	for _, c := range cases {
		got, err := ParseLine(c.line)
		if err != nil {
			t.Errorf("ParseLine(%q): %v", c.line, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseLine(%q) = %v, want %v", c.line, got, c.want)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		``,
		`<http://x/s>`,
		`<http://x/s> <http://x/p>`,
		`"lit" <http://x/p> <http://x/o> .`, // literal subject
		`<http://x/s> _:b <http://x/o> .`,   // blank property
		`<http://x/s> <http://x/p> "unterminated`,
		`<http://x/s <http://x/p> <http://x/o> .`,
		`<http://x/s> <http://x/p> <http://x/o> . extra`,
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) succeeded, want error", line)
		}
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n<http://x/s> <http://x/p> <http://x/o> .\n  \n# another\n"
	r := NewReader(strings.NewReader(in))
	ts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Fatalf("got %d triples, want 1", len(ts))
	}
}

func TestReaderErrorHasLineNumber(t *testing.T) {
	in := "<http://x/s> <http://x/p> <http://x/o> .\nbroken line\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

// Write-then-read must reproduce every triple exactly, across random term
// shapes including escapes.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pieces := []string{"plain", "with space", "quote\"inside", "back\\slash", "new\nline", "tab\there", ""}
	randTerm := func(object bool) rdf.Term {
		switch rng.Intn(3) {
		case 0:
			return rdf.NewIRI("http://example.org/r" + pieces[rng.Intn(2)][:0] + "x")
		case 1:
			if !object {
				return rdf.NewBlank("b")
			}
			s := pieces[rng.Intn(len(pieces))]
			switch rng.Intn(3) {
			case 0:
				return rdf.NewLiteral(s)
			case 1:
				return rdf.NewLangLiteral(s, "en")
			default:
				return rdf.NewTypedLiteral(s, rdf.XSDString)
			}
		default:
			return rdf.NewBlank("b")
		}
	}
	var triples []rdf.Triple
	for i := 0; i < 200; i++ {
		tr := rdf.Triple{S: randTerm(false), P: rdf.NewIRI("http://x/p"), O: randTerm(true)}
		if tr.Validate() != nil {
			continue
		}
		triples = append(triples, tr)
	}

	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteAll(triples); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(triples) {
		t.Fatalf("round trip: got %d triples, want %d", len(got), len(triples))
	}
	for i := range got {
		if got[i] != triples[i] {
			t.Errorf("triple %d: got %v, want %v", i, got[i], triples[i])
		}
	}
}

// A read that fails mid-line must surface as that read error, not as a
// parse error on the fragment the scanner had buffered.
func TestReaderReportsReadErrorOverCutLine(t *testing.T) {
	input := "<http://a> <http://b> <http://c> .\n<http://a> <http://b> <htt"
	r := NewReader(io.MultiReader(strings.NewReader(input), iotest.ErrReader(io.ErrUnexpectedEOF)))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first, complete line: %v", err)
	}
	if _, err := r.Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("cut line: err = %v, want io.ErrUnexpectedEOF", err)
	}
}
