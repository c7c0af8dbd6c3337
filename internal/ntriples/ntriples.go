// Package ntriples reads and writes the N-Triples line-based RDF syntax,
// the interchange format the command-line tools use to load and dump
// datasets. The subset supported is what the workload generators emit and
// what public RDF dumps commonly use: IRIs, blank nodes, and literals with
// optional language tag or datatype; comments and blank lines are skipped.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/rdf"
)

// Reader parses N-Triples from an input stream.
type Reader struct {
	scan *bufio.Scanner
	line int
}

// NewReader returns a Reader over r. Lines up to 1 MiB are supported.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{scan: sc}
}

// Read returns the next triple, io.EOF at end of input, or a parse error
// annotated with the line number.
func (r *Reader) Read() (rdf.Triple, error) {
	for r.scan.Scan() {
		r.line++
		line := strings.TrimSpace(r.scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseLine(line)
		if err != nil {
			// A failed read hands the scanner's buffered remainder over as
			// a last line: report the read, not the line it cut short.
			if rerr := r.scan.Err(); rerr != nil {
				return rdf.Triple{}, rerr
			}
			return rdf.Triple{}, fmt.Errorf("ntriples: line %d: %w", r.line, err)
		}
		return t, nil
	}
	if err := r.scan.Err(); err != nil {
		return rdf.Triple{}, err
	}
	return rdf.Triple{}, io.EOF
}

// ReadAll reads every remaining triple.
func (r *Reader) ReadAll() ([]rdf.Triple, error) {
	var out []rdf.Triple
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// ParseLine parses one N-Triples statement (with or without the final dot).
func ParseLine(line string) (rdf.Triple, error) {
	p := &parser{s: line}
	s, err := p.term()
	if err != nil {
		return rdf.Triple{}, fmt.Errorf("subject: %w", err)
	}
	pr, err := p.term()
	if err != nil {
		return rdf.Triple{}, fmt.Errorf("property: %w", err)
	}
	o, err := p.term()
	if err != nil {
		return rdf.Triple{}, fmt.Errorf("object: %w", err)
	}
	p.ws()
	if p.i < len(p.s) && p.s[p.i] == '.' {
		p.i++
	}
	p.ws()
	if p.i < len(p.s) {
		return rdf.Triple{}, fmt.Errorf("trailing content %q", p.s[p.i:])
	}
	t := rdf.Triple{S: s, P: pr, O: o}
	if err := t.Validate(); err != nil {
		return rdf.Triple{}, err
	}
	return t, nil
}

type parser struct {
	s string
	i int
}

func (p *parser) ws() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *parser) term() (rdf.Term, error) {
	p.ws()
	if p.i >= len(p.s) {
		return rdf.Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.s[p.i] {
	case '<':
		end := strings.IndexByte(p.s[p.i:], '>')
		if end < 0 {
			return rdf.Term{}, fmt.Errorf("unterminated IRI")
		}
		iri := p.s[p.i+1 : p.i+end]
		p.i += end + 1
		return rdf.NewIRI(iri), nil
	case '_':
		if p.i+1 >= len(p.s) || p.s[p.i+1] != ':' {
			return rdf.Term{}, fmt.Errorf("malformed blank node")
		}
		start := p.i + 2
		j := start
		for j < len(p.s) && !isSpaceOrDot(p.s[j]) {
			j++
		}
		label := p.s[start:j]
		if label == "" {
			return rdf.Term{}, fmt.Errorf("empty blank node label")
		}
		p.i = j
		return rdf.NewBlank(label), nil
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, fmt.Errorf("unexpected character %q", p.s[p.i])
	}
}

func isSpaceOrDot(b byte) bool { return b == ' ' || b == '\t' || b == '.' }

func (p *parser) literal() (rdf.Term, error) {
	var b strings.Builder
	p.i++ // opening quote
	for p.i < len(p.s) {
		c := p.s[p.i]
		switch c {
		case '\\':
			if p.i+1 >= len(p.s) {
				return rdf.Term{}, fmt.Errorf("dangling escape")
			}
			p.i++
			switch p.s[p.i] {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return rdf.Term{}, fmt.Errorf("unsupported escape \\%c", p.s[p.i])
			}
			p.i++
		case '"':
			p.i++
			lex := b.String()
			// Optional @lang or ^^<datatype> suffix.
			if p.i < len(p.s) && p.s[p.i] == '@' {
				start := p.i + 1
				j := start
				for j < len(p.s) && !isSpaceOrDot(p.s[j]) {
					j++
				}
				p.i = j
				return rdf.NewLangLiteral(lex, p.s[start:j]), nil
			}
			if strings.HasPrefix(p.s[p.i:], "^^<") {
				start := p.i + 3
				end := strings.IndexByte(p.s[start:], '>')
				if end < 0 {
					return rdf.Term{}, fmt.Errorf("unterminated datatype IRI")
				}
				p.i = start + end + 1
				return rdf.NewTypedLiteral(lex, p.s[start:start+end]), nil
			}
			return rdf.NewLiteral(lex), nil
		default:
			b.WriteByte(c)
			p.i++
		}
	}
	return rdf.Term{}, fmt.Errorf("unterminated literal")
}

// Writer serializes triples as N-Triples.
type Writer struct {
	w *bufio.Writer
}

// NewWriter returns a Writer on w; call Flush when done.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write emits one triple as a statement line.
func (w *Writer) Write(t rdf.Triple) error {
	if _, err := w.w.WriteString(t.S.Canonical()); err != nil {
		return err
	}
	w.w.WriteByte(' ')
	w.w.WriteString(t.P.Canonical())
	w.w.WriteByte(' ')
	w.w.WriteString(t.O.Canonical())
	_, err := w.w.WriteString(" .\n")
	return err
}

// WriteAll emits every triple, then flushes.
func (w *Writer) WriteAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := w.Write(t); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }
