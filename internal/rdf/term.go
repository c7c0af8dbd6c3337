// Package rdf defines the RDF data model used throughout the repository:
// terms (IRIs, literals, blank nodes), triples, and the RDF/RDFS vocabulary
// of the database fragment of RDF (Goasdoué, Manolescu, Roatiş, EDBT 2013),
// which is the fragment the reproduced paper operates on.
//
// The package is deliberately small and value-oriented: a Term is a plain
// comparable struct, so terms can be used as map keys, and a Triple is three
// Terms. Everything above this layer (dictionary encoding, storage, query
// answering) works on integer-encoded triples; this package is the "surface"
// representation used for parsing, generation and display.
package rdf

import (
	"fmt"
	"unicode/utf8"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI identifies a resource by a Uniform Resource Identifier.
	IRI TermKind = iota
	// Literal is a (possibly typed or language-tagged) constant value.
	Literal
	// Blank is a blank node: an unknown IRI or literal token. Blank nodes
	// are conceptually close to the variables of incomplete relational
	// databases (V-tables), as the paper recalls in Section 2.1.
	Blank
)

// String returns a human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is an RDF term: an IRI, a literal or a blank node.
//
// For an IRI, Value holds the full IRI text. For a literal, Value holds the
// lexical form, Datatype the (optional) datatype IRI and Lang the (optional)
// language tag; at most one of Datatype and Lang is set. For a blank node,
// Value holds the local label (without the "_:" prefix).
//
// Term is comparable and can be used as a map key.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain (untyped, untagged) literal term.
func NewLiteral(lexical string) Term { return Term{Kind: Literal, Value: lexical} }

// NewTypedLiteral returns a literal with a datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{Kind: Literal, Value: lexical, Datatype: datatype}
}

// NewLangLiteral returns a literal with a language tag.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: Literal, Value: lexical, Lang: lang}
}

// NewBlank returns a blank node with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsZero reports whether the term is the zero Term, which is not a valid
// RDF term and is used as "absent" in a few internal APIs.
func (t Term) IsZero() bool { return t == Term{} }

// Canonical returns the canonical N-Triples spelling of the term. It is
// used as the dictionary key, so two terms are dictionary-equal exactly
// when their canonical forms coincide.
func (t Term) Canonical() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	default:
		var buf [64]byte // keeps short literals to the one allocation of the result
		return string(AppendCanonical(buf[:0], t))
	}
}

// String returns Canonical; Terms print in N-Triples syntax.
func (t Term) String() string { return t.Canonical() }

// AppendCanonical appends t.Canonical() to dst without building the
// intermediate string.
func AppendCanonical(dst []byte, t Term) []byte { return appendTerm(dst, t, false) }

// AppendJSONCanonical appends t.Canonical() as a JSON string literal,
// quotes included, in one pass over the term's fields: the N-Triples
// escapes and the JSON escapes are composed per byte. Control characters
// go out as \u00XX (or their short form) and invalid UTF-8 as U+FFFD, as
// encoding/json does; unlike encoding/json, '<', '>' and '&' go out raw —
// valid JSON, and it keeps an IRI cell free of backslashes.
func AppendJSONCanonical(dst []byte, t Term) []byte {
	dst = append(dst, '"')
	dst = appendTerm(dst, t, true)
	return append(dst, '"')
}

// appendTerm appends the canonical spelling of t, escaped for the inside
// of a JSON string when js is set.
func appendTerm(dst []byte, t Term, js bool) []byte {
	switch t.Kind {
	case IRI:
		dst = append(dst, '<')
		dst = appendEscaped(dst, t.Value, false, js)
		return append(dst, '>')
	case Blank:
		dst = append(dst, '_', ':')
		return appendEscaped(dst, t.Value, false, js)
	case Literal:
		quote := `"`
		if js {
			quote = `\"`
		}
		dst = append(dst, quote...)
		dst = appendEscaped(dst, t.Value, true, js)
		dst = append(dst, quote...)
		if t.Lang != "" {
			dst = append(dst, '@')
			dst = appendEscaped(dst, t.Lang, false, js)
		} else if t.Datatype != "" {
			dst = append(dst, '^', '^', '<')
			dst = appendEscaped(dst, t.Datatype, false, js)
			dst = append(dst, '>')
		}
		return dst
	default:
		return fmt.Appendf(dst, "!invalid-term(%d)", uint8(t.Kind))
	}
}

// verbatim marks the bytes every escaping mode copies unchanged: printable
// ASCII other than '"' and '\\'. Everything else takes the slow path of
// appendEscaped.
var verbatim = func() (tbl [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		tbl[c] = c != '"' && c != '\\'
	}
	return tbl
}()

// appendEscaped appends s to dst, applying the N-Triples string escapes
// (" \\ LF CR TAB) when nt is set and then, when js is set, the JSON string
// escapes to the result. Neither set copies s as is, invalid UTF-8
// included; otherwise invalid UTF-8 becomes U+FFFD — JSON must be valid,
// and N-Triples literals have always been canonicalized rune by rune.
func appendEscaped(dst []byte, s string, nt, js bool) []byte {
	if !nt && !js {
		return append(dst, s...)
	}
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if verbatim[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(dst, s[start:i]...)
				dst = append(dst, "\uFFFD"...)
				start = i + 1
			}
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		i++
		start = i
		e := shortEscape(c)
		switch {
		case e != 0 && nt && js: // \e, escaped again: the backslash, and e if it is '"' or '\\'
			dst = append(dst, '\\', '\\')
			if e == c {
				dst = append(dst, '\\')
			}
			dst = append(dst, e)
		case e != 0:
			dst = append(dst, '\\', e)
		case js: // any other control character
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, s[start:]...)
}

// shortEscape returns what follows the backslash in the two-byte escape
// of c, which N-Triples and JSON spell alike, or 0 if c has none.
func shortEscape(c byte) byte {
	switch c {
	case '"', '\\':
		return c
	case '\n':
		return 'n'
	case '\r':
		return 'r'
	case '\t':
		return 't'
	}
	return 0
}

// Triple is an RDF triple: subject s has property P with value O.
// Well-formedness (per the RDF specification, and checked by Validate):
// the subject is an IRI or blank node, the property is an IRI, and the
// object is any term.
type Triple struct {
	S, P, O Term
}

// NewTriple returns the triple (s, p, o).
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// Validate reports whether the triple is well-formed per the RDF
// specification, returning a descriptive error when it is not.
func (t Triple) Validate() error {
	switch t.S.Kind {
	case IRI, Blank:
	default:
		return fmt.Errorf("rdf: triple subject must be IRI or blank node, got %s %q", t.S.Kind, t.S.Value)
	}
	if t.P.Kind != IRI {
		return fmt.Errorf("rdf: triple property must be IRI, got %s %q", t.P.Kind, t.P.Value)
	}
	if t.S.IsZero() || t.P.IsZero() || t.O.IsZero() {
		return fmt.Errorf("rdf: triple has a zero term: %v", t)
	}
	return nil
}

// String renders the triple in N-Triples syntax (without the final dot).
func (t Triple) String() string {
	return t.S.Canonical() + " " + t.P.Canonical() + " " + t.O.Canonical()
}
