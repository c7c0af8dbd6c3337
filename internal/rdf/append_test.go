package rdf

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// jsonValid is s with every invalid UTF-8 byte replaced by U+FFFD, the
// replacement encoding/json applies when it marshals a string.
func jsonValid(s string) string { return string([]rune(s)) }

// checkAppend holds the two append functions to Canonical: AppendCanonical
// is its bytes, AppendJSONCanonical a JSON string that decodes back to
// it, with nothing HTML-escaped. Both leave what dst already held.
func checkAppend(t *testing.T, term Term) {
	t.Helper()
	want := term.Canonical()
	if got := string(AppendCanonical([]byte("x"), term)); got != "x"+want {
		t.Errorf("AppendCanonical(%#v) = %q, want %q", term, got, "x"+want)
	}
	out := append(AppendJSONCanonical([]byte("["), term), ']')
	var got []string
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("AppendJSONCanonical(%#v) = %q is not valid JSON: %v", term, out, err)
	}
	if got[0] != jsonValid(want) {
		t.Errorf("AppendJSONCanonical(%#v) decodes to %q, want %q", term, got[0], jsonValid(want))
	}
	for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`, `\u2028`, `\u2029`} {
		if bytes.Contains(out, []byte(esc)) && !strings.Contains(want, esc) {
			t.Errorf("AppendJSONCanonical(%#v) = %q: %s must go out raw", term, out, esc)
		}
	}
}

func FuzzAppendJSONCanonical(f *testing.F) {
	for _, s := range []string{
		"", "plain", `say "hi"`, `back\slash`, `\"`, "line\nfeed\rreturn\ttab",
		"\x00\x01\x1f\x7f", "<a>&b</a>", "http://example.org/a?x=1&y=<2>",
		"sep\u2028arators\u2029", "\u00e9 \u6f22\u5b57", "non-BMP \U0001F600 \U0001D518",
		"\xff\xfe", "a\xc3", "\xed\xa0\x80", "trunc\xf0\x9f", "\ufffd",
	} {
		f.Add(uint8(IRI), s, "", "")
		f.Add(uint8(Blank), s, "", "")
		f.Add(uint8(Literal), s, "", "")
		f.Add(uint8(Literal), s, "", "en-GB")
		f.Add(uint8(Literal), s, XSDInteger, "")
		f.Add(uint8(Literal), "v", s, "")
		f.Add(uint8(Literal), "v", "", s)
	}
	f.Add(uint8(9), "invalid kind", "", "")
	f.Fuzz(func(t *testing.T, kind uint8, value, datatype, lang string) {
		checkAppend(t, Term{Kind: TermKind(kind), Value: value, Datatype: datatype, Lang: lang})
	})
}

// The escapes compose: a literal's quote is N-Triples-escaped and then
// JSON-escaped, an IRI's angle brackets and ampersands are left alone.
func TestAppendJSONCanonicalSpelling(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://example.org/a?x=1&y=2"), `"<http://example.org/a?x=1&y=2>"`},
		{NewBlank("b1"), `"_:b1"`},
		{NewLiteral("a\"b\\c\nd\x01"), `"\"a\\\"b\\\\c\\nd\u0001\""`},
		{NewLangLiteral("bonjour", "fr"), `"\"bonjour\"@fr"`},
		{NewTypedLiteral("42", XSDInteger), `"\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"`},
		{NewIRI("bad\xffbyte"), "\"<bad\ufffdbyte>\""},
	}
	for _, c := range cases {
		if got := string(AppendJSONCanonical(nil, c.term)); got != c.want {
			t.Errorf("AppendJSONCanonical(%#v) = %s, want %s", c.term, got, c.want)
		}
	}
}
