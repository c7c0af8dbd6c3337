package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := New("query")
	opt := root.Child("optimize")
	opt.SetStr("strategy", "gcov")
	opt.SetInt("covers_explored", 5)
	opt.AddInt("memo_hits", 2)
	opt.AddInt("memo_hits", 3)
	opt.End()
	ev := root.Child("evaluate")
	arm := ev.Child("arm[0]")
	arm.SetInt("rows_out", 7)
	arm.End()
	ev.End()
	root.End()

	if got := len(root.Children()); got != 2 {
		t.Fatalf("root has %d children, want 2", got)
	}
	if root.Find("arm[0]") == nil {
		t.Fatal("Find(arm[0]) = nil")
	}
	if v, ok := opt.IntAttr("memo_hits"); !ok || v != 5 {
		t.Errorf("memo_hits = %d, %v; want 5, true", v, ok)
	}
	if v, ok := opt.IntAttr("covers_explored"); !ok || v != 5 {
		t.Errorf("covers_explored = %d, %v; want 5, true", v, ok)
	}
	opt.SetInt("covers_explored", 9)
	if v, _ := opt.IntAttr("covers_explored"); v != 9 {
		t.Errorf("SetInt overwrite: covers_explored = %d, want 9", v)
	}
	if root.Duration() <= 0 {
		t.Error("root duration not recorded")
	}
}

func TestEndIsIdempotent(t *testing.T) {
	s := New("x")
	time.Sleep(time.Millisecond)
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Errorf("second End changed duration: %v -> %v", d, s.Duration())
	}
}

// Every method must be a no-op on a nil span, nil registry and nil
// counter: that is the disabled-trace contract the hot path relies on.
func TestNilSafety(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil.Child returned a live span")
	}
	s.End()
	s.SetInt("k", 1)
	s.AddInt("k", 1)
	s.SetStr("k", "v")
	if s.Registry() != nil {
		t.Error("nil.Registry() != nil")
	}
	s.Counter("n").Add(3)
	if s.Counter("n").Value() != 0 {
		t.Error("nil counter accumulated")
	}
	if s.Name() != "" || s.Duration() != 0 || s.Attrs() != nil || s.Children() != nil || s.Find("x") != nil {
		t.Error("nil span accessors not zero")
	}
	if _, ok := s.IntAttr("k"); ok {
		t.Error("nil.IntAttr found an attribute")
	}
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil.Render wrote %q, err %v", buf.String(), err)
	}
	var r *Registry
	if r.Counter("x") != nil || r.Snapshot() != nil || r.Names() != nil {
		t.Error("nil registry not inert")
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Errorf("nil registry WriteJSON: %v", err)
	}
}

// The disabled trace must be allocation-free: this is the contract the
// engine's JUCQ hot path builds on (the root package's
// TestDisabledTracingAddsNoAllocs verifies the same property end to end
// on a full evaluation).
func TestDisabledTraceAllocFree(t *testing.T) {
	var s *Span
	allocs := testing.AllocsPerRun(1000, func() {
		c := s.Child("arm")
		c.SetInt("rows", 1)
		c.AddInt("rows", 1)
		c.Counter("rows").Add(1)
		c.End()
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled trace allocates: %.1f allocs/op, want 0", allocs)
	}
}

func TestConcurrentSpansAndCounters(t *testing.T) {
	root := New("query")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := root.Child("shard")
				c.AddInt("rows", 1)
				c.End()
				root.AddInt("total", 1)
				root.Counter("rows").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := len(root.Children()); got != 800 {
		t.Errorf("children = %d, want 800", got)
	}
	if v, _ := root.IntAttr("total"); v != 800 {
		t.Errorf("total attr = %d, want 800", v)
	}
	if got := root.Counter("rows").Value(); got != 800 {
		t.Errorf("rows counter = %d, want 800", got)
	}
}

func TestRender(t *testing.T) {
	root := New("query")
	opt := root.Child("optimize")
	opt.SetStr("strategy", "gcov")
	opt.SetInt("covers_explored", 5)
	opt.End()
	root.End()
	var buf bytes.Buffer
	if err := root.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("rendered %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "query") {
		t.Errorf("line 0 = %q, want query first", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  optimize") {
		t.Errorf("line 1 = %q, want indented optimize", lines[1])
	}
	if !strings.Contains(lines[1], "strategy=gcov") || !strings.Contains(lines[1], "covers_explored=5") {
		t.Errorf("line 1 missing attrs: %q", lines[1])
	}
}

func TestJSONExport(t *testing.T) {
	root := New("query")
	ev := root.Child("evaluate")
	ev.SetInt("rows_out", 3)
	ev.SetStr("profile", "native")
	ev.End()
	root.End()
	root.Counter("engine.evals").Add(1)

	data, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var got spanJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "query" || len(got.Children) != 1 {
		t.Errorf("span JSON = %+v", got)
	}
	var child spanJSON
	if err := json.Unmarshal(got.Children[0], &child); err != nil {
		t.Fatal(err)
	}
	if child.Counters["rows_out"] != 3 || child.Labels["profile"] != "native" {
		t.Errorf("child JSON = %+v", child)
	}

	var buf bytes.Buffer
	if err := root.Registry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap["engine.evals"] != 1 {
		t.Errorf("registry JSON = %v", snap)
	}
}

func TestFloatAttrs(t *testing.T) {
	root := New("query")
	ev := root.Child("evaluate")
	ev.SetFloat("est_rows", 1234.5)
	ev.SetFloat("est_rows", 99.25) // overwrite
	ev.SetInt("rows_out", 80)
	ev.SetInt("est_rows", 7) // distinct kind, same key: must not clobber the float
	ev.End()
	root.End()

	if v, ok := ev.FloatAttr("est_rows"); !ok || v != 99.25 {
		t.Errorf("FloatAttr(est_rows) = %v, %v; want 99.25, true", v, ok)
	}
	if v, ok := ev.IntAttr("est_rows"); !ok || v != 7 {
		t.Errorf("IntAttr(est_rows) = %v, %v; want 7, true", v, ok)
	}
	if _, ok := ev.FloatAttr("rows_out"); ok {
		t.Error("FloatAttr must not see int attrs")
	}

	var buf bytes.Buffer
	if err := root.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "est_rows=99.25") {
		t.Errorf("render missing float attr:\n%s", buf.String())
	}

	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var got spanJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Floats["est_rows"] != 99.25 || got.Counters["rows_out"] != 80 {
		t.Errorf("float JSON = %+v", got)
	}

	// nil safety
	var nilSpan *Span
	nilSpan.SetFloat("x", 1)
	if _, ok := nilSpan.FloatAttr("x"); ok {
		t.Error("nil span FloatAttr must report absent")
	}
}
