package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program: around the call on the caller's side, or around
// the handler on the server's side. Spans of one operation share OpID;
// Parent is the span that caused this one (0 for an operation's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced comparison window runs the
// same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// beginOp opens the root span of operation op and returns its ID (0 from
// a nil recorder).
func (r *recorder) beginOp(op int) int {
	if r == nil {
		return 0
	}
	return r.add(span{OpID: op, Layer: "driver", Name: "op", StartNS: int64(time.Since(r.t0))})
}

// begin opens a span caused by parent, in parent's operation.
func (r *recorder) begin(parent int, layer, name string) int {
	if r == nil {
		return 0
	}
	return r.add(span{Parent: parent, Layer: layer, Name: name, StartNS: int64(time.Since(r.t0))})
}

// add appends the span, numbering it and copying its parent's operation.
// A parent the recorder never issued (a stray request header) leaves the
// span in operation 0.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	if s.Parent > 0 && s.Parent <= len(r.spans) {
		s.OpID = r.spans[s.Parent-1].OpID
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// end closes the span and returns it.
func (r *recorder) end(id int) span {
	if r == nil || id == 0 {
		return span{}
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = now
	return r.spans[id-1]
}

// place records a span whose interval the benchmark did not time itself
// but took from the program's report (optimize and evaluate time inside
// one answer call).
func (r *recorder) place(parent int, layer, name string, start, end int64) {
	if r != nil {
		r.add(span{Parent: parent, Layer: layer, Name: name, StartNS: start, EndNS: end})
	}
}

// spanHeader is the request header that ties the server-side handler
// span to the client span that caused it.
const spanHeader = "X-Bench-Span"

// wrap records a span around the handler for requests that carry the
// span header, and passes every other request straight through.
func (r *recorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(spanHeader))
		if err != nil || parent == 0 {
			next.ServeHTTP(w, req)
			return
		}
		id := r.begin(parent, "server", "handler")
		next.ServeHTTP(w, req)
		r.end(id)
	})
}

// selfTimes returns, for each span (same index), its duration minus the
// part of its interval that its child spans cover. Children may overlap
// each other or stick out of the parent; covered time counts once and
// only inside the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}
