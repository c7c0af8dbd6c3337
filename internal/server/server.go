// Package server exposes a repro.Store as an HTTP/JSON query service.
//
// Each query request is admitted through a bounded in-flight semaphore
// (excess load is rejected with 429 rather than queued without bound),
// pins a storage snapshot for the duration of its evaluation, shares one
// global plan cache across all requests and engine profiles, and runs
// under a per-request deadline: when the deadline expires or the client
// disconnects, the evaluation stops early with repro.ErrCanceled, the
// snapshot is released, and the request is answered with 504.
//
// Mutations (POST /update, POST /compact) are serialized by a mutex but
// run concurrently with queries: in-flight evaluations keep answering
// against the snapshot they pinned, so answers are always those of some
// consistent store state.
//
// Each profile's answerer owns a feedback loop (disable with
// Config.NoFeedback) that recalibrates cost estimates from observed
// evaluations; GET /statz reports each loop's drift counters. The plan
// cache stays shared across profiles, so a plan inserted under one
// profile's feedback version may be re-priced on a hit from another —
// re-pricing is cheap and feedback advisory, so this thrash affects
// only estimate freshness, never answers.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dict"
	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Config describes a Server.
type Config struct {
	// Store is the database to serve. Required; frozen on New.
	Store *repro.Store
	// Options are the base evaluation options for every profile's
	// answerer. The Trace, PlanCache and Feedback fields are ignored —
	// the server owns all three (per-run spans, one shared cache, one
	// feedback loop per profile).
	Options repro.Options
	// NoFeedback disables the adaptive cost model. By default every
	// profile's answerer feeds observed cardinalities and timings back
	// into its own feedback loop (per profile, because the loops learn
	// cost constants that are specific to an engine profile's operators).
	// Feedback is advisory — answers are identical either way.
	NoFeedback bool
	// CacheCap is the shared plan cache's capacity in entries
	// (0 = the cache's default).
	CacheCap int
	// MaxInflight bounds concurrently evaluating queries; requests
	// beyond it are rejected with 429. 0 = 4 x GOMAXPROCS.
	MaxInflight int
	// DefaultTimeout is the per-request deadline when the request does
	// not name one (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a request may ask for
	// (0 = 4 x DefaultTimeout).
	MaxTimeout time.Duration
	// MaxResponseBytes caps the encoded size of a query response body,
	// and with it the encoded bytes the server holds for one answer: the
	// body is kept back, in pooled chunks, until it is known to fit, and
	// a query whose *expanded* answer outgrows the cap is rejected with
	// 413 response_too_large before any header is written, without
	// encoding the rest. 0 = unlimited: the body is streamed to the
	// client a chunk at a time and only one chunk is ever resident.
	MaxResponseBytes int64
	// Profiles extends or overrides the built-in engine profiles by
	// name — tests inject tiny-budget profiles this way.
	Profiles map[string]repro.Profile
	// DefaultProfile names the profile used when a request names none
	// (default "native").
	DefaultProfile string
	// DefaultStrategy names the strategy used when a request names none
	// (default "gcov").
	DefaultStrategy string
}

// Server answers SPARQL BGP queries over HTTP. Create with New, serve
// its Handler.
type Server struct {
	store           *repro.Store
	cache           *repro.PlanCache
	answerers       map[string]*repro.Answerer
	loops           map[string]*repro.FeedbackLoop // per profile; nil when disabled
	profileNames    []string                       // sorted, for error messages
	sem             chan struct{}
	defaultProfile  string
	defaultStrategy string
	defaultTimeout  time.Duration
	maxTimeout      time.Duration
	maxRespBytes    int64

	mu sync.Mutex // serializes store mutations (update, compact)

	served   atomic.Int64
	rejected atomic.Int64
	aborted  atomic.Int64 // answers whose body a client did not take in time

	mux *http.ServeMux
}

// New builds a Server over cfg.Store (freezing it if needed) with one
// answerer per engine profile, all sharing one plan cache.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 4 * cfg.DefaultTimeout
	}
	if cfg.DefaultProfile == "" {
		cfg.DefaultProfile = repro.Native.Name
	}
	if cfg.DefaultStrategy == "" {
		cfg.DefaultStrategy = string(repro.GCov)
	}

	profiles := make(map[string]repro.Profile)
	for _, name := range repro.ProfileNames() {
		p, _ := repro.ProfileByName(name)
		profiles[name] = p
	}
	for name, p := range cfg.Profiles {
		profiles[name] = p
	}
	if _, ok := profiles[cfg.DefaultProfile]; !ok {
		return nil, fmt.Errorf("server: unknown default profile %q", cfg.DefaultProfile)
	}
	if _, ok := repro.StrategyByName(cfg.DefaultStrategy); !ok {
		return nil, fmt.Errorf("server: unknown default strategy %q", cfg.DefaultStrategy)
	}

	s := &Server{
		store:           cfg.Store,
		cache:           repro.NewPlanCache(cfg.CacheCap),
		answerers:       make(map[string]*repro.Answerer, len(profiles)),
		sem:             make(chan struct{}, cfg.MaxInflight),
		defaultProfile:  cfg.DefaultProfile,
		defaultStrategy: cfg.DefaultStrategy,
		defaultTimeout:  cfg.DefaultTimeout,
		maxTimeout:      cfg.MaxTimeout,
		maxRespBytes:    cfg.MaxResponseBytes,
	}
	opts := cfg.Options
	opts.Trace = nil
	opts.PlanCache = s.cache
	if !cfg.NoFeedback {
		s.loops = make(map[string]*repro.FeedbackLoop, len(profiles))
	}
	for name, p := range profiles {
		popts := opts
		if s.loops != nil {
			s.loops[name] = repro.NewFeedbackLoop()
			popts.Feedback = s.loops[name]
		} else {
			popts.Feedback = nil
		}
		s.answerers[name] = cfg.Store.NewAnswerer(p, popts)
		s.profileNames = append(s.profileNames, name)
	}
	sort.Strings(s.profileNames)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /update", s.handleUpdate)
	s.mux.HandleFunc("POST /compact", s.handleCompact)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	return s, nil
}

// Handler returns the HTTP handler — mount it on an http.Server or
// httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats returns a snapshot of the shared plan cache's counters.
func (s *Server) CacheStats() repro.PlanCacheStats { return s.cache.Snapshot() }

// FeedbackStats returns a snapshot of the named profile's feedback loop,
// or a zero snapshot when feedback is disabled or the profile unknown.
func (s *Server) FeedbackStats(profile string) repro.FeedbackStats {
	return s.loops[profile].Snapshot()
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// Query is the SPARQL BGP query text. Required.
	Query string `json:"query"`
	// Strategy is the answering strategy name; empty uses the server
	// default.
	Strategy string `json:"strategy,omitempty"`
	// Profile is the engine profile name; empty uses the server default.
	Profile string `json:"profile,omitempty"`
	// TimeoutMS overrides the per-request deadline, capped by the
	// server's maximum; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the body of a successful POST /query.
type QueryResponse struct {
	Vars      []string   `json:"vars"`
	Rows      [][]string `json:"rows"`
	Strategy  string     `json:"strategy"`
	Profile   string     `json:"profile"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx answer: a stable typed
// error name plus a human-readable message.
type ErrorResponse struct {
	Error   string `json:"error"`
	Message string `json:"message"`
}

// statusFor maps an evaluation error to its HTTP status and stable typed
// name. Resource-limit rejections are the client's query asking for more
// than the profile allows (413); a work budget exhausted mid-flight is
// closer to server load shedding (503); a canceled context is the
// request deadline (504).
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, repro.ErrCanceled):
		return http.StatusGatewayTimeout, "canceled"
	case errors.Is(err, repro.ErrWorkBudget):
		return http.StatusServiceUnavailable, "work_budget"
	case errors.Is(err, repro.ErrMemoryBudget):
		return http.StatusRequestEntityTooLarge, "memory_budget"
	case errors.Is(err, repro.ErrPlanTooComplex):
		return http.StatusRequestEntityTooLarge, "plan_too_complex"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.rejected.Add(1)
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:   "overloaded",
			Message: fmt.Sprintf("too many in-flight queries (limit %d)", cap(s.sem)),
		})
		return
	}

	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		writeBodyError(w, "bad_request", err)
		return
	}
	if req.Strategy == "" {
		req.Strategy = s.defaultStrategy
	}
	strat, ok := repro.StrategyByName(req.Strategy)
	if !ok {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:   "unknown_strategy",
			Message: fmt.Sprintf("unknown strategy %q (valid: %s)", req.Strategy, strings.Join(repro.StrategyNames(), ", ")),
		})
		return
	}
	if req.Profile == "" {
		req.Profile = s.defaultProfile
	}
	a, ok := s.answerers[req.Profile]
	if !ok {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:   "unknown_profile",
			Message: fmt.Sprintf("unknown profile %q (valid: %s)", req.Profile, strings.Join(s.profileNames, ", ")),
		})
		return
	}
	q, err := sparql.Parse(req.Query)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad_query", Message: err.Error()})
		return
	}

	timeout := s.defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.maxTimeout {
		timeout = s.maxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	res, err := a.QueryParsedContext(ctx, q, strat)
	if err != nil {
		code, name := statusFor(err)
		writeJSON(w, code, ErrorResponse{Error: name, Message: err.Error()})
		return
	}
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	// A client that stops reading must not hold the admission slot (and
	// the answer's rows) past the request's own deadline: body writes fail
	// from then on.
	deadline, _ := ctx.Deadline()
	//lint:ignore droppederr a writer that cannot take a deadline (a test recorder) has no client to stall, and a broken connection fails the writes below anyway
	_ = http.NewResponseController(w).SetWriteDeadline(deadline)
	switch err := writeAnswer(w, res, req.Strategy, req.Profile, elapsed, s.maxRespBytes); err {
	case nil:
		s.served.Add(1)
	case errResponseTooLarge:
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error:   "response_too_large",
			Message: fmt.Sprintf("encoded response exceeds the %d-byte limit", s.maxRespBytes),
		})
	default:
		// A failed write after the 200 was committed: the client went away
		// or stalled past the deadline, and there is no one left to tell.
		s.aborted.Add(1)
	}
}

// Request bodies are read through http.MaxBytesReader under these
// limits; a body that runs past its limit is answered 413
// request_too_large.
const (
	maxQueryBody  = 1 << 20
	maxUpdateBody = 64 << 20
)

// writeBodyError answers a request whose body could not be read or
// parsed: 413 when it ran past its size limit, 400 under name otherwise.
func writeBodyError(w http.ResponseWriter, name string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error:   "request_too_large",
			Message: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit),
		})
		return
	}
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: name, Message: err.Error()})
}

// errResponseTooLarge aborts response encoding at the size cap.
var errResponseTooLarge = errors.New("server: encoded response exceeds the size limit")

// A response body is encoded into fixed-size pooled chunks. A chunk is
// handed on once fewer than chunkSlack bytes of it are free, so a row of
// ordinary size never outgrows it; a longer row grows that one chunk,
// which is then dropped rather than pooled.
const (
	chunkSize  = 64 << 10
	chunkSlack = 4 << 10
)

var chunkPool = sync.Pool{New: func() any { return new([chunkSize]byte) }}

func getChunk() []byte { return chunkPool.Get().(*[chunkSize]byte)[:0] }

func putChunk(b []byte) {
	if cap(b) == chunkSize {
		chunkPool.Put((*[chunkSize]byte)(b[:chunkSize]))
	}
}

// bodyWriter carries an encoded body from the chunk being filled to the
// client. With no limit a full chunk is written at once, so one chunk is
// all a large answer ever holds and the client reads while the rest is
// encoded; with a limit full chunks are held back until finish, so an
// answer that outgrows the limit is refused before anything is written,
// and at most limit plus one chunk is ever resident. Framing is left to
// net/http (chunked transfer for any body past its 2 KB buffer), which
// ends the body after the handler returns: no client sees the end of an
// answer while the server still accounts for it.
type bodyWriter struct {
	w     http.ResponseWriter
	limit int64
	buf   []byte   // the chunk being filled
	held  [][]byte // full chunks kept back under a limit
	size  int64    // bytes in held
}

// flush hands the full chunk on and starts the next one.
func (b *bodyWriter) flush() error {
	if b.limit > 0 {
		if b.size += int64(len(b.buf)); b.size > b.limit {
			return errResponseTooLarge
		}
		b.held = append(b.held, b.buf)
		b.buf = getChunk()
		return nil
	}
	_, err := b.w.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// finish writes what is still held.
func (b *bodyWriter) finish() error {
	if b.limit > 0 && b.size+int64(len(b.buf)) > b.limit {
		return errResponseTooLarge
	}
	for _, c := range b.held {
		if _, err := b.w.Write(c); err != nil {
			return err
		}
	}
	_, err := b.w.Write(b.buf)
	return err
}

// release returns every chunk to the pool.
func (b *bodyWriter) release() {
	putChunk(b.buf)
	for _, c := range b.held {
		putChunk(c)
	}
}

// writeAnswer encodes the QueryResponse JSON for res and sends it, in one
// pass from dictionary IDs to wire bytes: the result's cursor expands a
// factorized answer one row at a time, each cell is resolved through one
// lock-free dictionary view and appended, already JSON-quoted, to the
// current chunk. Nothing is allocated per row and no copy of the body is
// built; see bodyWriter for what limit changes. It returns
// errResponseTooLarge with nothing written, or the error of a failed
// write once the client is gone or the write deadline has passed — the
// cursor is not expanded any further after either.
func writeAnswer(w http.ResponseWriter, res *repro.Result, strategy, profile string, elapsedMS float64, limit int64) error {
	b := &bodyWriter{w: w, limit: limit, buf: getChunk()}
	defer b.release()
	w.Header().Set("Content-Type", "application/json")
	b.buf = appendJSON(append(b.buf, `{"vars":`...), res.Vars)
	b.buf = append(b.buf, `,"rows":[`...)
	var err error
	first := true
	res.EachIDs(func(ids []dict.ID, terms dict.View) bool {
		buf := b.buf
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, '[')
		for j, id := range ids {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = rdf.AppendJSONCanonical(buf, terms.Term(id))
		}
		b.buf = append(buf, ']')
		if len(b.buf) > chunkSize-chunkSlack {
			err = b.flush()
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	b.buf = appendJSON(append(b.buf, `],"strategy":`...), strategy)
	b.buf = appendJSON(append(b.buf, `,"profile":`...), profile)
	b.buf = appendJSON(append(b.buf, `,"elapsed_ms":`...), elapsedMS)
	b.buf = append(b.buf, '}')
	return b.finish()
}

// appendJSON appends the JSON encoding of one of the response's envelope
// values (strings, a []string, a float64), which cannot fail to marshal.
func appendJSON(dst []byte, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return dst
	}
	return append(dst, data...)
}

// UpdateResponse is the body of a successful POST /update.
type UpdateResponse struct {
	Added   int `json:"added,omitempty"`
	Removed int `json:"removed,omitempty"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	op := r.URL.Query().Get("op")
	if op == "" {
		op = "add"
	}
	body := http.MaxBytesReader(w, r.Body, maxUpdateBody)
	switch op {
	case "add":
		s.mu.Lock()
		n, err := s.store.LoadNTriples(body)
		s.mu.Unlock()
		if err != nil {
			writeBodyError(w, "bad_update", err)
			return
		}
		writeJSON(w, http.StatusOK, UpdateResponse{Added: n})
	case "remove":
		rd := ntriples.NewReader(body)
		n := 0
		s.mu.Lock()
		for {
			t, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				s.mu.Unlock()
				writeBodyError(w, "bad_update", err)
				return
			}
			removed, err := s.store.Remove(t)
			if err != nil {
				s.mu.Unlock()
				writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad_update", Message: err.Error()})
				return
			}
			if removed {
				n++
			}
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, UpdateResponse{Removed: n})
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:   "bad_op",
			Message: fmt.Sprintf("unknown op %q (valid: add, remove)", op),
		})
	}
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.store.Compact()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// StatzResponse is the body of GET /statz.
type StatzResponse struct {
	Triples  int   `json:"triples"`
	Inflight int   `json:"inflight"`
	Served   int64 `json:"served"`
	Rejected int64 `json:"rejected"`
	// Aborted counts answers cut short because the client went away or
	// did not read the body before the request's deadline.
	Aborted int64      `json:"aborted"`
	Cache   CacheStatz `json:"cache"`
	// Feedback reports each profile's adaptive-cost loop, keyed by
	// profile name; absent when the server runs with NoFeedback.
	Feedback map[string]FeedbackStatz `json:"feedback,omitempty"`
}

// CacheStatz reports the shared plan cache's counters.
type CacheStatz struct {
	Entries       int     `json:"entries"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Invalidations int64   `json:"invalidations"`
	Evictions     int64   `json:"evictions"`
	Reprices      int64   `json:"reprices"`
	HitRate       float64 `json:"hit_rate"`
}

// FeedbackStatz reports one profile's adaptive-cost loop: how many
// evaluations it has observed, how often the estimates drifted past the
// re-pricing threshold, and the exponentially-weighted mean relative
// errors of the (corrected) cardinality and cost estimates.
type FeedbackStatz struct {
	Observations  int64   `json:"observations"`
	DriftEvents   int64   `json:"drift_events"`
	Corrections   int     `json:"corrections"`
	Version       uint64  `json:"version"`
	MeanCardError float64 `json:"mean_card_error"`
	MeanCostError float64 `json:"mean_cost_error"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Snapshot()
	resp := StatzResponse{
		Triples:  s.store.NumTriples(),
		Inflight: len(s.sem),
		Served:   s.served.Load(),
		Rejected: s.rejected.Load(),
		Aborted:  s.aborted.Load(),
		Cache: CacheStatz{
			Entries:       s.cache.Len(),
			Hits:          st.Hits,
			Misses:        st.Misses,
			Invalidations: st.Invalidations,
			Evictions:     st.Evictions,
			Reprices:      st.Reprices,
			HitRate:       st.HitRate(),
		},
	}
	if s.loops != nil {
		resp.Feedback = make(map[string]FeedbackStatz, len(s.loops))
		for name, l := range s.loops {
			fs := l.Snapshot()
			resp.Feedback[name] = FeedbackStatz{
				Observations:  fs.Observations,
				DriftEvents:   fs.DriftEvents,
				Corrections:   fs.Corrections,
				Version:       fs.Version,
				MeanCardError: fs.MeanCardError,
				MeanCostError: fs.MeanCostError,
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON answers with a JSON body. A marshal failure of our own
// response types cannot happen; a write failure means the client went
// away and there is no one left to tell.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(data); err != nil {
		return
	}
}
