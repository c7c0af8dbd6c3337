// Package repro is a from-scratch Go implementation of cost-based
// reformulation query answering for RDF, reproducing Bursztyn, Goasdoué
// and Manolescu, "Optimizing Reformulation-based Query Answering in RDF"
// (EDBT 2015 / INRIA RR-8646).
//
// An RDF database is a set of triples whose RDF Schema constraints
// (subclass, subproperty, domain, range) make some triples implicit.
// Answering a SPARQL Basic Graph Pattern query must account for those
// implicit triples. This library answers such queries by *reformulation*:
// the query is rewritten, using the constraints, into a Join of Unions of
// Conjunctive Queries (JUCQ) whose direct evaluation over the raw triples
// returns the complete answer — and, this being the paper's contribution,
// the JUCQ is *chosen by a cost model* from the space of cover-based
// reformulations, which contains the classic UCQ reformulation and the
// SCQ (join of per-triple unions) reformulation as its two extremes.
//
// # Quick start
//
//	st := repro.NewStore()
//	st.MustAdd(rdf.NewTriple(book, rdf.SubClassOf, publication))
//	st.MustAdd(rdf.NewTriple(doi1, rdf.Type, book))
//	st.Freeze()
//	a := st.NewAnswerer(repro.PostgresLike, repro.Options{})
//	res, err := a.Query(`SELECT ?x WHERE { ?x rdf:type <`+publication.Value+`> }`, repro.GCov)
//
// See examples/ for complete programs, DESIGN.md for the system inventory
// and EXPERIMENTS.md for the reproduction of the paper's evaluation.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/ntriples"
	"repro/internal/plancache"
	"repro/internal/rdf"
	"repro/internal/saturate"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/turtle"
)

// Strategy selects how a query is answered; see the constants.
type Strategy = core.Strategy

// The five answering strategies of the paper's experimental comparison.
const (
	// Saturation precomputes all implicit triples (call Store.Saturate
	// first) and evaluates queries directly.
	Saturation = core.Saturation
	// UCQ evaluates the classic single union-of-CQs reformulation.
	UCQ = core.UCQ
	// SCQ evaluates the join of per-triple unions.
	SCQ = core.SCQ
	// ECov evaluates the best cover found by exhaustive search.
	ECov = core.ECov
	// GCov evaluates the best cover found by the greedy search — the
	// paper's recommended strategy.
	GCov = core.GCov
)

// Profile is an engine personality: resource limits and operator
// repertoire. The three RDBMS-like profiles reproduce the paper's DB2,
// PostgreSQL and MySQL behaviours; Native is unconstrained.
type Profile = engine.Profile

// The built-in engine profiles.
var (
	DB2Like      = engine.DB2Like
	PostgresLike = engine.PostgresLike
	MySQLLike    = engine.MySQLLike
	Native       = engine.Native
)

// Typed evaluation failures (use errors.Is).
var (
	ErrPlanTooComplex = engine.ErrPlanTooComplex
	ErrMemoryBudget   = engine.ErrMemoryBudget
	ErrWorkBudget     = engine.ErrWorkBudget
	// ErrCanceled is returned by QueryContext and friends when the
	// caller's context is canceled or its deadline expires before the
	// answer is complete. The evaluation stops early and the pinned
	// storage snapshot is released.
	ErrCanceled = engine.ErrCanceled
)

// StrategyNames returns the valid strategy names, in the paper's order.
func StrategyNames() []string {
	var names []string
	for _, s := range core.Strategies() {
		names = append(names, string(s))
	}
	return names
}

// StrategyByName looks up an answering strategy by its name
// ("saturation", "ucq", "scq", "ecov" or "gcov"); ok is false for an
// unknown name.
func StrategyByName(name string) (Strategy, bool) {
	for _, s := range core.Strategies() {
		if string(s) == name {
			return s, true
		}
	}
	return "", false
}

// ProfileNames returns the valid engine-profile names.
func ProfileNames() []string {
	return []string{Native.Name, PostgresLike.Name, DB2Like.Name, MySQLLike.Name}
}

// ProfileByName looks up a built-in engine profile by its name ("native",
// "postgreslike", "db2like" or "mysqllike"); ok is false for an unknown
// name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range []Profile{Native, PostgresLike, DB2Like, MySQLLike} {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Report describes how a query was answered (chosen cover, search effort,
// estimated cost, engine metrics).
type Report = core.Report

// CostParams are the calibrated constants of the paper's cost model.
type CostParams = cost.Params

// Trace is a span of the query-lifecycle trace: a named, timed node
// carrying counters, whose children cover the parse, optimize,
// reformulate and evaluate stages of every query answered while the
// trace is attached (Options.Trace). Render writes the tree as an
// indented EXPLAIN ANALYZE-style report; MarshalJSON exports it. A nil
// *Trace disables tracing at zero cost.
type Trace = trace.Span

// NewTrace starts a trace with a root span of the given name. Attach it
// via Options.Trace, answer queries, call End, then Render or marshal.
func NewTrace(name string) *Trace { return trace.New(name) }

// Options tunes an Answerer.
type Options struct {
	// CostParams overrides the cost-model constants; zero value uses
	// defaults (or calibration when Calibrate is set).
	CostParams CostParams
	// Calibrate runs the calibration micro-queries against this store
	// and engine profile to fit CostParams, as the paper does per RDBMS.
	Calibrate bool
	// UseEngineCost guides the cover search with the engine's internal
	// estimate instead of the paper's cost model (the Figure 9
	// alternative).
	UseEngineCost bool
	// MaxCovers bounds the exhaustive search (0 = default).
	MaxCovers int
	// SearchBudget bounds optimization wall-clock time (0 = none).
	SearchBudget time.Duration
	// Deprecated: Parallelism is read by nothing; query answering,
	// cover search included, is serial, and concurrency comes from
	// concurrent queries.
	Parallelism int
	// Trace, when non-nil, records every query's lifecycle (parse,
	// optimize, reformulate, evaluate, with per-operator counters) as
	// children of the given root span. nil disables tracing at zero cost.
	Trace *Trace
	// PlanCache, when non-nil, caches answering artifacts across queries:
	// a repeated query (up to variable renaming and atom reordering) skips
	// the optimize and reformulate stages. Answers are identical with and
	// without the cache; store mutations invalidate affected entries.
	PlanCache *PlanCache
	// Deprecated: Feedback is read by nothing; covers are priced from
	// the cost constants and the data statistics alone.
	Feedback *FeedbackLoop
}

// Deprecated: FeedbackLoop is the type of the unread Options.Feedback.
type FeedbackLoop struct{}

// Deprecated: NewFeedbackLoop returns nil.
func NewFeedbackLoop() *FeedbackLoop { return nil }

// PlanCache is a bounded, concurrent cache of answering artifacts (chosen
// cover, per-fragment reformulations, fragment statistics) keyed by a
// canonical query signature that is invariant under variable renaming and
// atom reordering. Share one cache across the Answerers of a store to
// skip the optimize and reformulate stages for repeated queries; entries
// are stamped with the store's mutation version and the schema's content
// stamp, so a Store.Add or Remove invalidates affected plans and the next
// answer always reflects the current data.
type PlanCache = plancache.Cache

// PlanCacheStats is a snapshot of a PlanCache's hit/miss/invalidation
// counters; see PlanCache.Snapshot.
type PlanCacheStats = plancache.Stats

// NewPlanCache returns a plan cache holding up to capacity entries
// (a default capacity if capacity <= 0). Attach it via Options.PlanCache.
func NewPlanCache(capacity int) *PlanCache { return plancache.New(capacity) }

// ErrFrozen is returned when a schema triple is added after Freeze.
var ErrFrozen = errors.New("repro: cannot change the schema after Freeze (rebuild the store)")

// Store is an RDF database: data triples plus RDFS constraints.
// Populate it with Add/LoadNTriples, call Freeze, then create Answerers.
// Data triples may still be added after Freeze (the saturated store, if
// built, is maintained incrementally); schema changes require a rebuild.
type Store struct {
	dict    *dict.Dict
	vocab   schema.Vocab
	sch     *schema.Schema
	closed  *schema.Closed
	pending []storage.Triple
	orders  []storage.Order

	raw      *storage.Store
	rawStats *stats.Stats
	sat      *saturate.Maintained
	satStats *stats.Stats
	frozen   bool
}

// StoreOption configures a Store at creation.
type StoreOption func(*Store)

// WithAllIndexes maintains all six permutation indexes (the paper's
// layout) instead of the minimal three.
func WithAllIndexes() StoreOption {
	return func(s *Store) { s.orders = storage.AllOrders }
}

// NewStore returns an empty store.
func NewStore(opts ...StoreOption) *Store {
	d := dict.New()
	s := &Store{
		dict:   d,
		vocab:  schema.EncodeVocab(d),
		orders: storage.DefaultOrders,
	}
	s.sch = schema.New(s.vocab)
	for _, o := range opts {
		o(s)
	}
	return s
}

// Add inserts one triple (schema or data). Schema triples are accepted
// only before Freeze.
func (s *Store) Add(t rdf.Triple) error {
	if err := t.Validate(); err != nil {
		return err
	}
	sub, p, o := s.dict.EncodeTriple(t)
	if s.sch.Vocab().IsConstraintProperty(p) {
		if s.frozen {
			return ErrFrozen
		}
		s.sch.AddTriple(sub, p, o)
		return nil
	}
	tr := storage.Triple{S: sub, P: p, O: o}
	if !s.frozen {
		s.pending = append(s.pending, tr)
		return nil
	}
	s.raw.Add(tr)
	if s.sat != nil {
		s.sat.Add(tr)
	}
	return nil
}

// Remove retracts one data triple, reporting whether it was present. The
// saturated twin, if built, shrinks by every consequence that is no
// longer derivable (delete-and-rederive). Constraint triples cannot be
// retracted after Freeze.
func (s *Store) Remove(t rdf.Triple) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	sub, p, o := s.dict.EncodeTriple(t)
	if s.sch.Vocab().IsConstraintProperty(p) {
		return false, ErrFrozen
	}
	tr := storage.Triple{S: sub, P: p, O: o}
	if !s.frozen {
		// Pending triples may repeat (Freeze deduplicates), so drop every
		// copy in one filtering pass.
		n := len(s.pending)
		s.pending = slices.DeleteFunc(s.pending, func(pend storage.Triple) bool { return pend == tr })
		return len(s.pending) < n, nil
	}
	removed := s.raw.Remove(tr)
	if removed && s.sat != nil {
		s.sat.Remove(tr)
	}
	return removed, nil
}

// MustAdd is Add, panicking on error; for statically known triples.
func (s *Store) MustAdd(t rdf.Triple) {
	if err := s.Add(t); err != nil {
		panic(err)
	}
}

// AddAll inserts every triple.
func (s *Store) AddAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := s.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// LoadNTriples reads N-Triples from r, returning the number of
// statements loaded.
func (s *Store) LoadNTriples(r io.Reader) (int, error) {
	rd := ntriples.NewReader(r)
	n := 0
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := s.Add(t); err != nil {
			return n, err
		}
		n++
	}
}

// LoadTurtle reads Turtle from r (prefixes, 'a', ';' and ','
// abbreviations), returning the number of triples loaded.
func (s *Store) LoadTurtle(r io.Reader) (int, error) {
	rd := turtle.NewReader(r)
	n := 0
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := s.Add(t); err != nil {
			return n, err
		}
		n++
	}
}

// Freeze closes the schema, loads the closed constraint triples next to
// the data, builds the indexes and collects statistics. It is idempotent.
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	s.closed = s.sch.Close()
	for _, c := range s.closed.ConstraintTriples() {
		s.pending = append(s.pending, storage.Triple{S: c[0], P: c[1], O: c[2]})
	}
	b := storage.NewBuilder(s.orders...)
	b.AddAll(s.pending)
	s.pending = nil
	s.raw = b.Build()
	s.rawStats = stats.Collect(s.raw, s.vocab)
	s.frozen = true
}

// Saturate builds the saturated store next to the raw one, enabling the
// Saturation strategy. It returns the number of implicit triples added.
// Freeze is called implicitly.
func (s *Store) Saturate() int {
	s.Freeze()
	if s.sat != nil {
		return s.sat.Store().Len() - s.raw.Len()
	}
	s.sat = saturate.NewMaintainedFrom(s.raw.Each, s.closed, s.orders...)
	s.satStats = stats.Collect(s.sat.Store(), s.vocab)
	return s.sat.Store().Len() - s.raw.Len()
}

// Compact merges the mutable delta of the raw store (and of the
// saturated twin, if built) into its frozen block-columnar base. Safe to
// call concurrently with readers and queries: in-flight evaluations keep
// answering against the snapshot they pinned. A no-op before Freeze.
func (s *Store) Compact() {
	if !s.frozen {
		return
	}
	s.raw.Compact()
	if s.sat != nil {
		s.sat.Store().Compact()
	}
}

// NumTriples returns the number of distinct triples (data plus closed
// constraints) in the raw store; before Freeze it counts the distinct
// pending data triples, sorting and deduplicating them in place to do so.
func (s *Store) NumTriples() int {
	if !s.frozen {
		storage.Sort(s.pending, storage.OrderSPO)
		s.pending = slices.Compact(s.pending)
		return len(s.pending)
	}
	return s.raw.Len()
}

// IndexFootprint is the resident cost of a store's index representation.
type IndexFootprint = storage.Footprint

// Footprint is what a store keeps resident for its explicit triples: the
// raw store's indexes and the dictionary they are encoded over.
type Footprint struct {
	Index     IndexFootprint // empty before Freeze
	DictBytes int            // as dict.Dict.Bytes counts them
}

// Footprint reports the raw store's index footprint and the dictionary's
// bytes.
func (s *Store) Footprint() Footprint {
	fp := Footprint{DictBytes: s.dict.Bytes()}
	if s.frozen {
		fp.Index = s.raw.Footprint()
	}
	return fp
}

// NumImplicit returns the number of implicit triples the saturation
// added, or 0 if Saturate has not run.
func (s *Store) NumImplicit() int {
	if s.sat == nil {
		return 0
	}
	return s.sat.Store().Len() - s.raw.Len()
}

// NewAnswerer builds a query answerer over this store with the given
// engine profile. Freeze is called implicitly.
func (s *Store) NewAnswerer(p Profile, opts Options) *Answerer {
	s.Freeze()
	raw := engine.New(s.raw, s.rawStats, p)
	var sat *engine.Engine
	if s.sat != nil {
		sat = engine.New(s.sat.Store(), s.satStats, p)
	}
	params := opts.CostParams
	if opts.Calibrate {
		params = core.Calibrate(raw)
	}
	source := core.OwnModel
	if opts.UseEngineCost {
		source = core.EngineInternal
	}
	inner := core.NewAnswerer(s.closed, raw, sat, core.Options{
		Params:       params,
		Source:       source,
		MaxCovers:    opts.MaxCovers,
		SearchBudget: opts.SearchBudget,
		Trace:        opts.Trace,
		PlanCache:    opts.PlanCache,
	})
	return &Answerer{store: s, inner: inner, profile: p, params: params, trace: opts.Trace}
}

// Answerer answers SPARQL BGP queries over one store through one engine
// profile.
type Answerer struct {
	store   *Store
	inner   *core.Answerer
	profile Profile
	params  CostParams
	trace   *Trace
}

// Profile returns the engine profile.
func (a *Answerer) Profile() Profile { return a.profile }

// WithTrace returns a copy of the Answerer whose queries record their
// lifecycle as children of tr (nil detaches tracing). The copy shares
// the store, the engines and the plan cache with the receiver; use it to
// give each run its own span tree without rebuilding the answerer.
func (a *Answerer) WithTrace(tr *Trace) *Answerer {
	cp := *a
	cp.trace = tr
	cp.inner = a.inner.WithTrace(tr)
	return &cp
}

// Params returns the cost-model constants in use.
func (a *Answerer) Params() CostParams { return a.params }

// Result is an answer set at the surface level: the engine's rows of
// dictionary IDs, decoded on demand. NumRows and Boolean decode nothing,
// Each decodes a row at a time, and Rows decodes every row on first call.
type Result struct {
	// Vars names the columns (the SELECT variables, in order); empty for
	// ASK queries.
	Vars []string
	// Report describes how the answer was computed.
	Report Report

	rel  *engine.Relation
	dict *dict.Dict
	rows [][]rdf.Term // decoded rows, built lazily by Rows
}

// NumRows returns the number of answers without decoding them.
func (r *Result) NumRows() int {
	if r.rel == nil {
		return len(r.rows)
	}
	return r.rel.Len()
}

// Rows decodes the full answer set; Rows()[i][j] is the value of
// Vars[j]. For an ASK query, a true answer is a single empty row. The
// decoded rows are cached, so repeated calls are cheap — but on a large
// result they hold every term of every row; prefer Each to stream.
func (r *Result) Rows() [][]rdf.Term {
	if r.rows == nil && r.rel != nil {
		rows := make([][]rdf.Term, 0, r.rel.Len())
		r.Each(func(row []rdf.Term) bool {
			rows = append(rows, row)
			return true
		})
		r.rows = rows
	}
	return r.rows
}

// Each streams the decoded answers in their canonical order, one row at
// a time; f returning false stops the iteration. Each row slice is
// distinct from every other and may be retained; rows are carved from
// slabs of at most eachSlabTerms terms, each sized to the rows still to
// come, so a small answer allocates only what it holds, and a retained
// row keeps its slab alive.
func (r *Result) Each(f func(row []rdf.Term) bool) {
	var slab []rdf.Term
	left := r.NumRows()
	r.EachIDs(func(ids []dict.ID, terms dict.View) bool {
		if len(slab) < len(ids) {
			slab = make([]rdf.Term, max(min(eachSlabTerms, left*len(ids)), len(ids)))
		}
		left--
		out := slab[:len(ids):len(ids)]
		slab = slab[len(ids):]
		for i, id := range ids {
			out[i] = terms.Term(id)
		}
		return f(out)
	})
}

// eachSlabTerms is the size of the slabs Each carves rows from: one
// allocation per ~1,000 cells rather than one per row.
const eachSlabTerms = 1024

// EachIDs is the streaming primitive under Each: the answers in their
// canonical order as dictionary IDs, one row at a time, with one
// lock-free view that resolves every ID of the result — so a consumer
// that only wants bytes (the query service) decodes each cell once and
// allocates nothing per row. ids is only valid during the call.
func (r *Result) EachIDs(f func(ids []dict.ID, terms dict.View) bool) {
	if r.rel == nil {
		return
	}
	terms := r.dict.View()
	r.rel.Each(func(ids []dict.ID) bool { return f(ids, terms) })
}

// StoredBytes estimates the bytes held by the answer rows: four per
// cell. Divide by NumRows for bytes per answer.
func (r *Result) StoredBytes() int64 {
	if r.rel == nil {
		return 0
	}
	return r.rel.StoredBytes()
}

// Boolean interprets the result as an ASK answer: true when the BGP has
// at least one match.
func (r *Result) Boolean() bool { return r.NumRows() > 0 }

// Query parses and answers a SPARQL BGP query.
func (a *Answerer) Query(text string, strategy Strategy) (*Result, error) {
	return a.QueryContext(context.Background(), text, strategy)
}

// QueryContext is Query under a context: when ctx is canceled or its
// deadline expires, the cover search and the evaluation stop early and
// the error matches ErrCanceled (errors.Is). An uncancelable context
// (context.Background) costs nothing over Query.
func (a *Answerer) QueryContext(ctx context.Context, text string, strategy Strategy) (*Result, error) {
	var parseSp *Trace
	if a.trace != nil {
		parseSp = a.trace.Child("parse")
	}
	q, err := sparql.Parse(text)
	parseSp.End()
	if err != nil {
		return nil, err
	}
	return a.QueryParsedContext(ctx, q, strategy)
}

// QueryParsed answers an already parsed query.
func (a *Answerer) QueryParsed(q *sparql.Query, strategy Strategy) (*Result, error) {
	return a.QueryParsedContext(context.Background(), q, strategy)
}

// QueryParsedContext is QueryParsed under a context; see QueryContext.
func (a *Answerer) QueryParsedContext(ctx context.Context, q *sparql.Query, strategy Strategy) (*Result, error) {
	var encSp *Trace
	if a.trace != nil {
		encSp = a.trace.Child("encode")
	}
	enc, err := sparql.Encode(q, a.store.dict)
	encSp.End()
	if err != nil {
		return nil, err
	}
	ans, err := a.inner.AnswerContext(ctx, enc.CQ, strategy)
	if err != nil {
		return nil, fmt.Errorf("answering %q with %s: %w", q.String(), strategy, err)
	}
	return a.decode(q, ans)
}

// Explain runs only the optimization stage: it reports the cover the
// strategy would evaluate and the search effort, without touching the
// data. Saturation has no optimization stage and returns a zero report.
func (a *Answerer) Explain(text string, strategy Strategy) (Report, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return Report{}, err
	}
	enc, err := sparql.Encode(q, a.store.dict)
	if err != nil {
		return Report{}, err
	}
	if strategy == Saturation {
		return Report{Strategy: Saturation}, nil
	}
	_, rep, err := a.inner.ChooseCover(enc.CQ, strategy)
	return rep, err
}

// ExplainPlan returns the engine's physical-plan description for the
// reformulation the strategy would evaluate — the EXPLAIN counterpart of
// Query. Saturation has no reformulation plan and returns a short note.
func (a *Answerer) ExplainPlan(text string, strategy Strategy) (string, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return "", err
	}
	enc, err := sparql.Encode(q, a.store.dict)
	if err != nil {
		return "", err
	}
	if strategy == Saturation {
		return "saturation-based answering: direct evaluation against the saturated store\n", nil
	}
	c, _, err := a.inner.ChooseCover(enc.CQ, strategy)
	if err != nil {
		return "", err
	}
	name := func(id dict.ID) string {
		term := a.store.dict.Term(id)
		if term.IsIRI() {
			// Compact display: the part after the last / or #.
			v := term.Value
			for i := len(v) - 1; i >= 0; i-- {
				if v[i] == '/' || v[i] == '#' {
					return v[i+1:]
				}
			}
			return v
		}
		return term.Canonical()
	}
	return a.inner.ExplainPlan(enc.CQ, c, name)
}

func (a *Answerer) decode(q *sparql.Query, ans *core.Answer) (*Result, error) {
	res := &Result{Report: ans.Report, rel: ans.Rel, dict: a.store.dict}
	for _, v := range q.Select {
		res.Vars = append(res.Vars, string(v))
	}
	return res, nil
}

// EncodeQuery exposes the dictionary-encoded form of a query — used by
// the benchmark harness; applications should not need it.
func (a *Answerer) EncodeQuery(q *sparql.Query) (bgp.CQ, error) {
	enc, err := sparql.Encode(q, a.store.dict)
	return enc.CQ, err
}
