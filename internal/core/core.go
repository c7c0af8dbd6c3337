// Package core assembles the paper's contribution: reformulation-based
// query answering that selects, from the space of cover-based JUCQ
// reformulations, the one with the lowest estimated cost (Definition 3.5),
// using either the exhaustive ECov search (Section 4.2) or the greedy
// anytime GCov search (Algorithm 1, Section 4.3), and evaluates it through
// a relational engine profile. The classic UCQ reformulation, the SCQ
// reformulation of Thomazo et al., and saturation-based answering are
// provided as the comparison strategies of the paper's Section 5.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bgp"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/plancache"
	"repro/internal/reformulate"
	"repro/internal/schema"
	"repro/internal/trace"
)

// Strategy selects how a query is answered.
type Strategy string

// The five strategies of the experimental comparison.
const (
	// Saturation evaluates the query directly against a saturated store.
	Saturation Strategy = "saturation"
	// UCQ evaluates the single-fragment cover: the whole query
	// reformulated into one (possibly enormous) union.
	UCQ Strategy = "ucq"
	// SCQ evaluates the one-atom-per-fragment cover: a join of per-triple
	// unions (Thomazo's semi-conjunctive queries).
	SCQ Strategy = "scq"
	// ECov evaluates the best cover found by exhaustive enumeration.
	ECov Strategy = "ecov"
	// GCov evaluates the best cover found by the greedy search.
	GCov Strategy = "gcov"
)

// Strategies lists all strategies in the order the paper's figures use.
func Strategies() []Strategy { return []Strategy{UCQ, SCQ, ECov, GCov, Saturation} }

// CostSource selects which cost estimate guides ECov and GCov.
type CostSource uint8

const (
	// OwnModel uses the paper's cost model (Section 4.1) over the
	// calibrated Params — the default.
	OwnModel CostSource = iota
	// EngineInternal asks the engine for its internal estimate of each
	// candidate plan, the paper's "Postgres EXPLAIN" alternative
	// (Figure 9). Much slower: every candidate must be priced by
	// streaming its member CQs through the engine's estimator.
	EngineInternal
)

// ErrNoSaturatedStore is returned when the Saturation strategy is
// requested on an answerer built without a saturated engine.
var ErrNoSaturatedStore = errors.New("core: no saturated store configured for saturation-based answering")

// Options tunes an Answerer.
type Options struct {
	// Params are the cost-model constants (calibrated per engine);
	// cost.DefaultParams when zero.
	Params cost.Params
	// Source selects the cost estimate guiding the search.
	Source CostSource
	// MaxCovers bounds ECov's enumeration; 0 means DefaultMaxCovers.
	// Hitting the bound marks the search non-exhaustive, reproducing the
	// paper's ECov timeout on its 10-atom DBLP query.
	MaxCovers int
	// GCovMaxCovers bounds the covers GCov prices; 0 means
	// DefaultGCovMaxCovers. Algorithm 1 admits equal-cost moves, so on
	// cost plateaus the frontier can wander; the bound keeps the greedy
	// search anytime, as Section 4.3's "one could easily change the stop
	// condition" remark anticipates.
	GCovMaxCovers int
	// SearchBudget bounds the optimization wall-clock time of ECov and
	// GCov; 0 means no limit.
	SearchBudget time.Duration
	// MaxUCQMembers bounds per-fragment reformulation materialization in
	// the EngineInternal cost source; 0 means DefaultMaxUCQMembers.
	MaxUCQMembers int
	// Trace, when non-nil, is the span query answering records its stage
	// tree under: ChooseCover adds an "optimize" child carrying search
	// effort, EvaluateCover adds "reformulate" (with per-fragment
	// children) and "evaluate" (with the engine's operator tree). nil —
	// the default — disables tracing at zero cost.
	Trace *trace.Span
	// PlanCache, when non-nil, caches the answering artifacts (chosen
	// cover, per-fragment reformulations, fragment statistics) across
	// queries, keyed by the canonical query signature and the answerer's
	// pricing (engine profile, cost source, constants and search
	// bounds), and validated against the store version and schema
	// stamp. A cache may be shared by any number of answerers over the
	// same store and schema, whatever their profiles: each finds only
	// the covers its own search would choose. It is safe for concurrent
	// use. Answers are identical with and without a cache — hits only
	// skip the optimize and reformulate stages.
	PlanCache *plancache.Cache
}

// DefaultMaxCovers bounds ECov's enumeration when Options.MaxCovers is 0.
const DefaultMaxCovers = 100_000

// DefaultGCovMaxCovers bounds GCov's exploration when
// Options.GCovMaxCovers is 0 — generous next to the tens-to-hundreds of
// covers the paper's Figure 7 reports GCov visiting.
const DefaultGCovMaxCovers = 2_000

// DefaultMaxUCQMembers bounds EngineInternal pricing when
// Options.MaxUCQMembers is 0.
const DefaultMaxUCQMembers = 100_000

// Answerer answers BGP queries over one RDF database through one engine
// profile.
type Answerer struct {
	sch  *schema.Closed
	raw  *engine.Engine // over the non-saturated store
	sat  *engine.Engine // over the saturated store; may be nil
	opts Options
	// pricing tags this answerer's plan-cache keys with everything that
	// decides which cover its search picks, so answerers sharing a
	// cache never serve each other's covers.
	pricing string
}

// NewAnswerer builds an answerer. raw evaluates reformulations against the
// non-saturated store (which must include the closed constraint triples);
// sat, if non-nil, evaluates the Saturation strategy against a saturated
// store.
func NewAnswerer(sch *schema.Closed, raw, sat *engine.Engine, opts Options) *Answerer {
	if opts.Params == (cost.Params{}) {
		opts.Params = cost.DefaultParams
	}
	if opts.MaxCovers == 0 {
		opts.MaxCovers = DefaultMaxCovers
	}
	if opts.GCovMaxCovers == 0 {
		opts.GCovMaxCovers = DefaultGCovMaxCovers
	}
	if opts.MaxUCQMembers == 0 {
		opts.MaxUCQMembers = DefaultMaxUCQMembers
	}
	a := &Answerer{sch: sch, raw: raw, sat: sat, opts: opts}
	if raw != nil {
		a.pricing = fmt.Sprintf("%s/%d/%v/%d/%d/%d", raw.Profile().Name, opts.Source, opts.Params,
			opts.MaxCovers, opts.GCovMaxCovers, opts.MaxUCQMembers)
	}
	return a
}

// WithTrace returns a copy of the answerer whose queries record their
// lifecycle under sp (see Options.Trace). The engines and the store are
// shared; only the trace attachment differs, so harnesses can attach a
// fresh root per run without rebuilding the answerer.
func (a *Answerer) WithTrace(sp *trace.Span) *Answerer {
	a2 := *a
	a2.opts.Trace = sp
	return &a2
}

// Raw returns the engine over the non-saturated store.
func (a *Answerer) Raw() *engine.Engine { return a.raw }

// Schema returns the closed schema.
func (a *Answerer) Schema() *schema.Closed { return a.sch }

// Report describes how a query was answered: the chosen cover, the search
// effort, the estimated cost, and the evaluation metrics — the quantities
// the paper's Tables 2–4 and Figures 7–8 report.
type Report struct {
	Strategy Strategy
	// Cover is the evaluated cover (nil for Saturation).
	Cover cover.Cover
	// FragmentCQs is |q_ref| per cover fragment.
	FragmentCQs []int64
	// TotalCQs is the summed number of member CQs across fragments.
	TotalCQs int64
	// EstimatedCost is the cost-model value of the evaluated plan.
	EstimatedCost float64
	// EstimatedRows is the model's final-cardinality estimate; 0 for
	// Saturation.
	EstimatedRows float64
	// CoversExplored counts the covers the search priced (1 for the
	// fixed UCQ and SCQ covers; 0 for Saturation).
	CoversExplored int
	// Exhaustive reports whether ECov visited the whole space.
	Exhaustive bool
	// OptimizeTime is the time spent choosing the cover (reformulating
	// fragments, estimating costs, searching).
	OptimizeTime time.Duration
	// EvalTime is the time spent evaluating the chosen reformulation.
	EvalTime time.Duration
	// Metrics are the engine's evaluation counters.
	Metrics engine.Metrics
	// Cached reports that the plan came from a plan-cache hit: the
	// optimize and reformulate stages were skipped and OptimizeTime is
	// the (near-zero) lookup time.
	Cached bool
}

// Answer holds the answer relation and the report.
type Answer struct {
	Rel    *engine.Relation
	Report Report
}

// Answer answers q with the given strategy.
func (a *Answerer) Answer(q bgp.CQ, strategy Strategy) (*Answer, error) {
	return a.AnswerContext(context.Background(), q, strategy)
}

// AnswerContext answers q under ctx: once ctx is done — a per-request
// deadline expired, a client disconnected — the optimization search
// stops at its next budget check and the evaluation stops at its next
// cancellation poll (engine.WithContext), surfacing the typed
// engine.ErrCanceled. An uncancelable ctx (context.Background) costs the
// hot path nothing; answers under any ctx that never fires are identical
// to Answer's.
func (a *Answerer) AnswerContext(ctx context.Context, q bgp.CQ, strategy Strategy) (*Answer, error) {
	if strategy == Saturation {
		if a.sat == nil {
			return nil, ErrNoSaturatedStore
		}
		eng := engineFor(a.sat, ctx)
		var evalSp *trace.Span
		if a.opts.Trace != nil {
			evalSp = a.opts.Trace.Child("evaluate")
			evalSp.SetStr("strategy", string(Saturation))
			eng = eng.WithSpan(evalSp)
		}
		start := time.Now()
		rel, m, err := eng.EvalCQ(q)
		evalSp.End()
		if err != nil {
			return nil, err
		}
		return &Answer{Rel: rel, Report: Report{
			Strategy: Saturation,
			EvalTime: time.Since(start),
			Metrics:  m,
		}}, nil
	}

	if a.opts.PlanCache == nil {
		c, rep, s, err := a.chooseCover(ctx, q, strategy)
		if err != nil {
			return nil, err
		}
		// The searcher already reformulated every fragment of the chosen
		// cover while pricing it; evaluate those artifacts directly
		// instead of reformulating from scratch (Reformulate is
		// deterministic, so the answer is byte-identical).
		frags, err := a.fragsFromSearch(c, s, rep)
		if err != nil {
			return nil, err
		}
		return a.evaluateFrags(ctx, headVars(q), frags, rep)
	}
	return a.answerWithCache(ctx, q, strategy)
}

// fragsFromSearch returns the searcher's fragment artifacts for cover c
// (see searchedFrags), recording them under a "reformulate" span so
// traces keep their stage shape; "memoized" counts the fragments whose
// reformulation already happened during optimize.
func (a *Answerer) fragsFromSearch(c cover.Cover, s *searcher, rep Report) ([]plancache.Fragment, error) {
	var refSp *trace.Span
	if a.opts.Trace != nil {
		refSp = a.opts.Trace.Child("reformulate")
		refSp.SetInt("fragments", int64(len(c)))
	}
	hits := s.fragMemoHits
	frags, err := searchedFrags(c, s)
	if refSp != nil {
		refSp.SetInt("memoized", s.fragMemoHits-hits)
		for i, f := range frags {
			fragSp := refSp.Child(fmt.Sprintf("fragment[%d]", i))
			fragSp.SetInt("atoms", int64(len(f.CQ.Atoms)))
			fragSp.SetInt("member_cqs", f.NumCQs)
			fragSp.End()
		}
		refSp.SetInt("total_cqs", rep.TotalCQs)
		refSp.End()
	}
	return frags, err
}

// searchedFrags returns the searcher's artifacts for the fragments of c:
// subquery, reformulation, member count and the arm estimates c is
// priced with — the unit of work evaluateFrags turns into an engine arm
// and a plan-cache entry stores. A fragment the search priced comes from
// its memo; one it never reached is reformulated and priced now.
func searchedFrags(c cover.Cover, s *searcher) ([]plancache.Fragment, error) {
	frags := make([]plancache.Fragment, len(c))
	for i, f := range c {
		info := s.frag(f)
		frags[i] = plancache.Fragment{CQ: info.cq, Ref: info.ref, NumCQs: info.numCQs, Stats: info.stats}
	}
	return frags, s.failure()
}

// engineFor attaches ctx to the engine when it is actually cancelable —
// context.Background().Done() is nil, so the common uncancelable path
// keeps the exact engine value (no copy, no poll).
func engineFor(e *engine.Engine, ctx context.Context) *engine.Engine {
	if ctx == nil || ctx.Done() == nil {
		return e
	}
	return e.WithContext(ctx)
}

// answerWithCache is the Answer path for answerers with a plan cache: a
// current entry skips straight to evaluation; otherwise the plan is
// computed once and installed, reusing the searcher's fragment
// reformulations so a miss costs no more than an uncached answer.
func (a *Answerer) answerWithCache(ctx context.Context, q bgp.CQ, strategy Strategy) (*Answer, error) {
	cache := a.opts.PlanCache
	reg := a.opts.Trace.Registry()
	// The validity stamps are read *before* planning: a mutation racing
	// the plan computation can only make the recorded version too old (a
	// spurious invalidation later), never let a stale plan pass as
	// current.
	storeV := a.raw.Store().Version()
	schemaS := a.sch.Stamp()
	key := plancache.Signature(a.pricing+"\x00"+string(strategy), q)

	start := time.Now()
	if e, out := cache.Get(key, storeV, schemaS); out == plancache.Hit {
		reg.Counter("plancache.hits").Add(1)
		rep := Report{
			Strategy:       Strategy(e.Strategy),
			Cover:          e.Cover,
			FragmentCQs:    append([]int64(nil), e.FragmentCQs...),
			TotalCQs:       e.TotalCQs,
			EstimatedCost:  e.EstimatedCost,
			EstimatedRows:  e.EstimatedRows,
			CoversExplored: e.CoversExplored,
			Exhaustive:     e.Exhaustive,
			Cached:         true,
			OptimizeTime:   time.Since(start),
		}
		return a.evaluateFrags(ctx, e.Head, e.Fragments, rep)
	} else if out == plancache.Stale {
		reg.Counter("plancache.invalidations").Add(1)
	}
	reg.Counter("plancache.misses").Add(1)

	c, rep, s, err := a.chooseCover(ctx, q, strategy)
	if err != nil {
		return nil, err
	}
	entry := &plancache.Entry{
		Key:            key,
		Strategy:       string(strategy),
		StoreVersion:   storeV,
		SchemaStamp:    schemaS,
		Head:           headVars(q),
		Cover:          c,
		EstimatedCost:  rep.EstimatedCost,
		EstimatedRows:  rep.EstimatedRows,
		CoversExplored: rep.CoversExplored,
		Exhaustive:     rep.Exhaustive,
		TotalCQs:       rep.TotalCQs,
		FragmentCQs:    append([]int64(nil), rep.FragmentCQs...),
	}
	// The searcher already reformulated every fragment of the chosen
	// cover while pricing it; reuse those artifacts for both the entry
	// and this evaluation instead of reformulating from scratch.
	frags, err := searchedFrags(c, s)
	if err != nil {
		return nil, err
	}
	entry.Fragments = frags
	ans, err := a.evaluateFrags(ctx, entry.Head, frags, rep)
	if err != nil {
		return ans, err
	}
	cache.Put(entry)
	return ans, nil
}

// ChooseCover runs only the optimization stage: it returns the cover the
// strategy would evaluate, with the search effort filled into the report.
func (a *Answerer) ChooseCover(q bgp.CQ, strategy Strategy) (cover.Cover, Report, error) {
	c, rep, _, err := a.chooseCover(context.Background(), q, strategy)
	return c, rep, err
}

// chooseCover is ChooseCover keeping the searcher, whose memoized
// fragment artifacts (reformulations, statistics) the caching answer
// path reuses. ctx bounds the search: a done context trips the same
// early-stop seam as the wall-clock budget, and the typed
// engine.ErrCanceled is surfaced instead of a silently truncated search.
func (a *Answerer) chooseCover(ctx context.Context, q bgp.CQ, strategy Strategy) (cover.Cover, Report, *searcher, error) {
	if err := checkQuery(q); err != nil {
		return nil, Report{}, nil, err
	}
	s, err := newSearcher(a, q)
	if err != nil {
		return nil, Report{}, nil, err
	}
	if ctx != nil {
		s.done = ctx.Done()
	}
	var sp *trace.Span
	if a.opts.Trace != nil {
		sp = a.opts.Trace.Child("optimize")
		sp.SetStr("strategy", string(strategy))
		defer sp.End()
	}
	start := time.Now()
	rep := Report{Strategy: strategy, Exhaustive: true}
	var c cover.Cover
	switch strategy {
	case UCQ:
		c = cover.WholeQuery(len(q.Atoms))
		rep.CoversExplored = 1
	case SCQ:
		c = cover.PerAtom(len(q.Atoms))
		rep.CoversExplored = 1
	case GCov:
		c, rep.CoversExplored = s.gcov()
	case ECov:
		c, rep.CoversExplored, rep.Exhaustive = s.ecov()
	default:
		return nil, Report{}, nil, fmt.Errorf("core: unknown strategy %q", strategy)
	}
	rep.Cover = c
	rep.EstimatedCost = s.coverCost(c)
	rep.EstimatedRows = s.final
	for _, f := range c {
		info := s.frag(f)
		rep.FragmentCQs = append(rep.FragmentCQs, info.numCQs)
		rep.TotalCQs += info.numCQs
	}
	if err := s.failure(); err != nil {
		return nil, Report{}, nil, err
	}
	// A context fired mid-search stopped it early (the expired() seam);
	// report the typed cancellation rather than a truncated search.
	if ctx != nil && ctx.Err() != nil {
		return nil, Report{}, nil, fmt.Errorf("%w (%v)", engine.ErrCanceled, ctx.Err())
	}
	rep.OptimizeTime = time.Since(start)
	if sp != nil {
		sp.SetInt("covers_explored", int64(rep.CoversExplored))
		sp.SetInt("fragments", int64(len(c)))
		sp.SetInt("total_cqs", rep.TotalCQs)
		if strategy == ECov && !rep.Exhaustive {
			sp.SetInt("truncated", 1)
		}
		s.recordSpan(sp)
	}
	return c, rep, s, nil
}

// EvaluateCover evaluates the cover-based JUCQ reformulation of q induced
// by cover c (Theorem 3.1) through the raw engine, completing the report.
// Its arms carry the row estimates a search pricing c computes, so c
// runs with the arm order and key filters it gets when a strategy
// chooses it.
func (a *Answerer) EvaluateCover(q bgp.CQ, c cover.Cover, rep Report) (*Answer, error) {
	s, err := newSearcher(a, q)
	if err != nil {
		return &Answer{Report: rep}, err
	}
	frags, err := a.fragsFromSearch(c, s, rep)
	if err != nil {
		return &Answer{Report: rep}, err
	}
	return a.evaluateFrags(context.Background(), headVars(q), frags, rep)
}

// headVars returns the head variable IDs of q (checkQuery enforces that
// heads are variables).
func headVars(q bgp.CQ) []uint32 {
	head := make([]uint32, len(q.Head))
	for i, h := range q.Head {
		head[i] = h.ID
	}
	return head
}

// evaluateFrags runs the evaluation stage over prepared fragment
// artifacts, completing the report. A cached plan (rep.Cached) marks its
// evaluate span so traces show the skipped stages.
func (a *Answerer) evaluateFrags(ctx context.Context, head []uint32, frags []plancache.Fragment, rep Report) (*Answer, error) {
	arms := estimatedArms(frags)
	eng := engineFor(a.raw, ctx)
	var evalSp *trace.Span
	if a.opts.Trace != nil {
		evalSp = a.opts.Trace.Child("evaluate")
		evalSp.SetStr("strategy", string(rep.Strategy))
		if rep.Cached {
			evalSp.SetInt("cached", 1)
		}
		eng = eng.WithSpan(evalSp)
	}
	start := time.Now()
	rel, m, err := eng.EvalArms(head, arms)
	annotateEstimates(evalSp, frags, rep)
	evalSp.End()
	rep.EvalTime = time.Since(start)
	rep.Metrics = m
	if err != nil {
		return &Answer{Report: rep}, err
	}
	return &Answer{Rel: rel, Report: rep}, nil
}

// annotateEstimates records the optimizer's estimates as float attrs on
// the evaluate span and its arm children, next to the observed integer
// counters, so a rendered trace shows estimated vs observed side by
// side. A nil span makes it a no-op.
func annotateEstimates(evalSp *trace.Span, frags []plancache.Fragment, rep Report) {
	if evalSp == nil {
		return
	}
	evalSp.SetFloat("est_cost", rep.EstimatedCost)
	evalSp.SetFloat("est_rows", rep.EstimatedRows)
	for i, f := range frags {
		armSp := evalSp.Find(fmt.Sprintf("arm[%d]", i))
		if armSp == nil {
			continue
		}
		armSp.SetFloat("est_rows", f.Stats.ResultTuples)
		armSp.SetFloat("est_scan_tuples", f.Stats.ScanTuples)
	}
}

// ExplainPlan renders the engine's physical-plan description for the
// cover-based reformulation of q induced by cover c — the EXPLAIN
// counterpart of EvaluateCover. name, if non-nil, decodes dictionary
// constants for display.
func (a *Answerer) ExplainPlan(q bgp.CQ, c cover.Cover, name func(dict.ID) string) (string, error) {
	// The searcher's fragment artifacts, so the plan shown carries the row
	// estimates evaluation orders and filters the arms by.
	s, err := newSearcher(a, q)
	if err != nil {
		return "", err
	}
	frags, err := searchedFrags(c, s)
	if err != nil {
		return "", err
	}
	return a.raw.ExplainArms(headVars(q), estimatedArms(frags), name), nil
}

// estimatedArms turns fragment artifacts into engine arms carrying the
// row estimates the engine orders and filters them by.
func estimatedArms(frags []plancache.Fragment) []engine.ArmSource {
	arms := make([]engine.ArmSource, len(frags))
	for i, f := range frags {
		arms[i] = armSource(f.CQ, f.Ref)
		arms[i].EstRows = f.Stats.ResultTuples
	}
	return arms
}

// armSource streams a fragment's factorized reformulation as an engine
// arm, without materializing the union.
func armSource(cq bgp.CQ, ref *reformulate.Reformulation) engine.ArmSource {
	n := ref.NumCQs()
	return engine.ArmSource{
		Vars:   ref.Vars,
		NumCQs: n,
		Leaves: n * int64(len(cq.Atoms)),
		Each:   ref.Each,
	}
}

func checkQuery(q bgp.CQ) error {
	if len(q.Atoms) == 0 {
		return errors.New("core: query has no atoms")
	}
	if len(q.Atoms) > cover.MaxAtoms {
		return fmt.Errorf("core: query has %d atoms; the cover search supports up to %d", len(q.Atoms), cover.MaxAtoms)
	}
	// An empty head is a boolean query (Section 2.2's x̄ = ∅ case): the
	// answer set is {()} or {}.
	for i, h := range q.Head {
		if !h.Var {
			return fmt.Errorf("core: head position %d is not a variable", i)
		}
	}
	return nil
}
