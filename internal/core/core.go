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
	"runtime"
	"time"

	"repro/internal/bgp"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/feedback"
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
	// Parallelism is the worker count for the cover-search pricing pools;
	// evaluation is always serial. 0 means runtime.GOMAXPROCS(0); 1 prices
	// serially. Results are identical regardless of the value.
	Parallelism int
	// NoSharedScan disables the engines' shared-scan layer (merged
	// member scans, member families and cross-member planning memos),
	// reproducing scan-per-member evaluation — an ablation knob for
	// measuring what the layer contributes. Answers are identical either way; the tuples
	// scanned and the work charged are not.
	NoSharedScan bool
	// Trace, when non-nil, is the span query answering records its stage
	// tree under: ChooseCover adds an "optimize" child carrying search
	// effort, EvaluateCover adds "reformulate" (with per-fragment
	// children) and "evaluate" (with the engine's operator tree). nil —
	// the default — disables tracing at zero cost.
	Trace *trace.Span
	// PlanCache, when non-nil, caches the answering artifacts (chosen
	// cover, per-fragment reformulations, fragment statistics) across
	// queries, keyed by the canonical query signature and validated
	// against the store version and schema stamp. A cache may be shared
	// by any number of answerers over the same store and schema; it is
	// safe for concurrent use. Answers are identical with and without a
	// cache — hits only skip the optimize and reformulate stages.
	PlanCache *plancache.Cache
	// Feedback, when non-nil, closes the estimate→observe→recalibrate
	// loop: every successful evaluation's observed cardinalities and
	// timings are folded into the loop, and cover pricing blends the
	// loop's learned corrections into Params. A loop may be shared by
	// any number of answerers over the same store and engine profile.
	// Feedback is strictly advisory: it perturbs only estimates, and
	// every cover computes the same answer set (Theorem 3.1), so
	// answers are identical with and without it.
	Feedback *feedback.Loop
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
}

// NewAnswerer builds an answerer. raw evaluates reformulations against the
// non-saturated store (which must include the closed constraint triples);
// sat, if non-nil, evaluates the Saturation strategy against a saturated
// store.
func NewAnswerer(sch *schema.Closed, raw, sat *engine.Engine, opts Options) *Answerer {
	if opts.Params == (cost.Params{}) {
		opts.Params = cost.DefaultParams
	}
	// Adjust the constants for the representation they will price: a
	// model calibrated against a flat store underprices scans of the
	// compressed block-columnar representation (and vice versa) by the
	// measured decode ratio. A no-op when the representation matches or
	// was never measured.
	if raw != nil {
		opts.Params = opts.Params.ForRepresentation(raw.Store().Footprint().Compressed)
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
		a.raw = raw.WithSharedScan(!opts.NoSharedScan)
	}
	if sat != nil {
		a.sat = sat.WithSharedScan(!opts.NoSharedScan)
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

// parallelism resolves the worker count the cover searches price with.
func (a *Answerer) parallelism() int {
	if a.opts.Parallelism > 0 {
		return a.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
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
	// EstimatedRows is the model's (feedback-corrected, when a loop is
	// configured) final-cardinality estimate; 0 for Saturation.
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
		return a.evaluateFrags(ctx, headVars(q), frags, rep, a.observationFor(s, rep, frags))
	}
	return a.answerWithCache(ctx, q, strategy)
}

// fragsFromSearch extracts the searcher's memoized fragment artifacts
// for the chosen cover, recording a "reformulate" span whose work
// happened during optimize (marked memoized) so traces keep their
// stage shape.
func (a *Answerer) fragsFromSearch(c cover.Cover, s *searcher, rep Report) ([]fragArtifact, error) {
	var refSp *trace.Span
	if a.opts.Trace != nil {
		refSp = a.opts.Trace.Child("reformulate")
		refSp.SetInt("fragments", int64(len(c)))
		refSp.SetInt("memoized", 1)
	}
	frags := make([]fragArtifact, len(c))
	for i, f := range c {
		info := s.frag(f)
		frags[i] = fragArtifact{cq: info.cq, ref: info.ref, stats: info.stats, key: info.key, hasStats: true}
		if refSp != nil {
			fragSp := refSp.Child(fmt.Sprintf("fragment[%d]", i))
			fragSp.SetInt("atoms", int64(len(info.cq.Atoms)))
			fragSp.SetInt("member_cqs", info.numCQs)
			fragSp.End()
		}
	}
	if refSp != nil {
		refSp.SetInt("total_cqs", rep.TotalCQs)
		refSp.End()
	}
	if err := s.failure(); err != nil {
		return nil, err
	}
	return frags, nil
}

// observationFor prepares the estimate side of a feedback observation
// from a completed cover search; evaluateFrags fills in the observed
// side. nil (no observation) without a feedback loop.
func (a *Answerer) observationFor(s *searcher, rep Report, frags []fragArtifact) *feedback.Observation {
	if a.opts.Feedback == nil {
		return nil
	}
	obs := &feedback.Observation{
		StoreVersion:  s.storeV,
		QueryKey:      s.finalKey,
		EstimatedCost: rep.EstimatedCost,
		EstimatedRows: rep.EstimatedRows,
		RawRows:       s.final,
		Arms:          make([]feedback.ArmObservation, len(frags)),
	}
	for i, fa := range frags {
		obs.Arms[i] = feedback.ArmObservation{Key: fa.key, Stats: fa.stats}
	}
	return obs
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
	fb := a.opts.Feedback
	reg := a.opts.Trace.Registry()
	// The validity stamps are read *before* planning: a mutation (or a
	// feedback drift event) racing the plan computation can only make
	// the recorded version too old (a spurious invalidation or re-price
	// later), never let a stale plan pass as current.
	storeV := a.raw.Store().Version()
	schemaS := a.sch.Stamp()
	fbV := fb.Version()
	key := plancache.Signature(string(strategy), q)

	start := time.Now()
	if e, out := cache.Get(key, storeV, schemaS); out == plancache.Hit {
		reg.Counter("plancache.hits").Add(1)
		// A hit must observe the *current* correction-factor version:
		// estimates priced before a drift event no longer describe what
		// the optimizer believes, so they are re-priced from the
		// entry's stored raw stats before being reported or observed
		// against. The plan itself (cover, reformulations) is reused
		// unchanged either way — only estimates move, so answers are
		// unaffected.
		if fb != nil && e.FeedbackVersion != fbV {
			e = a.repriceEntry(e, fb, fbV)
			reg.Counter("plancache.reprices").Add(1)
		}
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
		frags := make([]fragArtifact, len(e.Fragments))
		for i, f := range e.Fragments {
			frags[i] = fragArtifact{cq: f.CQ, ref: f.Ref, stats: f.Stats, key: f.Key, hasStats: true}
		}
		var obs *feedback.Observation
		if fb != nil {
			obs = &feedback.Observation{
				StoreVersion:  e.StoreVersion,
				QueryKey:      e.QueryKey,
				EstimatedCost: e.EstimatedCost,
				EstimatedRows: e.EstimatedRows,
				RawRows:       e.RawRows,
				Arms:          make([]feedback.ArmObservation, len(frags)),
			}
			for i, fa := range frags {
				obs.Arms[i] = feedback.ArmObservation{Key: fa.key, Stats: fa.stats}
			}
		}
		return a.evaluateFrags(ctx, e.Head, frags, rep, obs)
	} else if out == plancache.Stale {
		reg.Counter("plancache.invalidations").Add(1)
	}
	reg.Counter("plancache.misses").Add(1)

	c, rep, s, err := a.chooseCover(ctx, q, strategy)
	if err != nil {
		return nil, err
	}
	entry := &plancache.Entry{
		Key:             key,
		Strategy:        string(strategy),
		StoreVersion:    storeV,
		SchemaStamp:     schemaS,
		FeedbackVersion: fbV,
		Head:            headVars(q),
		Cover:           c,
		QueryKey:        s.finalKey,
		EstimatedCost:   rep.EstimatedCost,
		EstimatedRows:   rep.EstimatedRows,
		RawRows:         s.final,
		CoversExplored:  rep.CoversExplored,
		Exhaustive:      rep.Exhaustive,
		TotalCQs:        rep.TotalCQs,
		FragmentCQs:     append([]int64(nil), rep.FragmentCQs...),
	}
	// The searcher already reformulated every fragment of the chosen
	// cover while pricing it; reuse those artifacts for both the entry
	// and this evaluation instead of reformulating from scratch.
	frags := make([]fragArtifact, len(c))
	for i, f := range c {
		info := s.frag(f)
		frags[i] = fragArtifact{cq: info.cq, ref: info.ref, stats: info.stats, key: info.key, hasStats: true}
		entry.Fragments = append(entry.Fragments, plancache.Fragment{
			CQ:     info.cq,
			Ref:    info.ref,
			NumCQs: info.numCQs,
			Stats:  info.stats,
			Key:    info.key,
		})
	}
	if err := s.failure(); err != nil {
		return nil, err
	}
	ans, err := a.evaluateFrags(ctx, entry.Head, frags, rep, a.observationFor(s, rep, frags))
	if err != nil {
		return ans, err
	}
	cache.Put(entry)
	return ans, nil
}

// repriceEntry re-prices a cached plan under the current feedback
// corrections: cost and cardinality estimates are recomputed from the
// entry's stored *raw* fragment stats, and the refreshed entry —
// stamped with the feedback version read before re-pricing, so a drift
// event racing it triggers another re-price rather than being lost —
// replaces the old one in the cache.
func (a *Answerer) repriceEntry(e *plancache.Entry, fb *feedback.Loop, fbV uint64) *plancache.Entry {
	p := fb.Params(a.opts.Params)
	scan := fb.ScanFactor()
	arms := make([]cost.ArmStats, len(e.Fragments))
	for i, f := range e.Fragments {
		st := f.Stats
		st.ResultTuples = fb.Correct(f.Key, e.StoreVersion, st.ResultTuples)
		st.ScanTuples *= scan
		arms[i] = st
	}
	final := fb.Correct(e.QueryKey, e.StoreVersion, e.RawRows)
	ne := *e
	ne.FeedbackVersion = fbV
	ne.EstimatedCost = p.JUCQ(arms, final)
	ne.EstimatedRows = final
	a.opts.PlanCache.Reprice(&ne)
	return &ne
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
	rep.EstimatedRows = s.finalCorr
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
func (a *Answerer) EvaluateCover(q bgp.CQ, c cover.Cover, rep Report) (*Answer, error) {
	return a.evaluateCover(context.Background(), q, c, rep)
}

// evaluateCover is EvaluateCover under a caller context.
func (a *Answerer) evaluateCover(ctx context.Context, q bgp.CQ, c cover.Cover, rep Report) (*Answer, error) {
	var refSp *trace.Span
	if a.opts.Trace != nil {
		refSp = a.opts.Trace.Child("reformulate")
		refSp.SetInt("fragments", int64(len(c)))
	}
	frags := make([]fragArtifact, len(c))
	for i, f := range c {
		cq := cover.Query(q, f)
		var fragSp *trace.Span
		if refSp != nil {
			fragSp = refSp.Child(fmt.Sprintf("fragment[%d]", i))
			fragSp.SetInt("atoms", int64(len(cq.Atoms)))
		}
		ref, err := reformulate.Reformulate(cq, a.sch)
		if err != nil {
			refSp.End()
			return &Answer{Report: rep}, err
		}
		frags[i] = fragArtifact{cq: cq, ref: ref}
		if fragSp != nil {
			fragSp.SetInt("member_cqs", ref.NumCQs())
			fragSp.End()
		}
	}
	if refSp != nil {
		refSp.SetInt("total_cqs", rep.TotalCQs)
		refSp.End()
	}
	return a.evaluateFrags(ctx, headVars(q), frags, rep, nil)
}

// fragArtifact pairs a cover fragment's subquery with its reformulation —
// the unit of work evaluateFrags turns into an engine arm, whatever
// produced it (a fresh Reformulate call, the searcher's memo, or a plan
// cache entry). When the artifact came from a search or cache entry it
// also carries the raw arm estimates and the fragment's canonical key,
// which the feedback loop pairs with the observed cardinalities.
type fragArtifact struct {
	cq       bgp.CQ
	ref      *reformulate.Reformulation
	stats    cost.ArmStats
	key      string
	hasStats bool
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
// evaluate span so traces show the skipped stages. obs, when non-nil,
// is the estimate side of a feedback observation: the observed arm
// cardinalities, metrics and timing are filled in and the completed
// observation folded into the loop — but only on success, so a
// cancelled or failed evaluation never updates the coefficients.
func (a *Answerer) evaluateFrags(ctx context.Context, head []uint32, frags []fragArtifact, rep Report, obs *feedback.Observation) (*Answer, error) {
	arms := make([]engine.ArmSource, len(frags))
	for i, fa := range frags {
		arms[i] = armSource(fa.cq, fa.ref)
		arms[i].EstRows = fa.stats.ResultTuples
	}
	eng := engineFor(a.raw, ctx)
	fb := a.opts.Feedback
	var armRows []int64
	if fb != nil && obs != nil {
		// The engine reports only arms it evaluated in full; an arm it
		// ran under a key filter keeps the -1 and is left out of the
		// observation, so its shared correction never learns the share of
		// the fragment that one query's other arms let through.
		armRows = make([]int64, len(arms))
		for i := range armRows {
			armRows[i] = -1
		}
		eng = eng.WithArmObserver(func(i int, n int64) { armRows[i] = n })
	}
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
	evalSp.End()
	rep.EvalTime = time.Since(start)
	rep.Metrics = m
	if err != nil {
		return &Answer{Report: rep}, err
	}
	if fb != nil && obs != nil {
		obs.ActualRows = int64(rel.Len())
		obs.Metrics = m
		obs.EvalNs = rep.EvalTime.Nanoseconds()
		a.annotateEstimates(evalSp, obs)
		for i, n := range armRows {
			if n < 0 {
				obs.Arms[i].Key = "" // Observe skips keyless arms
				continue
			}
			obs.Arms[i].ActualRows = n
		}
		fb.Observe(*obs)
		a.opts.Trace.Registry().Counter("feedback.observations").Add(1)
	}
	return &Answer{Rel: rel, Report: rep}, nil
}

// annotateEstimates records the optimizer's estimates as float attrs on
// the evaluate span and its arm children, next to the observed integer
// counters, so a rendered trace shows estimated vs observed side by
// side. The per-arm estimates are corrected with the factors in force
// before this observation folds in — i.e. what pricing used.
func (a *Answerer) annotateEstimates(evalSp *trace.Span, obs *feedback.Observation) {
	if evalSp == nil {
		return
	}
	evalSp.SetFloat("est_cost", obs.EstimatedCost)
	evalSp.SetFloat("est_rows", obs.EstimatedRows)
	fb := a.opts.Feedback
	scan := fb.ScanFactor()
	for i, ao := range obs.Arms {
		armSp := evalSp.Find(fmt.Sprintf("arm[%d]", i))
		if armSp == nil {
			continue
		}
		armSp.SetFloat("est_rows", fb.Correct(ao.Key, obs.StoreVersion, ao.Stats.ResultTuples))
		armSp.SetFloat("est_scan_tuples", ao.Stats.ScanTuples*scan)
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
	arms := make([]engine.ArmSource, len(c))
	for i, f := range c {
		info := s.frag(f)
		arms[i] = armSource(info.cq, info.ref)
		arms[i].EstRows = info.stats.ResultTuples
	}
	if err := s.failure(); err != nil {
		return "", err
	}
	return a.raw.ExplainArms(headVars(q), arms, name), nil
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
