// Package engine is the query evaluation engine the reformulated queries
// are handed to — the role PostgreSQL, DB2 and MySQL play in the paper's
// experiments (Section 5.1). It evaluates CQs by index bind-joins over the
// triple store (greedy join ordering, statistics-driven), UCQs by
// evaluating members under a shared duplicate-elimination set, and JUCQs
// as a pipeline of arms, smallest estimate first, each evaluated under a
// semi-join filter of what is already joined and joined in with a
// profile-selected algorithm.
//
// Engine *profiles* reproduce the paper's observation that well-established
// engines differ sharply in their ability to process reformulated queries:
//
//   - a maximum plan size (union fan-in × atoms), whose violation emulates
//     DB2's "stack depth limit exceeded" on the 318,096-member UCQ of the
//     paper's Motivating Example 2;
//   - a materialization budget, whose violation emulates the I/O
//     exceptions the paper reports when an engine fails to materialize an
//     intermediary result;
//   - a work budget, whose violation emulates the paper's 2-hour timeout;
//   - the join algorithm available for combining arm results: hash and
//     sort-merge for the Postgres- and DB2-like profiles, nested loops
//     only for the MySQL-5.6-like profile (hash joins arrived in MySQL
//     8.0.18), which is what makes SCQ-style reformulations pathological
//     there.
//
// All failures are typed sentinel errors so the benchmark harness can
// report "missing bars" exactly as the paper's figures do.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Typed failures, mirroring the failure modes of Section 5's experiments.
var (
	// ErrPlanTooComplex reports a query whose physical plan exceeds the
	// profile's plan-size limit (the DB2-like stack overflow).
	ErrPlanTooComplex = errors.New("engine: query plan exceeds the profile's plan-size limit")
	// ErrMemoryBudget reports an intermediate result too large to
	// materialize under the profile's memory budget.
	ErrMemoryBudget = errors.New("engine: intermediate result exceeds the profile's materialization budget")
	// ErrWorkBudget reports an evaluation that exceeded the profile's
	// work budget (the experiment timeout).
	ErrWorkBudget = errors.New("engine: evaluation exceeded the profile's work budget")
	// ErrCanceled reports an evaluation interrupted by its context
	// (WithContext): the caller's deadline expired or the request was
	// canceled mid-flight. Unlike the budget errors it is not a property
	// of the query — retrying under a fresh context may succeed.
	ErrCanceled = errors.New("engine: evaluation canceled by the caller's context")
)

// JoinAlgorithm selects how materialized arm relations are joined.
type JoinAlgorithm uint8

const (
	// HashJoin builds a hash table on the smaller input. Linear in the
	// inputs and the output.
	HashJoin JoinAlgorithm = iota
	// MergeJoin sorts both inputs on the join key and merges.
	MergeJoin
	// NestedLoopJoin compares every pair of rows; quadratic, the only
	// choice on engines without hash joins for unindexed intermediates.
	NestedLoopJoin
)

// String names the algorithm.
func (a JoinAlgorithm) String() string {
	switch a {
	case HashJoin:
		return "hash"
	case MergeJoin:
		return "merge"
	case NestedLoopJoin:
		return "nested-loop"
	default:
		return fmt.Sprintf("JoinAlgorithm(%d)", uint8(a))
	}
}

// Profile is an engine personality: the resource limits and operator
// repertoire that distinguish the three RDBMSs of the paper's study.
// A zero limit means "unlimited".
type Profile struct {
	Name string
	// MaxPlanLeaves bounds the physical plan size, measured in scan
	// leaves (union arms × atoms per arm, summed over JUCQ arms).
	MaxPlanLeaves int64
	// MaxMaterializedRows bounds every materialized intermediate
	// (arm results, duplicate-elimination sets, join outputs).
	MaxMaterializedRows int
	// WorkBudget bounds total work units (tuples scanned, rows compared,
	// hashed or emitted) for one query; exceeding it is the timeout.
	WorkBudget int64
	// ArmJoin is the algorithm used to join materialized arm relations.
	ArmJoin JoinAlgorithm
	// DisableJoinOrdering evaluates member CQs in textual atom order
	// instead of the greedy statistics-driven order — an ablation knob,
	// not a realistic engine behaviour.
	DisableJoinOrdering bool
}

// The three profiles of the experimental study. The limits are scaled to
// this reproduction's dataset sizes (about 10^5–10^7 triples) the same way
// the originals' limits related to the paper's 10^6–10^8: low enough that
// the pathological reformulations fail, high enough that reasonable ones
// run.
var (
	// DB2Like fails first on plan size: large UCQs blow its stack.
	DB2Like = Profile{
		Name:                "db2like",
		MaxPlanLeaves:       8_000,
		MaxMaterializedRows: 6_000_000,
		WorkBudget:          3_000_000_000,
		ArmJoin:             MergeJoin,
	}
	// PostgresLike accepts bigger plans but has a tighter memory budget
	// for materialized intermediates.
	PostgresLike = Profile{
		Name:                "postgreslike",
		MaxPlanLeaves:       120_000,
		MaxMaterializedRows: 4_000_000,
		WorkBudget:          3_000_000_000,
		ArmJoin:             HashJoin,
	}
	// MySQLLike tolerates huge unions but joins intermediates with
	// nested loops only, so large-arm SCQ plans time out while the
	// small-arm covers GCov selects still fit the budget.
	MySQLLike = Profile{
		Name:                "mysqllike",
		MaxPlanLeaves:       600_000,
		MaxMaterializedRows: 8_000_000,
		WorkBudget:          4_000_000_000,
		ArmJoin:             NestedLoopJoin,
	}
	// Native is an unconstrained profile with the best operators — used
	// as the Virtuoso-like native RDF engine in the saturation
	// comparison, and for correctness tests.
	Native = Profile{Name: "native", ArmJoin: HashJoin}
)

// Profiles lists the three RDBMS-like profiles in the order the paper's
// figures show them.
func Profiles() []Profile { return []Profile{DB2Like, PostgresLike, MySQLLike} }

// Metrics accumulates observable work for one evaluation; the cost-model
// calibration fits its counters against wall-clock time.
type Metrics struct {
	TuplesScanned    int64 // tuples read from store indexes
	RowsMaterialized int64 // rows written to materialized intermediates
	RowsJoined       int64 // rows emitted by arm joins
	RowsDeduped      int64 // rows dropped by duplicate elimination
	UnionArms        int64 // member CQs evaluated
	Work             int64 // total charged work units
}

// Engine evaluates encoded queries against one store under one profile.
// It is safe for concurrent use; each evaluation carries its own context.
type Engine struct {
	store *storage.Store
	st    *stats.Stats
	prof  Profile
	// span, when non-nil, is the trace span evaluations record their
	// operator tree under (see WithSpan). nil — the default — disables
	// tracing: the evaluation hot path then pays one nil check per
	// instrumentation point and allocates nothing for tracing.
	span *trace.Span
	// noShared disables the shared-scan layer (merged member scans,
	// member families, cross-member planning memos); see WithSharedScan.
	// Snapshot pinning stays on either way.
	noShared bool
	// ctx, when non-nil, can interrupt evaluations mid-flight (see
	// WithContext). nil — the default — means evaluations run to
	// completion or budget exhaustion; the hot path then pays nothing
	// for cancellation beyond one nil check per budget charge.
	ctx context.Context
	// armObs, when non-nil, is called with the observed cardinality of
	// each arm evaluated without a key filter (see WithArmObserver).
	armObs func(arm int, rows int64)
}

// New returns an engine over the store with the given statistics and
// profile.
func New(store *storage.Store, st *stats.Stats, prof Profile) *Engine {
	return &Engine{store: store, st: st, prof: prof}
}

// WithSpan returns a copy of the engine whose evaluations record their
// operator tree (per-arm, join and projection spans with row, dedup and
// member-family counters) as children of sp, and accumulate engine.* totals
// into sp's counter registry. A nil sp returns an engine with tracing
// disabled — the zero-overhead default.
func (e *Engine) WithSpan(sp *trace.Span) *Engine {
	e2 := *e
	e2.span = sp
	return &e2
}

// WithContext returns a copy of the engine whose evaluations stop early
// with ErrCanceled once ctx is done. Cancellation shares the budget seam:
// the work counter doubles as the poll clock, and the
// context's done channel is polled only when a charge crosses a
// cancelCheckWork boundary — about once per 4096 work units (the
// bind-join holds back at most half that before charging; see meter) —
// and the evaluation unwinds through the ordinary error path: the
// snapshot is released, and the typed error reports the context's cause.
// A ctx that can never be canceled (context.Background) leaves the poll
// disabled entirely.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	e2 := *e
	e2.ctx = ctx
	return &e2
}

// WithSharedScan returns a copy of the engine with the shared-scan
// layer enabled (the default) or disabled. The layer comprises the
// merged evaluation of member CQs differing in one constant, the
// cross-member planning memos (join orders and cardinality probes shared
// across an arm), and member families (see evalFamily); disabling it
// reproduces scan-per-member evaluation — the baseline the ablation
// benchmarks compare against. Answers are identical either way; TuplesScanned and
// Work count the scans and probes each side performs, and rows may come
// out in another order. Snapshot pinning is not affected: every evaluation
// reads through an immutable snapshot regardless, which is what makes
// nested bind-join scans safe under concurrent store mutation.
func (e *Engine) WithSharedScan(on bool) *Engine {
	e2 := *e
	e2.noShared = !on
	return &e2
}

// WithArmObserver returns a copy of the engine that calls f with the
// index and result row count of every UCQ arm it evaluated in full. An
// arm evaluated under a key filter (see keyFilter) is not reported: what
// it returned is the share of its result the earlier arms could join
// with, not the fragment's cardinality. The adaptive cost model uses this
// to compare estimated against actual arm cardinalities without
// allocating a trace tree. f is called from the evaluating goroutine, at
// most once per arm. A nil f disables observation.
func (e *Engine) WithArmObserver(f func(arm int, rows int64)) *Engine {
	e2 := *e
	e2.armObs = f
	return &e2
}

// SharedScan reports whether the shared-scan layer is enabled.
func (e *Engine) SharedScan() bool { return !e.noShared }

// Profile returns the engine's profile.
func (e *Engine) Profile() Profile { return e.prof }

// Stats returns the statistics the engine plans with.
func (e *Engine) Stats() *stats.Stats { return e.st }

// Store returns the underlying triple store.
func (e *Engine) Store() *storage.Store { return e.store }

// evalCtx tracks budgets and metrics for one evaluation, which runs on
// one goroutine. The bind-join charges them through its meter, in
// batches.
type evalCtx struct {
	prof Profile
	// span is the evaluation's trace span (nil = tracing off). Operator
	// code creates children of it; per-row work never touches it.
	span *trace.Span
	// snap is the immutable store view every scan and stats probe of
	// this evaluation reads through, pinned once at the top of EvalArms.
	// No lock is held while reading it, so bind-joins nest freely and
	// concurrent store mutations cannot deadlock or skew the evaluation
	// mid-flight.
	snap *storage.Snapshot
	// shared enables merged member scans, member families and the
	// cross-member planning memos.
	shared bool
	// done is the cancellation signal of the evaluation's context, nil
	// when the engine has no cancelable context: charge then skips the
	// poll entirely, keeping the uncancellable path zero-cost. cctx is
	// the context itself, read only to report the cancellation cause.
	done <-chan struct{}
	cctx context.Context

	tuplesScanned    atomic.Int64
	rowsMaterialized atomic.Int64
	rowsJoined       atomic.Int64
	rowsDeduped      atomic.Int64
	unionArms        atomic.Int64
	work             atomic.Int64

	// Shared-scan observability (trace-only; deliberately not part of
	// Metrics, so the shared and baseline paths stay Metrics-identical).
	mergedMembers atomic.Int64 // members evaluated under a merged scan
	snapRanges    atomic.Int64 // depth-0 scans resolved to zero-copy snapshot ranges
	filtered      atomic.Int64 // bindings dropped by an arm's key filter
	families      atomic.Int64 // member families evaluated
	familyProbes  atomic.Int64 // depth-1 probes, one per family and binding
}

// snapshot returns the metrics accumulated so far.
func (c *evalCtx) snapshot() Metrics {
	return Metrics{
		TuplesScanned:    c.tuplesScanned.Load(),
		RowsMaterialized: c.rowsMaterialized.Load(),
		RowsJoined:       c.rowsJoined.Load(),
		RowsDeduped:      c.rowsDeduped.Load(),
		UnionArms:        c.unionArms.Load(),
		Work:             c.work.Load(),
	}
}

// finishSpan records the evaluation's accumulated metrics and budget
// consumption on the trace span and bumps the trace-wide engine.*
// counters. Called once per evaluation, after it has finished; a nil
// span makes it a no-op.
func (c *evalCtx) finishSpan(sp *trace.Span, err error) {
	if sp == nil {
		return
	}
	m := c.snapshot()
	sp.SetInt("tuples_scanned", m.TuplesScanned)
	sp.SetInt("rows_materialized", m.RowsMaterialized)
	sp.SetInt("rows_joined", m.RowsJoined)
	sp.SetInt("dedup_hits", m.RowsDeduped)
	sp.SetInt("union_arms", m.UnionArms)
	sp.SetInt("work", m.Work)
	sp.SetInt("merged_members", c.mergedMembers.Load())
	sp.SetInt("snapshot_ranges", c.snapRanges.Load())
	if c.snap != nil {
		sp.SetInt("snapshot_version", int64(c.snap.Version()))
	}
	if c.prof.WorkBudget > 0 {
		sp.SetInt("work_budget", c.prof.WorkBudget)
	}
	if err != nil {
		sp.SetStr("error", err.Error())
	}
	reg := sp.Registry()
	reg.Counter("engine.evals").Add(1)
	reg.Counter("engine.tuples_scanned").Add(m.TuplesScanned)
	reg.Counter("engine.rows_materialized").Add(m.RowsMaterialized)
	reg.Counter("engine.rows_joined").Add(m.RowsJoined)
	reg.Counter("engine.dedup_hits").Add(m.RowsDeduped)
	reg.Counter("engine.union_arms").Add(m.UnionArms)
	reg.Counter("engine.work").Add(m.Work)
	reg.Counter("merged_members").Add(c.mergedMembers.Load())
	reg.Counter("snapshot_ranges").Add(c.snapRanges.Load())
	if err != nil {
		reg.Counter("engine.errors").Add(1)
	}
}

// cancelCheckShift spaces the cancellation polls on the work counter:
// the done channel is polled when a charge crosses a multiple of
// 2^cancelCheckShift (4096) work units. One work unit is one scanned
// tuple or one deduplicated row, so even the cheapest evaluations poll
// within microseconds of real work, while a charge costs one predictable
// branch on the counter value.
const cancelCheckShift = 12

// charge adds n work units, failing when the budget is exhausted or —
// on poll boundaries — when the evaluation's context has been canceled.
func (c *evalCtx) charge(n int64) error {
	w := c.work.Add(n)
	if c.prof.WorkBudget > 0 && w > c.prof.WorkBudget {
		return fmt.Errorf("%w (%s: %d units)", ErrWorkBudget, c.prof.Name, w)
	}
	if c.done != nil && (w>>cancelCheckShift) != ((w-n)>>cancelCheckShift) {
		return c.canceled()
	}
	return nil
}

// canceled polls the evaluation's cancellation signal without blocking,
// returning the typed ErrCanceled (with the context's own error as the
// cause) once the context is done. A context-free evaluation returns nil
// after one nil check.
func (c *evalCtx) canceled() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return fmt.Errorf("%w (%v)", ErrCanceled, c.cctx.Err())
	default:
		return nil
	}
}

// checkRows fails when a materialized intermediate exceeds the budget.
func (c *evalCtx) checkRows(n int) error {
	if c.prof.MaxMaterializedRows > 0 && n > c.prof.MaxMaterializedRows {
		return fmt.Errorf("%w (%s: %d rows)", ErrMemoryBudget, c.prof.Name, n)
	}
	return nil
}
