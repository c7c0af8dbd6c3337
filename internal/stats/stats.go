// Package stats collects the data statistics the cost model of the paper's
// Section 4.1 relies on, and derives cardinality estimates for triple
// patterns and conjunctive queries.
//
// Per-pattern counts (|q_{t}| in the paper's notation) are *exact*: the
// storage layer answers any bound-prefix pattern count with two binary
// searches, so looking the number up is cheaper than maintaining an
// approximate histogram would be. Join-result cardinalities are estimated
// with the classic value-set-containment assumption, using per-property
// triple, distinct-subject and distinct-object counts. The storage
// loader tallies those while it sorts the SPO and POS indexes, at bulk
// load and at every compaction: a property's (S,P) runs in SPO order give
// its subjects, its (P,O) runs in POS order its objects. Collect only
// reads the tallies.
package stats

import (
	"slices"
	"sync"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/storage"
)

// PropStat holds the per-property statistics gathered at collection time.
type PropStat struct {
	Count     int // triples with this property
	DistinctS int // distinct subjects among them
	DistinctO int // distinct objects among them
}

// Stats provides cardinality information for one store.
//
//lint:cache statsmemo
type Stats struct {
	store *storage.Store
	vocab schema.Vocab
	total int
	props map[dict.ID]PropStat

	mu          sync.Mutex
	memo        map[storage.Pattern]int
	memoVersion uint64 // store.Version() the memo contents were computed at
}

// Collect returns the store's statistics. vocab supplies the rdf:type ID
// used to recognize class-membership patterns.
//
// The per-property statistics are the loader's tallies
// (storage.Store.PropTallies), taken while it built or last compacted the
// SPO and POS indexes, so Collect reads O(properties) numbers and walks
// no index.
func Collect(store *storage.Store, vocab schema.Vocab) *Stats {
	tallies := store.PropTallies()
	st := &Stats{
		store: store,
		vocab: vocab,
		total: store.Len(),
		props: make(map[dict.ID]PropStat, len(tallies)),
		memo:  make(map[storage.Pattern]int),
	}
	for _, pt := range tallies {
		st.props[pt.P] = PropStat{Count: pt.Count, DistinctS: pt.DistinctS, DistinctO: pt.DistinctO}
	}
	// Read the version after the tallies: PropTallies may have compacted
	// the store (bumping it), and the memo starts empty either way.
	//lint:ignore lockguard construction: st is not shared until Collect returns
	st.memoVersion = store.Version()
	return st
}

// Total returns the number of triples in the store at collection time.
func (st *Stats) Total() int { return st.total }

// Property returns the per-property statistics (zero value if unseen).
//
//lint:ignore versionstamp props is a collection-time estimate frozen at Collect; only the exact-count pattern memo is version-validated
func (st *Stats) Property(p dict.ID) PropStat { return st.props[p] }

// EachProperty calls f for every property with its statistics, in
// unspecified order, stopping early if f returns false.
func (st *Stats) EachProperty(f func(dict.ID, PropStat) bool) {
	for p, ps := range st.props {
		if !f(p, ps) {
			return
		}
	}
}

// maxPatternMemo bounds the pattern-count memo. Stats live for the whole
// process (one instance per store), while the distinct patterns a
// long-running workload asks about are unbounded — every fresh constant
// in a query coins a fresh pattern — so an uncapped memo is a slow leak.
// When the cap is hit the memo is reset wholesale: counts are cheap to
// recompute (two binary searches in storage), so a dumb reset beats the
// bookkeeping of an eviction policy here.
const maxPatternMemo = 1 << 16

// CountSource is the read surface the statistics need from the storage
// layer: exact pattern counts stamped with a mutation version. Both the
// live *storage.Store and a pinned *storage.Snapshot satisfy it, so the
// engine can price plans against the same immutable view it evaluates —
// a probe through a snapshot takes no lock and cannot deadlock inside a
// scan callback.
type CountSource interface {
	Count(storage.Pattern) int
	Version() uint64
}

// PatternCount returns the exact number of triples matching the pattern
// in the live store, memoized. See PatternCountOn.
func (st *Stats) PatternCount(p storage.Pattern) int {
	return st.PatternCountOn(st.store, p)
}

// PatternCountOn returns the exact number of triples matching the
// pattern in src (the live store or a pinned snapshot), memoized. Safe
// for concurrent use. The memo is bounded by maxPatternMemo and reset
// on overflow, so arbitrarily many distinct patterns cannot grow it
// without limit.
//
// The memo is stamped with the source's mutation version: a count is
// served from the memo only when the memo stamp equals src.Version(),
// and a version change discards every cached count, so the cost model
// never prices covers against statistics from a different store state.
// A count is cached only if src.Version() is unchanged on both sides of
// the Count call — always true for a snapshot, and for the live store
// it means a concurrent mutation mid-count conservatively leaves the
// memo alone.
func (st *Stats) PatternCountOn(src CountSource, p storage.Pattern) int {
	v := src.Version()
	st.mu.Lock()
	if st.memoVersion != v {
		st.memo = make(map[storage.Pattern]int, 1024)
		st.memoVersion = v
	}
	n, ok := st.memo[p]
	st.mu.Unlock()
	if ok {
		return n
	}
	n = src.Count(p)
	st.mu.Lock()
	if st.memoVersion == v && src.Version() == v {
		if len(st.memo) >= maxPatternMemo {
			st.memo = make(map[storage.Pattern]int, 1024)
		}
		st.memo[p] = n
	}
	st.mu.Unlock()
	return n
}

// AtomCard returns the (estimated) number of triples matching the atom
// in the live store. See AtomCardOn.
func (st *Stats) AtomCard(a bgp.Atom) float64 {
	return st.AtomCardOn(st.store, a)
}

// AtomCardOn returns the (estimated) number of triples matching the atom
// in src (the live store or a pinned snapshot). Constant positions are
// looked up exactly; an atom with the same variable in two positions gets
// the matching-pair count discounted by the corresponding distinct count.
func (st *Stats) AtomCardOn(src CountSource, a bgp.Atom) float64 {
	pat := storage.Pattern{}
	if !a.S.Var {
		pat.S = a.S.Const()
	}
	if !a.P.Var {
		pat.P = a.P.Const()
	}
	if !a.O.Var {
		pat.O = a.O.Const()
	}
	card := float64(st.PatternCountOn(src, pat))
	// Repeated-variable discount: positions forced equal keep roughly a
	// 1/distinct fraction of the unconstrained matches. Every extra
	// occurrence of one variable adds an equality, whichever pair of
	// positions repeats (S=O, S=P, P=O — or all three at once).
	pos := a.Positions()
	for i, t := range pos {
		if !t.Var || repeatsEarlier(pos, i) {
			continue
		}
		n := 1
		for _, u := range pos[i+1:] {
			if u == t {
				n++
			}
		}
		if n < 2 {
			continue
		}
		d := st.distinctForOn(src, a, t.ID)
		if d <= 1 {
			continue
		}
		for ; n > 1; n-- {
			card /= d
		}
	}
	return card
}

// repeatsEarlier reports whether variable position pos[i] already
// occurs in pos[:i].
func repeatsEarlier(pos [3]bgp.Term, i int) bool {
	for _, u := range pos[:i] {
		if u == pos[i] {
			return true
		}
	}
	return false
}

// DistinctForVar estimates the number of distinct values variable v takes
// in matches of atom a; planners use it to discount bound variables.
func (st *Stats) DistinctForVar(a bgp.Atom, v uint32) float64 {
	return st.distinctForOn(st.store, a, v)
}

// DistinctForVarOn is DistinctForVar reading pattern counts through src.
func (st *Stats) DistinctForVarOn(src CountSource, a bgp.Atom, v uint32) float64 {
	return st.distinctForOn(src, a, v)
}

// distinctFor estimates the number of distinct values variable v takes in
// matches of atom a.
func (st *Stats) distinctFor(a bgp.Atom, v uint32) float64 {
	return st.distinctForOn(st.store, a, v)
}

// distinctForOn estimates the number of distinct values variable v takes
// in matches of atom a, with exact counts read through src.
func (st *Stats) distinctForOn(src CountSource, a bgp.Atom, v uint32) float64 {
	card := st.atomCardIgnoringRepeatsOn(src, a)
	// Property-position variable: few distinct properties overall.
	if a.P.Var && a.P.ID == v {
		if n := len(st.props); n > 0 {
			return minf(float64(n), card)
		}
		return maxf(card, 1)
	}
	if !a.P.Var {
		p := a.P.Const()
		//lint:ignore versionstamp props is a collection-time estimate frozen at Collect; distinct-value heuristics tolerate staleness, exact counts go through the version-checked memo
		ps := st.props[p]
		if a.S.Var && a.S.ID == v {
			if !a.O.Var {
				// (?, p, o): subjects are distinct per (s,p,o) triple.
				return maxf(card, 1)
			}
			return clampDistinct(float64(ps.DistinctS), card)
		}
		if a.O.Var && a.O.ID == v {
			if !a.S.Var {
				return maxf(card, 1)
			}
			return clampDistinct(float64(ps.DistinctO), card)
		}
	}
	// Variable property with a subject/object variable: fall back to the
	// atom cardinality (each row may carry a fresh value).
	return maxf(card, 1)
}

func (st *Stats) atomCardIgnoringRepeatsOn(src CountSource, a bgp.Atom) float64 {
	pat := storage.Pattern{}
	if !a.S.Var {
		pat.S = a.S.Const()
	}
	if !a.P.Var {
		pat.P = a.P.Const()
	}
	if !a.O.Var {
		pat.O = a.O.Const()
	}
	return float64(st.PatternCountOn(src, pat))
}

func clampDistinct(d, card float64) float64 {
	if d < 1 {
		d = 1
	}
	return minf(d, maxf(card, 1))
}

// CQCard estimates the result cardinality of a conjunctive query using
// per-atom counts and value-set containment for join selectivities: each
// equijoin on a variable v between a new atom and the partial result
// divides the cross-product by the larger distinct-count of v.
func (st *Stats) CQCard(q bgp.CQ) float64 {
	slots := make([]Slot, len(q.Atoms))
	for i := range q.Atoms {
		slots[i] = st.SlotOf(q.Atoms[i : i+1])
	}
	return JoinCard(slots)
}

// JoinOfUnionsCard estimates the result cardinality of a join of unions of
// atoms: slot i stands for the relation ∪_{a ∈ slots[i]} matches(a), and
// the slots are joined on the variables they share. This is the shape a
// reformulated cover fragment has (every expansion alternative of an atom
// keeps the atom's original variables), and it also prices a whole UCQ
// reformulation without materializing its (possibly hundreds of thousands
// of) member CQs: Σ_CQ |CQ| ≈ |join of the slot unions|.
func (st *Stats) JoinOfUnionsCard(slots [][]bgp.Atom) float64 {
	aggs := make([]Slot, len(slots))
	for i, alts := range slots {
		aggs[i] = st.SlotOf(alts)
	}
	return JoinCard(aggs)
}

// Slot is the aggregate statistics of one join-of-unions slot, the union
// of an atom's expansion alternatives. A cover search shares one Slot
// between every block and fragment holding that slot: it is read-only.
type Slot struct {
	// Card is Σ_alt |alt|, the size of the union.
	Card float64
	// Vars lists the slot's variables in first-occurrence order.
	Vars []uint32
	// Distinct[i] sums the distinct values Vars[i] takes over the
	// alternatives it occurs in, unclamped.
	Distinct []float64
}

// SlotOf aggregates the statistics of the slot whose alternatives are alts.
func (st *Stats) SlotOf(alts []bgp.Atom) Slot {
	var s Slot
	for _, a := range alts {
		s.Card += st.AtomCard(a)
		pos := a.Positions()
		for i, t := range pos {
			if !t.Var || repeatsEarlier(pos, i) {
				continue
			}
			d := st.distinctFor(a, t.ID)
			if j := slices.Index(s.Vars, t.ID); j >= 0 {
				s.Distinct[j] += d
			} else {
				s.Vars = append(s.Vars, t.ID)
				s.Distinct = append(s.Distinct, d)
			}
		}
	}
	return s
}

// JoinCard estimates the result cardinality of the join of the slots on
// the variables they share, under value-set containment: each slot after
// the first that binds an already-bound variable divides the product of
// the slot cardinalities by the larger of the two distinct counts. This
// is the one join-of-unions formula; CQCard and JoinOfUnionsCard wrap it.
func JoinCard(slots []Slot) float64 {
	if len(slots) == 0 {
		return 0
	}
	// Smallest distinct count so far per variable: a handful, so no map.
	seenV := make([]uint32, 0, 16)
	seenD := make([]float64, 0, 16)
	card := 1.0
	for _, s := range slots {
		card *= s.Card
		for i, v := range s.Vars {
			d := clampDistinct(s.Distinct[i], s.Card)
			if j := slices.Index(seenV, v); j >= 0 {
				prev := seenD[j]
				if m := maxf(prev, d); m > 1 {
					card /= m
				}
				seenD[j] = minf(prev, d)
			} else {
				seenV = append(seenV, v)
				seenD = append(seenD, d)
			}
		}
		if card <= 0 {
			return 0
		}
	}
	return card
}

// CQScanTuples returns Σ_{t ∈ q} |q_{t}|: the total number of tuples the
// engine retrieves to evaluate the query's atoms — the quantity the
// paper's scan- and join-cost formulas are linear in.
func (st *Stats) CQScanTuples(q bgp.CQ) float64 {
	var sum float64
	for _, a := range q.Atoms {
		sum += st.AtomCard(a)
	}
	return sum
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
