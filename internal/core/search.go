package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/reformulate"
	"repro/internal/stats"
	"repro/internal/trace"
)

// searcher carries the per-query state of a cover search: the sharing
// graph, memoized fragment reformulations, statistics and engine
// estimates, memoized slot aggregates, and memoized cover costs. Fragment
// information is shared across all covers the search prices, and slot
// aggregates across all blocks of all fragments, which is what keeps ECov
// affordable on spaces of thousands of covers. A search runs on one
// goroutine and owns its memos, as the paper's ECov and GCov are
// sequential; an answerer serves concurrent queries with one searcher
// each.
type searcher struct {
	a     *Answerer
	q     bgp.CQ
	g     *cover.Graph
	final float64 // estimated |q| — the JUCQ result size for the model

	start  time.Time
	budget time.Duration
	// done, when non-nil, is the caller context's cancellation signal:
	// a done context expires the search exactly like the wall-clock
	// budget (the anytime searches stop at their next check), and
	// chooseCover then reports the typed cancellation error.
	done <-chan struct{}

	// Search-effort counters, reported on the optimize trace span by
	// recordSpan.
	fragComputed  int64
	fragMemoHits  int64
	coversPriced  int64
	costMemoHits  int64
	gcovRounds    int64
	prunedByBound int64

	frags map[cover.Fragment]*fragInfo
	costs map[string]float64
	slots map[slotKey]stats.Slot
	// err records the first fragment-reformulation failure. checkQuery
	// rules those out up front, so this is a belt-and-braces channel: frag
	// cannot return an error itself without contorting the search loops,
	// so the failure is parked here and surfaced by ChooseCover.
	err error
}

// fragInfo caches everything the search needs about one fragment.
type fragInfo struct {
	cq        bgp.CQ
	ref       *reformulate.Reformulation
	numCQs    int64
	stats     cost.ArmStats // statistics-derived estimates
	aloneCost float64       // cost of the fragment evaluated by itself
	// est is the engine's internal estimate of the fragment's arm, filled
	// on first use by an EngineInternal search (estimated reports it).
	est       engine.ArmEstimate
	estimated bool
}

func newSearcher(a *Answerer, q bgp.CQ) (*searcher, error) {
	g, err := cover.NewGraph(q)
	if err != nil {
		return nil, err
	}
	return &searcher{
		a:      a,
		q:      q,
		g:      g,
		final:  a.raw.Stats().CQCard(q),
		frags:  make(map[cover.Fragment]*fragInfo),
		costs:  make(map[string]float64),
		slots:  make(map[slotKey]stats.Slot),
		start:  time.Now(),
		budget: a.opts.SearchBudget,
	}, nil
}

func (s *searcher) expired() bool {
	if s.done != nil {
		select {
		case <-s.done:
			return true
		default:
		}
	}
	return s.budget > 0 && time.Since(s.start) > s.budget
}

// failure returns the parked fragment-reformulation error, if any.
func (s *searcher) failure() error { return s.err }

// recordSpan reports the search-effort counters on the optimize span and
// bumps the trace-wide search.* totals; a nil span makes it a no-op.
func (s *searcher) recordSpan(sp *trace.Span) {
	if sp == nil {
		return
	}
	sp.SetInt("frags_reformulated", s.fragComputed)
	sp.SetInt("frag_memo_hits", s.fragMemoHits)
	sp.SetInt("covers_priced", s.coversPriced)
	sp.SetInt("cost_memo_hits", s.costMemoHits)
	if s.gcovRounds > 0 {
		sp.SetInt("gcov_rounds", s.gcovRounds)
		sp.SetInt("pruned_by_bound", s.prunedByBound)
	}
	reg := sp.Registry()
	reg.Counter("search.frags_reformulated").Add(s.fragComputed)
	reg.Counter("search.covers_priced").Add(s.coversPriced)
	reg.Counter("search.cost_memo_hits").Add(s.costMemoHits)
}

// frag returns the memoized fragment information, computing it on first
// use: the cover query (Definition 3.4), its factorized reformulation,
// and the arm statistics the cost model consumes.
func (s *searcher) frag(f cover.Fragment) *fragInfo {
	if info, ok := s.frags[f]; ok {
		s.fragMemoHits++
		return info
	}
	info := s.computeFrag(f)
	s.frags[f] = info
	return info
}

func (s *searcher) computeFrag(f cover.Fragment) *fragInfo {
	s.fragComputed++
	cq := cover.Query(s.q, f)
	ref, err := reformulate.Reformulate(cq, s.a.sch)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return &fragInfo{cq: cq, ref: &reformulate.Reformulation{}}
	}
	info := &fragInfo{cq: cq, ref: ref, numCQs: ref.NumCQs()}
	info.stats = s.armStats(ref)
	info.aloneCost = s.a.opts.Params.UCQ(info.stats)
	return info
}

// armStats derives the cost model's per-arm quantities from the
// factorized reformulation, without materializing the union.
//
// ScanTuples models what the engine actually retrieves to evaluate every
// member CQ of the arm. Evaluation is an index bind-join, so per member
// the most selective atom is scanned in full and every later atom is
// probed under bindings. Summed over the members of one instantiation
// block (slots ordered by increasing union size):
//
//   - first-atom scans: every member scans its own first alternative's
//     extent, Σ_{alt ∈ first slot} |alt| · Π_{other slots} #alts in total;
//   - probe work: the bind-join over the slot *unions*, charged once —
//     Σ over later slots of the running intermediate-result size, with
//     each slot's cardinality discounted by the distinct counts of the
//     variables already bound.
//
// ResultTuples is the block's join-of-unions cardinality estimate. The
// paper's formulas assume the sequential-scan cost shape of its host
// RDBMSs and let calibration absorb the constants; this estimate plays
// the same role for the index-native engine of this reproduction.
//
// Both read only slot aggregates, memoized once per distinct slot (see
// slot). A slot holding the previous block's alternatives slice keeps its
// aggregate without a memo lookup.
func (s *searcher) armStats(ref *reformulate.Reformulation) cost.ArmStats {
	out := cost.ArmStats{Arms: ref.NumCQs()}
	var (
		slots  = make([]stats.Slot, len(ref.Query.Atoms))
		held   = make([][]bgp.Atom, len(slots)) // the alternatives slots[i] aggregates
		order  = make([]int, len(slots))
		boundV []uint32  // variables bound so far
		boundD []float64 // their smallest distinct count so far
	)
	for _, b := range ref.Blocks {
		arms := 1.0
		for i, alts := range b.Slots {
			arms *= float64(len(alts))
			if len(held[i]) != len(alts) || &held[i][0] != &alts[0] {
				slots[i], held[i] = s.slot(alts, ref.FreshVar(i)), alts
			}
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, c int) int { return cmp.Compare(slots[a].Card, slots[c].Card) })

		// First-atom scans, per member.
		first := slots[order[0]]
		if n := float64(len(b.Slots[order[0]])); n > 0 {
			out.ScanTuples += first.Card * (arms / n)
		}

		// Probe work over the slot unions.
		boundV = append(boundV[:0], first.Vars...)
		boundD = append(boundD[:0], first.Distinct...)
		bindings := first.Card
		for _, idx := range order[1:] {
			sl := slots[idx]
			eff := sl.Card
			for i, v := range sl.Vars {
				d := sl.Distinct[i]
				if j := slices.Index(boundV, v); j >= 0 {
					if m := maxFloat(boundD[j], d); m > 1 {
						eff /= m
					}
					boundD[j] = minFloat(boundD[j], d)
				} else {
					boundV = append(boundV, v)
					boundD = append(boundD, d)
				}
			}
			out.ScanTuples += bindings * maxFloat(eff, 1)
			bindings *= maxFloat(eff, 0.001)
		}
		out.ResultTuples += stats.JoinCard(slots)
	}
	return out
}

// slotKey identifies a reformulation slot within one search: its
// instantiated atom (the first alternative), its alternative count, and
// the fresh variable its domain and range alternatives introduce.
type slotKey struct {
	atom        [3]uint64
	alts, fresh uint32
}

// slot returns the memoized aggregate of the slot whose alternatives are
// alts. Every fragment of the search shares the memo.
func (s *searcher) slot(alts []bgp.Atom, fresh uint32) stats.Slot {
	k := slotKey{alts[0].Packed(), uint32(len(alts)), fresh}
	sl, ok := s.slots[k]
	if !ok {
		sl = s.a.raw.Stats().SlotOf(alts)
		s.slots[k] = sl
	}
	return sl
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// coverCost prices one cover's induced JUCQ reformulation, memoized.
func (s *searcher) coverCost(c cover.Cover) float64 {
	key := c.Key()
	v, ok := s.costs[key]
	if ok {
		s.costMemoHits++
		return v
	}
	s.coversPriced++
	switch s.a.opts.Source {
	case EngineInternal:
		v = s.engineCost(c)
	default:
		arms := make([]cost.ArmStats, len(c))
		for i, f := range c {
			arms[i] = s.frag(f).stats
		}
		v = s.a.opts.Params.JUCQ(arms, s.final)
	}
	s.costs[key] = v
	return v
}

// engineCost prices a cover with the engine's internal estimator (the
// EXPLAIN-style source of the paper's Figure 9). Covers whose member
// count exceeds the materialization bound are priced +Inf, before any arm
// is estimated — the analogue of the paper's observation that the engine
// sometimes "failed to execute the explain" on huge reformulations. An
// arm's estimate depends only on its fragment, so each fragment is
// estimated once per search and only the arm join is priced per cover.
func (s *searcher) engineCost(c cover.Cover) float64 {
	var total int64
	for _, f := range c {
		total += s.frag(f).numCQs
		if total > int64(s.a.opts.MaxUCQMembers) {
			return math.Inf(1)
		}
	}
	arms := make([]engine.ArmEstimate, len(c))
	for i, f := range c {
		info := s.frag(f)
		if !info.estimated {
			info.est, info.estimated = s.a.raw.EstimateArm(armSource(info.cq, info.ref)), true
		}
		arms[i] = info.est
	}
	return s.a.raw.EstimateJoin(arms)
}

// ecov is the exhaustive search of Section 4.2: enumerate every valid
// minimal cover, price each, return the cheapest (the earliest-enumerated
// on ties). The enumeration bound and the search budget reproduce the
// paper's ECov timeout on its largest query.
func (s *searcher) ecov() (best cover.Cover, explored int, exhaustive bool) {
	bestCost := math.Inf(1)
	timedOut := false
	enumerated := s.g.EnumerateMinimal(s.a.opts.MaxCovers, func(c cover.Cover) bool {
		v := s.coverCost(c)
		explored++
		if v < bestCost {
			best, bestCost = c, v
		}
		if s.expired() {
			timedOut = true
			return false
		}
		// A parked fragment failure fails the whole search in
		// ChooseCover; pricing the rest of the space is wasted work.
		return s.err == nil
	})
	if best == nil {
		best = cover.WholeQuery(len(s.q.Atoms))
	}
	return best, explored, enumerated && !timedOut
}

// gcov is Algorithm 1: start from the one-triple-per-fragment cover,
// develop "add a joining triple to a fragment" moves, keep the move list
// sorted by the estimated cost of the resulting cover, and greedily apply
// the most promising move while it does not worsen the best cover found.
func (s *searcher) gcov() (cover.Cover, int) {
	n := len(s.q.Atoms)
	c0 := cover.PerAtom(n)
	best, bestCost := c0, s.coverCost(c0)
	explored := 1
	analysed := map[string]bool{c0.Key(): true}

	type move struct {
		c cover.Cover
		v float64
	}
	var moves []move
	insert := func(m move) {
		i := sort.Search(len(moves), func(i int) bool { return moves[i].v >= m.v })
		moves = append(moves, move{})
		copy(moves[i+1:], moves[i:])
		moves[i] = m
	}
	maxCovers := s.a.opts.GCovMaxCovers
	develop := func(c cover.Cover) {
		s.gcovRounds++
		for fi, f := range c {
			for t := 0; t < n; t++ {
				if f.Has(t) || !s.g.Joins(t, f) {
					continue
				}
				if explored >= maxCovers {
					return
				}
				c2 := s.apply(c, fi, t)
				k := c2.Key()
				if analysed[k] {
					continue
				}
				analysed[k] = true
				v := s.coverCost(c2)
				explored++
				if v <= bestCost {
					insert(move{c2, v})
				} else {
					s.prunedByBound++
				}
			}
		}
	}

	develop(c0)
	for len(moves) > 0 && explored < maxCovers && !s.expired() {
		m := moves[0]
		moves = moves[1:]
		if m.v <= bestCost {
			best, bestCost = m.c, m.v
		}
		develop(m.c)
	}
	return best, explored
}

// apply performs one GCov move: extend fragment fi with atom t, then
// restore cover validity — drop fragments included in another, and remove
// redundant fragments costliest-first (the cover's fragments are checked
// in decreasing cost order, as Section 4.3 describes).
func (s *searcher) apply(c cover.Cover, fi int, t int) cover.Cover {
	frags := append([]cover.Fragment(nil), c...)
	frags[fi] = frags[fi].With(t)

	// Drop fragments strictly included in another (keep one of equals).
	kept := frags[:0]
	for i, f := range frags {
		dominated := false
		for j, h := range frags {
			if i == j {
				continue
			}
			if h.ContainsAll(f) && (f != h || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, f)
		}
	}

	// Redundancy elimination, costliest fragments first.
	all := cover.Cover(kept).Union()
	sort.Slice(kept, func(i, j int) bool {
		return s.frag(kept[i]).aloneCost > s.frag(kept[j]).aloneCost
	})
	for i := 0; i < len(kept); {
		var others cover.Fragment
		for j, h := range kept {
			if j != i {
				others |= h
			}
		}
		if len(kept) > 1 && others == all {
			kept = append(kept[:i], kept[i+1:]...)
			continue
		}
		i++
	}
	return cover.NewCover(kept...)
}
