package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/reformulate"
	"repro/internal/stats"
	"repro/internal/trace"
)

// searcher carries the per-query state of a cover search: the sharing
// graph, memoized fragment reformulations and statistics, memoized slot
// aggregates, and memoized cover costs. Fragment information is shared
// across all covers the search prices, and slot aggregates across all
// blocks of all fragments, which is what keeps ECov affordable on spaces
// of thousands of covers. The memos are safe for concurrent use so that
// cover pricing can run on a bounded worker pool (par > 1): ECov prices
// enumerated covers as they stream out of the enumeration, GCov prices
// the develop moves of one round concurrently, and both reduce their
// results deterministically, so the chosen cover is independent of the
// worker count.
type searcher struct {
	a     *Answerer
	q     bgp.CQ
	g     *cover.Graph
	final float64 // raw estimated |q| — the JUCQ result size for the model
	par   int     // pricing worker count; <= 1 searches sequentially

	// Adaptive-pricing snapshot, taken once per query so every cover of
	// one search is priced under the same corrections (a concurrent
	// Observe mid-search cannot skew the comparison). All zero/identity
	// when the answerer has no feedback loop.
	fb        *feedback.Loop
	params    cost.Params // effective constants (blended when fb != nil)
	storeV    uint64      // store version the estimates describe
	scanF     float64     // global scanned-tuples correction factor
	finalKey  string      // canonical key of the whole query
	finalCorr float64     // corrected final-cardinality estimate

	start  time.Time
	budget time.Duration
	// done, when non-nil, is the caller context's cancellation signal:
	// a done context expires the search exactly like the wall-clock
	// budget (the anytime searches stop at their next check), and
	// chooseCover then reports the typed cancellation error.
	done <-chan struct{}

	// Search-effort counters, reported on the optimize trace span by
	// recordSpan. The memo counters are atomics because pricing workers
	// bump them concurrently; gcovRounds and prunedByBound are only
	// touched by gcov's sequential bookkeeping.
	fragComputed  atomic.Int64
	fragMemoHits  atomic.Int64
	coversPriced  atomic.Int64
	costMemoHits  atomic.Int64
	gcovRounds    int64
	prunedByBound int64

	// mu guards the memo maps and the parked error below.
	mu    sync.Mutex
	frags map[cover.Fragment]*fragEntry
	costs map[string]float64
	slots map[slotKey]stats.Slot
	// err records the first fragment-reformulation failure. checkQuery
	// rules those out up front, so this is a belt-and-braces channel: frag
	// cannot return an error itself without contorting the search loops,
	// so the failure is parked here and surfaced by ChooseCover.
	err error
}

// fragEntry is the once-filled memo slot of one fragment: the map under
// s.mu only stores the slot, and the slot's sync.Once fills it outside
// the lock, so two workers never compute the same fragment twice and a
// slow fragment never blocks memo lookups of other fragments.
type fragEntry struct {
	once sync.Once
	info *fragInfo
}

// fragInfo caches everything the search needs about one fragment.
type fragInfo struct {
	cq        bgp.CQ
	ref       *reformulate.Reformulation
	numCQs    int64
	stats     cost.ArmStats // raw statistics-derived estimates
	corr      cost.ArmStats // feedback-corrected estimates (== stats without a loop)
	key       string        // canonical key of cq ("" without a loop)
	aloneCost float64       // corrected cost of the fragment evaluated by itself
}

func newSearcher(a *Answerer, q bgp.CQ) (*searcher, error) {
	g, err := cover.NewGraph(q)
	if err != nil {
		return nil, err
	}
	s := &searcher{
		a:      a,
		q:      q,
		g:      g,
		final:  a.raw.Stats().CQCard(q),
		par:    a.parallelism(),
		params: a.opts.Params,
		scanF:  1,
		frags:  make(map[cover.Fragment]*fragEntry),
		costs:  make(map[string]float64),
		slots:  make(map[slotKey]stats.Slot),
		start:  time.Now(),
		budget: a.opts.SearchBudget,
	}
	//lint:ignore lockguard construction: s is not shared until newSearcher returns
	s.finalCorr = s.final
	if fb := a.opts.Feedback; fb != nil {
		//lint:ignore lockguard construction: s is not shared until newSearcher returns
		s.fb = fb
		s.storeV = a.raw.Store().Version()
		//lint:ignore lockguard construction: s is not shared until newSearcher returns
		s.params = fb.Params(a.opts.Params)
		s.scanF = fb.ScanFactor()
		// The final-cardinality key lives in its own namespace: a
		// single-fragment cover's arm key is the same canonical string,
		// and sharing one correction entry between the arm estimate and
		// the (post-dedup) final estimate would make the factor chase
		// two different ratios.
		s.finalKey = "q\x00" + q.CanonicalKey()
		//lint:ignore lockguard construction: s is not shared until newSearcher returns
		s.finalCorr = fb.Correct(s.finalKey, s.storeV, s.final)
	}
	return s, nil
}

// corrected applies the feedback corrections to raw arm statistics: the
// per-pattern cardinality factor scales the result estimate, the global
// scan factor scales the scanned-tuples estimate. Identity without a
// feedback loop.
func (s *searcher) corrected(st cost.ArmStats, key string) cost.ArmStats {
	if s.fb == nil {
		return st
	}
	st.ResultTuples = s.fb.Correct(key, s.storeV, st.ResultTuples)
	st.ScanTuples *= s.scanF
	return st
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
func (s *searcher) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// recordSpan reports the search-effort counters on the optimize span and
// bumps the trace-wide search.* totals. Only called after the search's
// pricing workers have finished; a nil span makes it a no-op.
func (s *searcher) recordSpan(sp *trace.Span) {
	if sp == nil {
		return
	}
	sp.SetInt("frags_reformulated", s.fragComputed.Load())
	sp.SetInt("frag_memo_hits", s.fragMemoHits.Load())
	sp.SetInt("covers_priced", s.coversPriced.Load())
	sp.SetInt("cost_memo_hits", s.costMemoHits.Load())
	if s.gcovRounds > 0 {
		sp.SetInt("gcov_rounds", s.gcovRounds)
		sp.SetInt("pruned_by_bound", s.prunedByBound)
	}
	reg := sp.Registry()
	reg.Counter("search.frags_reformulated").Add(s.fragComputed.Load())
	reg.Counter("search.covers_priced").Add(s.coversPriced.Load())
	reg.Counter("search.cost_memo_hits").Add(s.costMemoHits.Load())
}

// runParallel runs f(0..n-1) on up to s.par workers, sequentially when
// the searcher or the job list has no parallelism to exploit.
func (s *searcher) runParallel(n int, f func(int)) {
	workers := s.par
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// frag returns the memoized fragment information, computing it on first
// use: the cover query (Definition 3.4), its factorized reformulation,
// and the arm statistics the cost model consumes.
func (s *searcher) frag(f cover.Fragment) *fragInfo {
	s.mu.Lock()
	e, ok := s.frags[f]
	if !ok {
		e = &fragEntry{}
		s.frags[f] = e
	}
	s.mu.Unlock()
	if ok {
		s.fragMemoHits.Add(1)
	}
	e.once.Do(func() {
		e.info = s.computeFrag(f)
	})
	return e.info
}

func (s *searcher) computeFrag(f cover.Fragment) *fragInfo {
	s.fragComputed.Add(1)
	cq := cover.Query(s.q, f)
	ref, err := reformulate.Reformulate(cq, s.a.sch)
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return &fragInfo{cq: cq, ref: &reformulate.Reformulation{}}
	}
	info := &fragInfo{cq: cq, ref: ref, numCQs: ref.NumCQs()}
	info.stats = s.armStats(ref)
	if s.fb != nil {
		info.key = cq.CanonicalKey()
	}
	info.corr = s.corrected(info.stats, info.key)
	info.aloneCost = s.params.UCQ(info.corr)
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
// alts. Every fragment of the search shares the memo; an entry is computed
// outside the lock, and two workers racing on one slot store the same
// deterministic value.
func (s *searcher) slot(alts []bgp.Atom, fresh uint32) stats.Slot {
	k := slotKey{alts[0].Packed(), uint32(len(alts)), fresh}
	s.mu.Lock()
	sl, ok := s.slots[k]
	s.mu.Unlock()
	if ok {
		return sl
	}
	sl = s.a.raw.Stats().SlotOf(alts)
	s.mu.Lock()
	s.slots[k] = sl
	s.mu.Unlock()
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
// Pricing is deterministic, so two workers racing on one cover store the
// same value and the memo stays consistent without a per-key latch.
func (s *searcher) coverCost(c cover.Cover) float64 {
	key := c.Key()
	s.mu.Lock()
	v, ok := s.costs[key]
	s.mu.Unlock()
	if ok {
		s.costMemoHits.Add(1)
		return v
	}
	s.coversPriced.Add(1)
	switch s.a.opts.Source {
	case EngineInternal:
		v = s.engineCost(c)
	default:
		arms := make([]cost.ArmStats, len(c))
		for i, f := range c {
			arms[i] = s.frag(f).corr
		}
		v = s.params.JUCQ(arms, s.finalCorr)
	}
	s.mu.Lock()
	s.costs[key] = v
	s.mu.Unlock()
	return v
}

// engineCost prices a cover with the engine's internal estimator (the
// EXPLAIN-style source of the paper's Figure 9). Covers whose member
// count exceeds the materialization bound are priced +Inf — the analogue
// of the paper's observation that the engine sometimes "failed to execute
// the explain" on huge reformulations.
func (s *searcher) engineCost(c cover.Cover) float64 {
	arms := make([]engine.ArmSource, len(c))
	var total int64
	for i, f := range c {
		info := s.frag(f)
		total += info.numCQs
		if total > int64(s.a.opts.MaxUCQMembers) {
			return math.Inf(1)
		}
		arms[i] = armSource(info.cq, info.ref)
	}
	return s.a.raw.EstimateArms(arms)
}

// ecov is the exhaustive search of Section 4.2: enumerate every valid
// minimal cover, price each, return the cheapest. The enumeration bound
// and the search budget reproduce the paper's ECov timeout on its largest
// query. With par > 1 the enumerated covers are priced by a worker pool
// as they stream out of the enumeration (the bounded job channel applies
// backpressure, so the MaxCovers bound and the expiry check keep their
// meaning); ties on cost resolve to the earliest-enumerated cover, which
// is exactly the cover the sequential scan keeps.
func (s *searcher) ecov() (best cover.Cover, explored int, exhaustive bool) {
	if s.par <= 1 {
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
			if s.failure() != nil {
				return false
			}
			return true
		})
		if best == nil {
			best = cover.WholeQuery(len(s.q.Atoms))
		}
		return best, explored, enumerated && !timedOut
	}

	type job struct {
		idx int
		c   cover.Cover
	}
	type priced struct {
		idx int
		c   cover.Cover
		v   float64
	}
	jobs := make(chan job, s.par*2)
	out := make(chan priced, s.par*2)
	// aborted flips when the search must stop early — budget expiry or a
	// parked fragment failure. Workers then drain their remaining jobs
	// without pricing them, so the linear shutdown below (close jobs →
	// join workers → close out → join collector) finishes promptly and
	// leaves no goroutine behind even when the producer returns early
	// mid-stream.
	var aborted atomic.Bool
	var workers sync.WaitGroup
	for w := 0; w < s.par; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range jobs {
				if aborted.Load() {
					continue
				}
				out <- priced{j.idx, j.c, s.coverCost(j.c)}
			}
		}()
	}
	done := make(chan struct{})
	bestIdx := -1
	bestCost := math.Inf(1)
	go func() {
		defer close(done)
		for p := range out {
			explored++
			if p.v < bestCost || (p.v == bestCost && bestIdx >= 0 && p.idx < bestIdx) {
				best, bestCost, bestIdx = p.c, p.v, p.idx
			}
		}
	}()
	timedOut := false
	n := 0
	enumerated := s.g.EnumerateMinimal(s.a.opts.MaxCovers, func(c cover.Cover) bool {
		jobs <- job{n, c}
		n++
		if s.expired() {
			timedOut = true
			aborted.Store(true)
			return false
		}
		if s.failure() != nil {
			aborted.Store(true)
			return false
		}
		return true
	})
	close(jobs)
	workers.Wait()
	close(out)
	<-done
	if best == nil {
		best = cover.WholeQuery(len(s.q.Atoms))
	}
	return best, explored, enumerated && !timedOut
}

// gcov is Algorithm 1: start from the one-triple-per-fragment cover,
// develop "add a joining triple to a fragment" moves, keep the move list
// sorted by the estimated cost of the resulting cover, and greedily apply
// the most promising move while it does not worsen the best cover found.
// With par > 1 one develop round applies and prices its moves on the
// worker pool, then replays the sequential bookkeeping — budget check
// before dedup check, explored counting only freshly priced covers, moves
// inserted in candidate order — so the move list, the explored count, and
// the chosen cover are identical to the sequential search.
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
		if s.par <= 1 {
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
			return
		}
		// Candidate moves in (fragment, triple) order — the order the
		// sequential scan prices them in.
		type cand struct{ fi, t int }
		var cands []cand
		for fi, f := range c {
			for t := 0; t < n; t++ {
				if f.Has(t) || !s.g.Joins(t, f) {
					continue
				}
				cands = append(cands, cand{fi, t})
			}
		}
		// Apply every move on the pool (apply only touches the concurrent
		// fragment memo), then replay the sequential per-candidate
		// bookkeeping: budget check before dedup check, explored counting
		// only freshly priced covers.
		applied := make([]cover.Cover, len(cands))
		s.runParallel(len(cands), func(i int) {
			applied[i] = s.apply(c, cands[i].fi, cands[i].t)
		})
		var fresh []cover.Cover
		for _, c2 := range applied {
			if explored+len(fresh) >= maxCovers {
				break
			}
			k := c2.Key()
			if analysed[k] {
				continue
			}
			analysed[k] = true
			fresh = append(fresh, c2)
		}
		costs := make([]float64, len(fresh))
		s.runParallel(len(fresh), func(i int) {
			costs[i] = s.coverCost(fresh[i])
		})
		for i, c2 := range fresh {
			explored++
			if costs[i] <= bestCost {
				insert(move{c2, costs[i]})
			} else {
				s.prunedByBound++
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
