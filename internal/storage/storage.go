// Package storage implements the Triples(s, p, o) table of the paper's
// experimental setting (Section 5.1): dictionary-encoded triples held in
// sorted indexes, one per index order, so that every triple-pattern shape
// can be answered by a binary-searched range scan.
//
// The paper indexes the table by all six permutations of (s, p, o); three
// of them (SPO, POS, OSP) already give a sorted prefix for every
// combination of bound positions, so the store defaults to those three and
// can be configured with all six (the difference is benchmarked by the
// index-set ablation).
//
// A sorted index has two physical representations: a flat []Triple, whose
// ranges are free zero-copy subslices, and the compressed block-columnar
// frozen form (block.go/encode.go) that cuts resident bytes per triple by
// roughly an order of magnitude at larger scales. The Compression policy
// on the Builder picks between them; every read path works identically
// over both and produces byte-identical answers.
package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
)

// Triple is a dictionary-encoded RDF triple.
type Triple struct {
	S, P, O dict.ID
}

// Pattern is a triple pattern over encoded values; dict.None (0) in a
// position means "any value".
type Pattern struct {
	S, P, O dict.ID
}

// Matches reports whether the triple matches the pattern.
func (p Pattern) Matches(t Triple) bool {
	return (p.S == dict.None || p.S == t.S) &&
		(p.P == dict.None || p.P == t.P) &&
		(p.O == dict.None || p.O == t.O)
}

// Order is a permutation of the three triple positions.
type Order uint8

// The six index orders. OrderSPO sorts by subject, then property, then
// object, and so on.
const (
	OrderSPO Order = iota
	OrderPOS
	OrderOSP
	OrderSOP
	OrderPSO
	OrderOPS
	numOrders
)

// String returns the order's conventional name.
func (o Order) String() string {
	switch o {
	case OrderSPO:
		return "SPO"
	case OrderPOS:
		return "POS"
	case OrderOSP:
		return "OSP"
	case OrderSOP:
		return "SOP"
	case OrderPSO:
		return "PSO"
	case OrderOPS:
		return "OPS"
	default:
		return fmt.Sprintf("Order(%d)", uint8(o))
	}
}

// perm returns the position permutation of the order: perm[0] is the most
// significant sort position (0=S, 1=P, 2=O).
func (o Order) perm() [3]int {
	switch o {
	case OrderSPO:
		return [3]int{0, 1, 2}
	case OrderPOS:
		return [3]int{1, 2, 0}
	case OrderOSP:
		return [3]int{2, 0, 1}
	case OrderSOP:
		return [3]int{0, 2, 1}
	case OrderPSO:
		return [3]int{1, 0, 2}
	case OrderOPS:
		return [3]int{2, 1, 0}
	default:
		//lint:ignore panicfree unreachable enum default: Order has exactly the six cases above
		panic("storage: invalid order")
	}
}

// DefaultOrders is the minimal complete index set: a sorted prefix exists
// for every combination of bound pattern positions.
var DefaultOrders = []Order{OrderSPO, OrderPOS, OrderOSP}

// AllOrders is the paper's full six-permutation index set.
var AllOrders = []Order{OrderSPO, OrderPOS, OrderOSP, OrderSOP, OrderPSO, OrderOPS}

func key(t Triple) [3]dict.ID { return [3]dict.ID{t.S, t.P, t.O} }

func less(order [3]int, a, b Triple) bool {
	ka, kb := key(a), key(b)
	for _, pos := range order {
		if ka[pos] != kb[pos] {
			return ka[pos] < kb[pos]
		}
	}
	return false
}

// Store is a triple table built in bulk plus a small mutable delta for
// incremental additions and removals (used by the dynamic-data scenarios;
// bulk loads should go through the Builder). All methods are safe for
// concurrent use: reads share an RWMutex read lock, mutations take the
// write lock. Scan callbacks run under the read lock and must not call
// mutating store methods.
//
// Each sorted index lives in exactly one of two slots: indexes[o] (flat)
// or frozen[o] (compressed block-columnar, read through the ref-counted
// views[o] cursor shared with every snapshot of the current generation).
// Mutations always install fresh indexes and fresh views — old
// generations stay valid for the snapshots still holding them.
//
// Every state change bumps a monotonic version counter (see Version);
// consumers such as the statistics memo and the plan cache stamp derived
// artifacts with the version they were computed against and discard them
// when it moves.
type Store struct {
	version atomic.Uint64 // bumped on every state change

	mu      sync.RWMutex
	orders  []Order
	indexes [numOrders][]Triple     // flat representation; nil when frozen or unused
	frozen  [numOrders]*frozenIndex // compressed representation; nil when flat or unused
	views   [numOrders]*frozenView  // current-generation cursors over frozen
	delta   []Triple                // unsorted recent additions
	present map[Triple]struct{}     // set semantics for Add
	deleted map[Triple]struct{}     // tombstones for Remove
	n       int

	compress     Compression // policy applied on Build and every Compact
	blockTriples int         // target triples per compressed block
	par          int         // loader parallelism (0 = GOMAXPROCS)
}

// Version returns the store's mutation counter: it increases on every
// Add, Remove, Compact or Freeze that changes state, and never decreases.
// Two equal Version values bracket a window with identical store contents,
// which is what makes version-stamped caches sound.
func (s *Store) Version() uint64 { return s.version.Load() }

// Builder accumulates triples for bulk loading.
type Builder struct {
	orders  []Order
	triples []Triple

	par          int         // see WithParallelism
	compress     Compression // see WithCompression
	blockTriples int         // see WithBlockSize
}

// NewBuilder returns a builder using the given index orders (or
// DefaultOrders when orders is empty).
func NewBuilder(orders ...Order) *Builder {
	if len(orders) == 0 {
		orders = DefaultOrders
	}
	return &Builder{orders: orders}
}

// Add appends a triple; duplicates are eliminated at Build time.
func (b *Builder) Add(t Triple) { b.triples = append(b.triples, t) }

// Len returns the number of triples added so far (duplicates included).
func (b *Builder) Len() int { return len(b.triples) }

func hasOrder(orders []Order, o Order) bool {
	for _, x := range orders {
		if x == o {
			return true
		}
	}
	return false
}

func sortByOrder(ts []Triple, perm [3]int) {
	slices.SortFunc(ts, func(a, b Triple) int {
		ka, kb := key(a), key(b)
		for _, pos := range perm {
			if c := cmp.Compare(ka[pos], kb[pos]); c != 0 {
				return c
			}
		}
		return 0
	})
}

func dedupSorted(ts []Triple) []Triple {
	if len(ts) == 0 {
		return ts
	}
	w := 1
	for i := 1; i < len(ts); i++ {
		if ts[i] != ts[i-1] {
			ts[w] = ts[i]
			w++
		}
	}
	return ts[:w]
}

// Len returns the number of distinct triples in the store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n + len(s.delta) - len(s.deleted)
}

// Orders returns the index orders the store maintains.
func (s *Store) Orders() []Order { return s.orders }

// Add inserts one triple incrementally, reporting whether it was new.
// Added triples live in an unsorted delta that every scan also consults;
// call Compact to fold the delta into the sorted indexes.
func (s *Store) Add(t Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.deleted[t]; ok {
		delete(s.deleted, t) // resurrect the tombstoned sorted entry
		s.version.Add(1)
		return true
	}
	if s.containsLocked(t) {
		return false
	}
	if s.present == nil {
		s.present = make(map[Triple]struct{})
	}
	s.present[t] = struct{}{}
	s.delta = append(s.delta, t)
	s.version.Add(1)
	return true
}

// Remove deletes one triple incrementally, reporting whether it was
// present. Removals from the sorted indexes are tombstoned until the next
// Compact; removals from the recent delta are immediate.
func (s *Store) Remove(t Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.containsLocked(t) {
		return false
	}
	if _, ok := s.present[t]; ok {
		delete(s.present, t)
		for i, d := range s.delta {
			if d == t {
				s.delta = append(s.delta[:i], s.delta[i+1:]...)
				break
			}
		}
		s.version.Add(1)
		return true
	}
	if s.deleted == nil {
		s.deleted = make(map[Triple]struct{})
	}
	s.deleted[t] = struct{}{}
	s.version.Add(1)
	return true
}

// Compact merges the delta into the sorted indexes and drops tombstoned
// triples (see compactLocked in loader.go for the merge strategy).
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
}

// Freeze folds any pending delta into the sorted indexes, marking the end
// of a load phase. It is Compact under the lifecycle name the higher
// layers use, and like every mutation it advances the version counter
// when it changes state.
func (s *Store) Freeze() { s.Compact() }

// Contains reports whether the triple is in the store.
func (s *Store) Contains(t Triple) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.containsLocked(t)
}

// containsLocked reports membership; the caller holds the lock (read or
// write).
func (s *Store) containsLocked(t Triple) bool {
	if _, dead := s.deleted[t]; dead {
		return false
	}
	if _, ok := s.present[t]; ok {
		return true
	}
	lo, hi := s.live().seek(Pattern{S: t.S, P: t.P, O: t.O}, &Hint{})
	return hi > lo
}

// live returns the store's current state as a snapshot value for one read
// under the lock: nothing is copied or retained, so it must not outlive
// the lock, and its boxes are the conservative "anything may match".
func (s *Store) live() *Snapshot {
	sn := &Snapshot{store: s, version: s.version.Load(), orders: s.orders, indexes: s.indexes, frozen: s.views, delta: s.delta, deleted: s.deleted}
	if len(s.delta) > 0 {
		sn.deltaBox = fullBox
	}
	if len(s.deleted) > 0 {
		sn.deadBox = fullBox
	}
	return sn
}

// path is how one pattern shape — which positions are bound, as a bit
// mask (1=S, 2=P, 4=O) — reads the index set: the first order whose sort
// prefix covers the bound positions, so the matching triples form one
// contiguous range, or the first order with a residual filter at scan
// time when none covers them (possible with a custom order set). It is
// resolved once per shape, not per probe (see Hint).
type path struct {
	mask    uint8
	order   Order
	perm    [3]int
	prefix  int  // leading sort positions that are bound
	covered bool // the prefix holds every bound position: no residual filter
}

func maskOf(p Pattern) (m uint8) {
	if p.S != dict.None {
		m |= 1
	}
	if p.P != dict.None {
		m |= 2
	}
	if p.O != dict.None {
		m |= 4
	}
	return m
}

func choosePath(orders []Order, mask uint8) path {
	nBound := int(mask&1 + mask>>1&1 + mask>>2&1)
	leading := func(perm [3]int) (k int) {
		for k < 3 && mask&(1<<perm[k]) != 0 {
			k++
		}
		return k
	}
	for _, o := range orders {
		if perm := o.perm(); leading(perm) == nBound {
			return path{mask: mask, order: o, perm: perm, prefix: nBound, covered: true}
		}
	}
	perm := orders[0].perm()
	return path{mask: mask, order: orders[0], perm: perm, prefix: leading(perm)}
}

// probe is one lookup: a path plus the bound values of its sort prefix,
// in sort order.
type probe struct {
	perm   [3]int
	prefix int
	want   [3]dict.ID
}

func (pa *path) probe(p Pattern) probe {
	k := [3]dict.ID{p.S, p.P, p.O}
	return probe{perm: pa.perm, prefix: pa.prefix, want: [3]dict.ID{k[pa.perm[0]], k[pa.perm[1]], k[pa.perm[2]]}}
}

// cmp places a triple against the probe's bound prefix: -1 below, 0
// inside, +1 above the matching range. Small enough to inline into the
// search loops, which is worth more than a cleverer compare.
func (q *probe) cmp(t Triple) int {
	k := [3]dict.ID{t.S, t.P, t.O}
	for i := 0; i < q.prefix; i++ {
		if a, b := k[q.perm[i]], q.want[i]; a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// bound binary-searches ts[lo:hi] for the first triple with cmp >= thr:
// thr 0 is the lower bound of the matching range, thr 1 its upper bound.
func (q *probe) bound(ts []Triple, lo, hi, thr int) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.cmp(ts[m]) >= thr {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// gallop is bound for an answer expected just after from (everything
// before from compares below thr): it doubles a step until a triple
// passes, then binary-searches the bracket — a handful of compares on
// adjacent cache lines when the run is short or the probes ascend.
func (q *probe) gallop(ts []Triple, from, thr int) int {
	hi, step := from, 1
	for hi < len(ts) && q.cmp(ts[hi]) < thr {
		from = hi + 1
		hi += step
		step <<= 1
	}
	return q.bound(ts, from, min(hi, len(ts)), thr)
}

// lowerFrom returns the lower bound in ts given where the site's last
// probe landed (at < 0: nowhere yet). An ascending sequence gallops
// forward from there; a key that moved backwards re-descends on the part
// before it.
func (q *probe) lowerFrom(ts []Triple, at int) int {
	switch {
	case at < 0 || at >= len(ts):
		return q.bound(ts, 0, len(ts), 0)
	case q.cmp(ts[at]) < 0:
		return q.gallop(ts, at+1, 0)
	case at == 0 || q.cmp(ts[at-1]) < 0:
		return at
	default:
		return q.bound(ts, 0, at-1, 0)
	}
}

// Scan calls f for every triple matching the pattern, stopping early if f
// returns false. The sorted range streams zero-copy (flat) or block by
// block (frozen); the delta is filtered.
//
// Legacy locking contract: f runs under the store's read lock, must not
// call mutating store methods (Add, Remove, Compact, Freeze, Triples),
// and must not re-enter Scan/Count/Contains on the same store — nesting
// read locks deadlocks as soon as a writer queues between the two
// acquisitions. New read paths (the query engine since the snapshot
// refactor) should capture a Snapshot and scan through it instead:
// snapshot scans hold no lock, nest freely, and see a stable view.
func (s *Store) Scan(p Pattern, f func(Triple) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.live().Scan(p, f)
}

// Count returns the number of triples matching the pattern. For patterns
// whose bound positions are a sort prefix of some index this is one seek
// — on a frozen index the fence-key directory narrows it to at most two
// boundary-block decodes, never a full decode — which is what makes
// statistics collection cheap.
func (s *Store) Count(p Pattern) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live().Count(p)
}

// Triples returns all triples in SPO order (delta compacted first). It
// materializes an O(store) slice on a frozen store or a custom order set;
// callers that only iterate should use Each, which streams block by block
// and allocates nothing on the flat path.
func (s *Store) Triples() []Triple {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
	ts, sorted := s.spoTriplesLocked()
	if !sorted {
		sortByOrder(ts, OrderSPO.perm())
	}
	return ts
}

// spoTriplesLocked returns the compacted store's triples, flat. sorted
// reports whether they are already in SPO order; when false the slice is
// a private copy the caller may sort in place. The flat-SPO case shares
// the index zero-copy: later mutations build fresh index slices and never
// write through it.
func (s *Store) spoTriplesLocked() (ts []Triple, sorted bool) {
	if idx := s.indexes[OrderSPO]; idx != nil {
		return idx, true
	}
	if v := s.views[OrderSPO]; v != nil {
		cp := make([]Triple, 0, s.n)
		v.iterate(0, s.n, func(t Triple) bool { cp = append(cp, t); return true })
		return cp, true
	}
	// Custom order sets may lack SPO entirely; copy out the first order.
	first := s.orders[0]
	if v := s.views[first]; v != nil {
		cp := make([]Triple, 0, s.n)
		v.iterate(0, s.n, func(t Triple) bool { cp = append(cp, t); return true })
		return cp, false
	}
	src := s.indexes[first]
	cp := make([]Triple, len(src))
	copy(cp, src)
	return cp, false
}

// Each calls f for every triple in the store in SPO order (delta
// compacted first), stopping early if f returns false. Unlike Triples it
// never materializes the store: the flat representation iterates the
// index in place and the frozen one streams block by block, so a full
// pass holds O(block) decoded memory. f runs without the store lock —
// the captured index generation is immutable — and may call any store
// method.
func (s *Store) Each(f func(Triple) bool) {
	s.mu.Lock()
	s.compactLocked()
	flat := s.indexes[OrderSPO]
	view := s.views[OrderSPO]
	if flat == nil && view == nil {
		// Custom order set without SPO: fall back to the sorted copy.
		ts, sorted := s.spoTriplesLocked()
		if !sorted {
			sortByOrder(ts, OrderSPO.perm())
		}
		s.mu.Unlock()
		for _, t := range ts {
			if !f(t) {
				return
			}
		}
		return
	}
	n := s.n
	if view != nil {
		view.retain()
	}
	s.mu.Unlock()
	if view != nil {
		defer view.release()
		view.iterate(0, n, f)
		return
	}
	for _, t := range flat {
		if !f(t) {
			return
		}
	}
}

// Footprint describes the resident cost of the store's current index
// representation (excluding the transient delta and tombstone sets).
type Footprint struct {
	Triples    int  // distinct triples in the sorted indexes
	Orders     int  // index orders maintained
	Compressed bool // true when the indexes are block-columnar

	FlatBytes  int // flat []Triple index bytes (24 per triple per order)
	BlockBytes int // compressed block payload bytes across orders
	DirBytes   int // fence-key directory bytes across orders
	Blocks     int // compressed blocks across orders
}

// IndexBytes returns the total resident index bytes.
func (f Footprint) IndexBytes() int { return f.FlatBytes + f.BlockBytes + f.DirBytes }

// BytesPerTriple returns resident index bytes divided by triple count,
// summed over all maintained orders.
func (f Footprint) BytesPerTriple() float64 {
	if f.Triples == 0 {
		return 0
	}
	return float64(f.IndexBytes()) / float64(f.Triples)
}

// fblockDirBytes approximates the in-memory size of one fence-directory
// entry: the fence key (12), off and n (16), and the payload slice
// header (24), padded.
const fblockDirBytes = 56

// Footprint reports the store's resident index cost.
func (s *Store) Footprint() Footprint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fp := Footprint{Triples: s.n, Orders: len(s.orders)}
	for _, o := range s.orders {
		if fz := s.frozen[o]; fz != nil {
			fp.Compressed = true
			fp.BlockBytes += fz.dataBytes
			fp.DirBytes += len(fz.blocks) * fblockDirBytes
			fp.Blocks += len(fz.blocks)
			continue
		}
		fp.FlatBytes += len(s.indexes[o]) * 24
	}
	return fp
}
