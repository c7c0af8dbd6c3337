// Package storage implements the Triples(s, p, o) table of the paper's
// experimental setting (Section 5.1): dictionary-encoded triples held in
// sorted indexes, one per index order, so that every triple-pattern shape
// can be answered by a binary-searched range scan.
//
// The paper indexes the table by all six permutations of (s, p, o); three
// of them (SPO, POS, OSP) already give a sorted prefix for every
// combination of bound positions, so the store defaults to those three and
// can be configured with all six (the difference is benchmarked by the
// index-set ablation). Every order set includes SPO and POS: the loader
// tallies the per-property statistics from them.
//
// Every sorted index is held in one physical form, the bit-packed
// frozen form (block.go/encode.go): blocks whose columns are stored as
// offsets from a per-block base at each column's own bit width, under a
// fence-key directory, and read in place. That is about 9 bytes per
// triple across the three default orders, against 36 for sorted []Triple
// arrays.
package storage

import (
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

// tallyOrders are the orders every store keeps whatever it is asked for:
// the loader tallies the per-property statistics (see PropTally) from
// their sorted streams.
var tallyOrders = [...]Order{OrderSPO, OrderPOS}

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
// Each sorted index is an immutable frozenIndex shared with every
// snapshot of the current generation. Mutations always install fresh
// indexes — old generations stay valid for the snapshots still holding
// them.
//
// Every state change bumps a monotonic version counter (see Version);
// consumers such as the statistics memo and the plan cache stamp derived
// artifacts with the version they were computed against and discard them
// when it moves.
type Store struct {
	version atomic.Uint64 // bumped on every state change

	mu      sync.RWMutex
	orders  []Order
	indexes [numOrders]*frozenIndex // current generation; nil for unused orders
	delta   []Triple                // unsorted recent additions
	present map[Triple]struct{}     // set semantics for Add
	deleted map[Triple]struct{}     // tombstones for Remove
	n       int
	props   []PropTally // the sorted indexes' per-property tallies; replaced, never changed

	blockTriples int // rows per packed block
	par          int // loader parallelism (0 = GOMAXPROCS)
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

	par          int // see WithParallelism
	blockTriples int // see WithBlockSize
}

// NewBuilder returns a builder using the given index orders (or
// DefaultOrders when orders is empty). SPO and POS are added after the
// given orders when they are missing, since the loader tallies the
// per-property statistics from them.
func NewBuilder(orders ...Order) *Builder {
	if len(orders) == 0 {
		orders = DefaultOrders
	}
	for _, o := range tallyOrders {
		if !hasOrder(orders, o) {
			orders = append(slices.Clip(orders), o)
		}
	}
	return &Builder{orders: orders}
}

// Add appends a triple; duplicates are eliminated at Build time.
func (b *Builder) Add(t Triple) { b.triples = append(b.triples, t) }

// AddAll appends every triple of ts in one copy; duplicates are
// eliminated at Build time.
func (b *Builder) AddAll(ts []Triple) { b.triples = append(b.triples, ts...) }

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
	sn := &Snapshot{store: s, version: s.version.Load(), orders: s.orders, frozen: s.indexes, delta: s.delta, deleted: s.deleted}
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

// probe is one lookup: the length of a path's bound sort prefix and the
// pattern's values in the path's sort order.
type probe struct {
	prefix int
	want   [3]dict.ID
}

func (pa *path) probe(p Pattern) probe {
	k := [3]dict.ID{p.S, p.P, p.O}
	return probe{prefix: pa.prefix, want: [3]dict.ID{k[pa.perm[0]], k[pa.perm[1]], k[pa.perm[2]]}}
}

// cmp places a key, in the probe's sort order, against the probe's bound
// prefix: -1 below, 0 inside, +1 above the matching range. Small enough
// to inline into the search loops.
func (q *probe) cmp(k [3]dict.ID) int {
	for i := 0; i < q.prefix; i++ {
		if a, b := k[i], q.want[i]; a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Scan calls f for every triple matching the pattern, stopping early if f
// returns false. The sorted range streams block by block; the delta is
// filtered.
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
// — the fence-key directory and the packed columns of at most two
// boundary blocks, read in place — which is what makes statistics
// collection cheap.
func (s *Store) Count(p Pattern) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live().Count(p)
}

// Triples returns all triples in SPO order (delta compacted first). It
// materializes an O(store) slice; callers that only iterate should use
// Each, which streams block by block.
func (s *Store) Triples() []Triple {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
	ts := make([]Triple, 0, s.n)
	s.indexes[OrderSPO].iterate(0, s.n, 0, [3]dict.ID{}, func(t Triple) bool { ts = append(ts, t); return true })
	return ts
}

// Each calls f for every triple in the store in SPO order (delta
// compacted first), stopping early if f returns false. Unlike Triples it
// never materializes the store: it streams the SPO index a few rows at a
// time. f runs without the store lock — the captured index generation is
// immutable — and may call any store method.
func (s *Store) Each(f func(Triple) bool) {
	s.mu.Lock()
	s.compactLocked()
	idx := s.indexes[OrderSPO]
	s.mu.Unlock()
	idx.iterate(0, idx.n, 0, [3]dict.ID{}, f)
}

// PropTally is one property's share of the store: its triples, and the
// distinct subjects and objects among them.
type PropTally struct {
	P         dict.ID
	Count     int
	DistinctS int
	DistinctO int
}

// PropTallies returns the per-property tallies of the store's contents,
// ordered by property, folding any pending delta and tombstones in first.
// The loader takes them while it builds or compacts the SPO and POS
// indexes, so this walks nothing. The slice is shared and never changed:
// callers must not modify it.
func (s *Store) PropTallies() []PropTally {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
	return s.props
}

// Footprint describes the resident cost of the store's sorted indexes
// (excluding the transient delta and tombstone sets).
type Footprint struct {
	Triples int // distinct triples in the sorted indexes
	Orders  int // index orders maintained

	BlockBytes int // packed payload bytes across orders, tail padding included
	DirBytes   int // fence-directory (block header) bytes across orders
	Blocks     int // packed blocks across orders
}

// IndexBytes returns the total resident index bytes.
func (f Footprint) IndexBytes() int { return f.BlockBytes + f.DirBytes }

// BytesPerTriple returns resident index bytes divided by triple count,
// summed over all maintained orders.
func (f Footprint) BytesPerTriple() float64 {
	if f.Triples == 0 {
		return 0
	}
	return float64(f.IndexBytes()) / float64(f.Triples)
}

// Footprint reports the store's resident index cost.
func (s *Store) Footprint() Footprint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fp := Footprint{Triples: s.n, Orders: len(s.orders)}
	for _, o := range s.orders {
		fi := s.indexes[o]
		fp.BlockBytes += len(fi.data)
		fp.DirBytes += len(fi.blocks) * fblockDirBytes
		fp.Blocks += len(fi.blocks)
	}
	return fp
}
