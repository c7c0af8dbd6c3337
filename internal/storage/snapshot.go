// Snapshot is the lock-free read path of the store: an immutable,
// version-stamped view captured once per query, over which arbitrarily
// deep scan nesting is safe (no lock is held while reading) and range
// lookups can hand out sorted subslices directly instead of driving a
// per-triple callback under a mutex.
//
// The paper's setting evaluates reformulations with hundreds to
// thousands of near-identical member CQs, each of which re-scans the
// same triple table; a relational backend amortizes that with shared
// scans and MVCC snapshots. Snapshot is this reproduction's equivalent:
// the engine pins one Snapshot at the top of an evaluation and every
// bind-join, statistics probe and shard worker reads through it.
//
// Over the compressed frozen representation a snapshot reads through the
// store generation's shared frozenView cursors (retained at capture):
// Scan streams blocks, Range hands out lazily-decoded cached views with
// the same zero-copy stability contract as flat subslices, and the
// optional Release returns the cached decode buffers to the pool early.
package storage

import (
	"math"
	"sync/atomic"

	"repro/internal/dict"
)

// Snapshot is an immutable view of a Store at one mutation version.
// The sorted indexes are shared zero-copy with the store (mutations
// always install fresh index slices and views, never write through old
// ones); the small delta and tombstone sets are copied at capture time
// because Add and Remove update them in place. All methods are safe for
// concurrent use by any number of goroutines without synchronization,
// and — unlike Store.Scan callbacks — may be nested freely and may run
// concurrently with store mutations.
type Snapshot struct {
	store    *Store
	version  uint64
	orders   []Order
	indexes  [numOrders][]Triple
	frozen   [numOrders]*frozenView // retained cursors; nil for flat or unused orders
	delta    []Triple               // additions not yet compacted, in insertion order
	deleted  map[Triple]struct{}    // tombstoned sorted entries
	deltaBox box                    // per-position value range of delta
	deadBox  box                    // per-position value range of deleted
	n        int
	released atomic.Bool
}

// box is the per-position [min, max] value range of a small triple set.
// Dictionary IDs grow with insertion order, so freshly added subjects and
// objects lie above every older probe: a pattern with a bound value
// outside the box cannot match the set, and its reads skip the set
// without looking at it. The zero box is empty (no real ID is 0).
type box struct{ min, max [3]dict.ID }

// fullBox admits every pattern — the bounds of a set nobody measured.
var fullBox = box{max: [3]dict.ID{math.MaxUint32, math.MaxUint32, math.MaxUint32}}

func (b *box) add(t Triple) {
	first := b.max[0] == dict.None
	for i, v := range key(t) {
		if first || v < b.min[i] {
			b.min[i] = v
		}
		if v > b.max[i] {
			b.max[i] = v
		}
	}
}

// mayMatch reports whether some triple inside the box could match p.
func (b *box) mayMatch(p Pattern) bool {
	if b.max[0] == dict.None {
		return false
	}
	for i, v := range [3]dict.ID{p.S, p.P, p.O} {
		if v != dict.None && (v < b.min[i] || v > b.max[i]) {
			return false
		}
	}
	return true
}

// Snapshot captures an immutable view of the store's current contents.
// The capture cost is one read-lock acquisition plus a copy of the
// (typically empty) delta and tombstone sets; on a frozen store it is a
// handful of pointer copies and view retains.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn := &Snapshot{
		store:   s,
		version: s.version.Load(),
		orders:  s.orders,
		indexes: s.indexes,
		n:       s.n + len(s.delta) - len(s.deleted),
	}
	for _, o := range s.orders {
		if v := s.views[o]; v != nil {
			v.retain()
			sn.frozen[o] = v
		}
	}
	if len(s.delta) > 0 {
		sn.delta = make([]Triple, len(s.delta))
		for i, t := range s.delta {
			sn.delta[i] = t
			sn.deltaBox.add(t)
		}
	}
	if len(s.deleted) > 0 {
		sn.deleted = make(map[Triple]struct{}, len(s.deleted))
		for t := range s.deleted {
			sn.deleted[t] = struct{}{}
			sn.deadBox.add(t)
		}
	}
	return sn
}

// Release drops the snapshot's references on the frozen-generation
// cursors, letting their cached decode buffers return to the pool as
// soon as the store has moved past the generation too. Calling it is
// optional — an unreleased snapshot is reclaimed by the garbage
// collector like any value, the pool just recycles less — but the
// engine releases at the end of every evaluation, after all workers have
// joined and every borrowed range subslice has been dropped. Any reads
// through the snapshot after Release are invalid. Release is idempotent.
func (sn *Snapshot) Release() {
	if sn.released.Swap(true) {
		return
	}
	for _, v := range sn.frozen {
		if v != nil {
			v.release()
		}
	}
}

// Released reports whether Release has run — observability for the
// engine's release-on-every-exit-path guarantee (the cancellation tests
// assert it), not a synchronization primitive.
func (sn *Snapshot) Released() bool { return sn.released.Load() }

// Version returns the store mutation version the snapshot was captured
// at. Two snapshots with equal versions have identical contents, which
// is what lets version-stamped artifacts (statistics memos, plan-cache
// entries) validated against a snapshot agree with validation against
// the live store.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Len returns the number of distinct triples visible in the snapshot.
func (sn *Snapshot) Len() int { return sn.n }

// Orders returns the index orders the snapshot carries.
func (sn *Snapshot) Orders() []Order { return sn.orders }

// Hint is the memory of one probe site — one depth of a bind-join, one
// merged-scan family: the access path its pattern shape resolved to, so
// the index choice is made once per shape rather than per probe, and
// where its last probe landed, so an ascending probe sequence (what a
// scan in index order feeds the next depth) gallops on from there instead
// of descending from the top. The caller owns it and passes it to
// successive probes; the zero Hint knows nothing. It is never stored on
// the store, the view or the snapshot, and it names the store version it
// learned from (one version is one set of indexes and cursors, kept alive
// by whichever snapshot is being probed): a probe at any other version,
// or of another shape, starts it over, and a key that moves backwards
// silently re-descends, so a Hint cannot go stale — it can only fail to
// help.
type Hint struct {
	store   *Store
	version uint64
	path    path
	ts      []Triple // the flat index, or the cached decoded block of the last landing
	blk     int      // that block's number in a frozen index
	at      int      // landing position in ts; -1 before the first probe
}

// resolve points the hint at p's access path on this snapshot.
func (sn *Snapshot) resolve(p Pattern, h *Hint) {
	if m := maskOf(p); h.store != sn.store || h.version != sn.version || h.path.mask != m {
		*h = Hint{store: sn.store, version: sn.version, path: choosePath(sn.orders, m), at: -1}
	}
}

// seek returns the global [lo, hi) range of p's bound prefix in the
// index its shape reads, in one descent: the lower bound is found from
// the hint (or from the top), the upper bound by galloping on from it.
func (sn *Snapshot) seek(p Pattern, h *Hint) (lo, hi int) {
	sn.resolve(p, h)
	return sn.locate(p, h)
}

// locate is seek on a resolved hint.
func (sn *Snapshot) locate(p Pattern, h *Hint) (lo, hi int) {
	q := h.path.probe(p)
	if v := sn.frozen[h.path.order]; v != nil {
		return v.seek(&q, h)
	}
	idx := sn.indexes[h.path.order]
	if q.prefix > 0 {
		lo = q.lowerFrom(idx, h.at)
		hi = q.gallop(idx, lo, 1)
	} else {
		hi = len(idx)
	}
	h.ts, h.at = idx, lo
	return lo, hi
}

// sorted returns the sorted range of p as a slice stable for the
// snapshot's lifetime: a subslice of the flat index or of the cached
// decoded block the probe landed in, else a span the view materializes
// (ok=false when it is too wide for that).
func (sn *Snapshot) sorted(p Pattern, h *Hint) (ts []Triple, ok bool) {
	lo, hi := sn.locate(p, h)
	n := hi - lo
	if n <= 0 {
		return nil, true
	}
	if h.ts != nil && n <= len(h.ts)-h.at {
		return h.ts[h.at : h.at+n : h.at+n], true
	}
	return sn.frozen[h.path.order].slice(lo, hi)
}

// Settled reports whether the sorted range of p alone is its answer: no
// tombstone can hide one of its triples and no pending delta triple
// matches it. Outside the boxes that is known without a look at either
// set; inside them the delta is checked triple by triple and any
// tombstone at all counts.
func (sn *Snapshot) Settled(p Pattern) bool {
	if sn.deadBox.mayMatch(p) {
		return false
	}
	if sn.deltaBox.mayMatch(p) {
		for _, t := range sn.delta {
			if p.Matches(t) {
				return false
			}
		}
	}
	return true
}

// Contains reports whether the triple is visible in the snapshot.
func (sn *Snapshot) Contains(t Triple) bool {
	if _, dead := sn.deleted[t]; dead {
		return false
	}
	p := Pattern{S: t.S, P: t.P, O: t.O}
	if sn.deltaBox.mayMatch(p) {
		for _, d := range sn.delta {
			if d == t {
				return true
			}
		}
	}
	lo, hi := sn.seek(p, &Hint{})
	return hi > lo
}

// Scan calls f for every triple matching the pattern, stopping early if
// f returns false, in exactly the order Store.Scan would produce: the
// sorted range first, then matching delta triples in insertion order.
// No lock is held; f may nest further snapshot reads and may run
// concurrently with store mutations. On a frozen index the range streams
// block by block, holding O(block) decoded memory however wide it is.
func (sn *Snapshot) Scan(p Pattern, f func(Triple) bool) {
	var h Hint
	lo, hi := sn.seek(p, &h)
	v := sn.frozen[h.path.order]
	if v == nil {
		sn.ScanRange(sn.indexes[h.path.order][lo:hi], p, f)
		return
	}
	dead := sn.deadBox.mayMatch(p)
	stopped := false
	v.iterate(lo, hi, func(t Triple) bool {
		if sn.visible(p, dead, t) && !f(t) {
			stopped = true
		}
		return !stopped
	})
	if !stopped {
		sn.scanDelta(p, f)
	}
}

// ScanRange replays a sorted subrange previously located by Range or
// MultiRange through the snapshot's residual filter, tombstones and
// delta — producing exactly the triple sequence Scan(p) would, given
// that sub is the sorted range Scan would have binary-searched.
func (sn *Snapshot) ScanRange(sub []Triple, p Pattern, f func(Triple) bool) {
	dead := sn.deadBox.mayMatch(p)
	for _, t := range sub {
		if sn.visible(p, dead, t) && !f(t) {
			return
		}
	}
	sn.scanDelta(p, f)
}

// visible reports whether a triple of p's sorted range is part of its
// answer: it passes the residual filter (a no-op for covering indexes)
// and, where a tombstone could match p at all (dead), is not tombstoned.
func (sn *Snapshot) visible(p Pattern, dead bool, t Triple) bool {
	if !p.Matches(t) {
		return false
	}
	if dead {
		_, gone := sn.deleted[t]
		return !gone
	}
	return true
}

// scanDelta streams the pending additions matching p, in insertion order.
func (sn *Snapshot) scanDelta(p Pattern, f func(Triple) bool) {
	if !sn.deltaBox.mayMatch(p) {
		return
	}
	for _, t := range sn.delta {
		if p.Matches(t) && !f(t) {
			return
		}
	}
}

// Range returns the triples matching p as a sorted subslice, when the
// subslice alone is provably the exact answer: the pattern's bound
// positions are a sort prefix of the chosen index (no residual filter)
// and the range is Settled. ok=false means the caller must fall back to
// Scan.
//
// On a flat index the subslice is zero-copy into the shared index. On a
// frozen index it is a view of a lazily-decoded block (or a materialized
// multi-block span) cached on the generation's cursor — equally stable
// for the snapshot's lifetime, so callers (the engine's bind-joins)
// treat both identically; a range wider than the
// materialization cap is declined (ok=false) and streams through Scan
// instead. On a frozen store with the default index set, every pattern
// shape narrower than the cap takes the ok path.
func (sn *Snapshot) Range(p Pattern) (ts []Triple, ok bool) { return sn.RangeFrom(p, nil) }

// RangeFrom is Range for a probe site that keeps a Hint between probes;
// a nil hint is a site with no memory.
func (sn *Snapshot) RangeFrom(p Pattern, h *Hint) (ts []Triple, ok bool) {
	if h == nil {
		h = &Hint{}
	}
	sn.resolve(p, h)
	if !h.path.covered || !sn.Settled(p) {
		return nil, false
	}
	return sn.sorted(p, h)
}

// Path returns the sort order of the index a probe of p's shape reads —
// perm[i] is the position (0=S, 1=P, 2=O) it sorts on i-th — and how many
// of those leading positions p binds. A pattern binding a prefix of perm
// reads the same index, so probes sharing that prefix share its blocks.
func (sn *Snapshot) Path(p Pattern) (perm [3]int, prefix int) {
	pa := choosePath(sn.orders, maskOf(p))
	return pa.perm, pa.prefix
}

// Count returns the number of triples matching the pattern, exactly as
// Store.Count would, without taking any lock. Covered patterns count by
// one seek — on a frozen index through the fence-key directory, decoding
// at most two boundary blocks, never the range.
func (sn *Snapshot) Count(p Pattern) int {
	var h Hint
	lo, hi := sn.seek(p, &h)
	n := hi - lo
	if !h.path.covered {
		n = 0
		count := func(t Triple) bool {
			if p.Matches(t) {
				n++
			}
			return true
		}
		if v := sn.frozen[h.path.order]; v != nil {
			v.iterate(lo, hi, count)
		} else {
			for _, t := range sn.indexes[h.path.order][lo:hi] {
				count(t)
			}
		}
	}
	// Tombstones always refer to sorted entries, so matching ones were
	// counted above and must be subtracted.
	if sn.deadBox.mayMatch(p) {
		for t := range sn.deleted {
			if p.Matches(t) {
				n--
			}
		}
	}
	if sn.deltaBox.mayMatch(p) {
		for _, t := range sn.delta {
			if p.Matches(t) {
				n++
			}
		}
	}
	return n
}

// MultiRange locates the sorted subranges of a family of patterns that
// differ only in one constant — the shape a merged-member UCQ scan has:
// g is the generalized pattern (the varying position left unbound), vpos
// is the varying position (0=S, 1=P, 2=O) and consts are the constants,
// in ascending order (equal repeats allowed). The varying position must
// be the next sort position after g's bound prefix, so the ascending
// constants are an ascending probe sequence on one index: the family
// shares one Hint, the first member descends and every later one gallops
// on from its predecessor instead of paying a full lookup.
//
// ok=false means the index layout does not support a shared pass for
// this shape (the varying position is not the next sort position after
// g's bound prefix, a residual filter would be needed, the chosen index
// differs from the one per-pattern scans would use, consts are not
// sorted, or a member range exceeds the frozen materialization cap);
// callers then fall back to per-pattern scans. ranges[i] is the sorted
// range for g with vpos bound to consts[i] — exactly the subslice Range
// would return for that pattern, so it must be replayed through
// ScanRange to apply tombstones and delta unless the pattern is Settled.
//
// dst, when non-nil, is reused as the backing for the returned ranges
// slice (the per-range subslice headers are copied out by value, so a
// caller looping over families may pass the previous result).
func (sn *Snapshot) MultiRange(g Pattern, vpos int, consts []dict.ID, dst [][]Triple) (ranges [][]Triple, ok bool) {
	if vpos < 0 || vpos > 2 || len(consts) == 0 {
		return nil, false
	}
	gp := choosePath(sn.orders, maskOf(g))
	if !gp.covered || gp.prefix >= 3 || gp.perm[gp.prefix] != vpos {
		return nil, false
	}
	// The member patterns must scan the same index in the same order,
	// or the shared subranges would enumerate triples in a different
	// sequence than per-member scans. A fully bound member pattern is
	// exempt: its range holds at most one triple.
	var h Hint
	sn.resolve(withPos(g, vpos, consts[0]), &h)
	if gp.prefix+1 < 3 && h.path.perm != gp.perm {
		return nil, false
	}
	if cap(dst) >= len(consts) {
		ranges = dst[:len(consts)]
	} else {
		ranges = make([][]Triple, len(consts))
	}
	for i, c := range consts {
		if i > 0 {
			if c < consts[i-1] {
				return nil, false
			}
			if c == consts[i-1] {
				ranges[i] = ranges[i-1]
				continue
			}
		}
		if ranges[i], ok = sn.sorted(withPos(g, vpos, c), &h); !ok {
			return nil, false
		}
	}
	return ranges, true
}

// withPos returns p with position pos (0=S, 1=P, 2=O) set to id.
func withPos(p Pattern, pos int, id dict.ID) Pattern {
	switch pos {
	case 0:
		p.S = id
	case 1:
		p.P = id
	default:
		p.O = id
	}
	return p
}
