// Package plancache implements a bounded, concurrent cache of the
// per-query artifacts of reformulation-based query answering: the chosen
// cover, the per-fragment reformulations, and the fragment statistics the
// cost model priced them with. Re-optimizing an identical query (modulo
// variable renaming and atom reordering — see the signature below) is
// pure waste on a server answering a heavy query stream, which is the
// ROADMAP scenario this package serves.
//
// # Signature
//
// Entries are keyed by bgp.CQ.CanonicalKey, a rendering of the query that
// is invariant under variable renaming and body-atom reordering, prefixed
// by a tag naming the answering strategy and how the answerer prices
// covers. Two queries with equal signatures are isomorphic, so the
// cached cover and reformulations transfer between them wholesale. The
// choice of cover depends on the query shape, the schema and the data
// statistics, but also on the pricing: the engine profile, the cost
// source, the cost constants and the search bounds. Answerers that price
// differently must therefore tag their keys differently, or a cache they
// share hands one of them the other's cover.
//
// # Invalidation
//
// Cached plans are only as valid as the statistics and schema they were
// computed from. Every entry records the storage.Store mutation version
// and the schema.Closed content stamp that held when planning *started*;
// Get rejects (and drops) an entry whose recorded pair differs from the
// caller's current pair. Recording the version from before planning makes
// a concurrent mutation invalidate conservatively: the entry can only be
// stamped with a version that is too old, never too new.
//
// All methods are safe for concurrent use; the cache is sharded so
// concurrent lookups of different queries do not contend on one mutex.
// Entries are treated as immutable after Put.
package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/bgp"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/reformulate"
)

// Signature returns the cache key for answering q under the given tag
// (the strategy and pricing, see above): the tag plus the canonical
// (renaming- and order-invariant) form of the query.
func Signature(tag string, q bgp.CQ) string {
	return tag + "\x00" + q.CanonicalKey()
}

// Fragment is the cached artifact of one cover fragment: the fragment's
// subquery, its reformulation, and the statistics the cost model derived
// for it. The reformulation is shared, not copied — Reformulations are
// immutable once built.
type Fragment struct {
	CQ     bgp.CQ
	Ref    *reformulate.Reformulation
	NumCQs int64
	// Stats are the arm estimates the cover was priced with.
	Stats cost.ArmStats
}

// Entry is one cached plan. All fields are read-only after Put.
type Entry struct {
	Key      string
	Strategy string

	// Validity window: the store version and schema stamp that held when
	// the plan was computed.
	StoreVersion uint64
	SchemaStamp  uint64

	// The plan itself.
	Head      []uint32 // head variables of the query the plan answers
	Cover     cover.Cover
	Fragments []Fragment

	// Optimizer report fields, replayed on a hit.
	EstimatedCost  float64
	EstimatedRows  float64
	CoversExplored int
	Exhaustive     bool
	TotalCQs       int64
	FragmentCQs    []int64
}

// Outcome classifies a Get.
type Outcome uint8

const (
	// Miss: no entry under the key.
	Miss Outcome = iota
	// Hit: a current entry was found.
	Hit
	// Stale: an entry existed but its (StoreVersion, SchemaStamp) pair
	// did not match the caller's; it was removed.
	Stale
)

// DefaultCapacity is the entry capacity New uses for capacity <= 0.
const DefaultCapacity = 1024

const numShards = 16

type shard struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element // value: *Entry
	lru *list.List               // front = most recently used
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Invalidations int64 // stale entries dropped by Get
	Evictions     int64 // entries displaced by capacity
	Puts          int64
}

// Lookups returns the total number of Get calls the snapshot covers.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses + s.Invalidations }

// HitRate returns Hits / Lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Cache is a sharded LRU plan cache. The zero value is not usable; use New.
//
//lint:cache plancache
type Cache struct {
	shards [numShards]shard

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
	puts          atomic.Int64
}

// New returns a cache holding up to capacity entries (DefaultCapacity if
// capacity <= 0), spread over its shards.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + numShards - 1) / numShards
	c := &Cache{}
	for i := range c.shards {
		//lint:ignore lockguard construction: the cache is not shared until New returns
		c.shards[i].cap = per
		//lint:ignore lockguard construction: the cache is not shared until New returns
		c.shards[i].m = make(map[string]*list.Element)
		//lint:ignore lockguard construction: the cache is not shared until New returns
		c.shards[i].lru = list.New()
	}
	return c
}

// shardFor picks the shard of a key (FNV-1a over the key bytes).
func (c *Cache) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%numShards]
}

// Get returns the entry under key if it exists and was computed at
// exactly (storeVersion, schemaStamp). A present entry with any other
// version pair is removed and reported as Stale.
func (c *Cache) Get(key string, storeVersion, schemaStamp uint64) (*Entry, Outcome) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, Miss
	}
	e := el.Value.(*Entry)
	if e.StoreVersion != storeVersion || e.SchemaStamp != schemaStamp {
		sh.lru.Remove(el)
		delete(sh.m, key)
		sh.mu.Unlock()
		c.invalidations.Add(1)
		return nil, Stale
	}
	sh.lru.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Add(1)
	return e, Hit
}

// Put inserts the entry under e.Key, displacing any previous entry for
// the key and evicting the least recently used entry of a full shard.
// Entries with an empty key are ignored.
func (c *Cache) Put(e *Entry) {
	if e == nil || e.Key == "" {
		return
	}
	sh := c.shardFor(e.Key)
	sh.mu.Lock()
	if el, ok := sh.m[e.Key]; ok {
		el.Value = e
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		c.puts.Add(1)
		return
	}
	sh.m[e.Key] = sh.lru.PushFront(e)
	var evicted bool
	if sh.lru.Len() > sh.cap {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.m, oldest.Value.(*Entry).Key)
		evicted = true
	}
	sh.mu.Unlock()
	c.puts.Add(1)
	if evicted {
		c.evictions.Add(1)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns the current counter values.
func (c *Cache) Snapshot() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Puts:          c.puts.Load(),
	}
}
