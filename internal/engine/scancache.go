package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// scanCache is the per-evaluation memo of depth-0 pattern scans: triple
// pattern → the exact triple sequence Scan yields for it on the pinned
// snapshot. Reformulation members are near-identical, so the bind-join
// re-issues the same outermost patterns member after member; the memo
// turns every repeat into a slice walk, which matters when the snapshot
// cannot hand the pattern out as a range and each repeat would otherwise
// re-filter a pending delta or tombstones. Entries are shared read-only across members, arms and
// shard workers of one evaluation and die with it, so mutation safety
// is inherited from the snapshot's immutability.
//
//lint:cache scancache
type scanCache struct {
	// seen is a fixed tag table marking patterns scanned once: most
	// distinct patterns of an evaluation are never scanned again (the
	// repeats concentrate on a few), so entries are only installed on a
	// pattern's second scan. A collision merely overwrites a mark or
	// pre-marks a pattern — caching happens one scan early or late,
	// never incorrectly.
	seen [scanSeenSlots]atomic.Uint32
	// One lock: the memo is consulted once per member, not per probe.
	mu sync.RWMutex
	m  map[storage.Pattern][]storage.Triple
}

const (
	// scanSeenSlots sizes the seen-once tag table; must be a power of
	// two. 8K slots cost 32KB per evaluation.
	scanSeenSlots = 1 << 13
	// maxScanCacheEntries bounds the number of cached patterns per
	// evaluation — beyond it, scans stream without materializing.
	maxScanCacheEntries = 1 << 15
	// maxScanCacheRows bounds a single materialized entry; larger scan
	// results are streamed and not cached (zero-copy exact ranges are
	// exempt: they cost only a slice header regardless of length).
	maxScanCacheRows = 4096
)

// scanCachePool recycles evaluation scan memos: the map keeps its buckets
// across evaluations, so steady-state cache installs allocate (almost)
// nothing.
var scanCachePool = sync.Pool{New: func() any {
	return &scanCache{m: make(map[storage.Pattern][]storage.Triple, 64)}
}}

func newScanCache() *scanCache { return scanCachePool.Get().(*scanCache) }

// release clears the cache — dropping every snapshot-pinned slice it
// retains — and returns it to the pool. The caller must have joined
// every worker of the owning evaluation first; EvalArms does.
func (c *scanCache) release() {
	// Reset the tag table slot by slot through the atomic API. A plain
	// clear() would be a non-atomic wholesale store racing any Load on
	// the slots — benign today only because release runs after the
	// worker join, but the atomicmix analyzer (rightly) bans relying on
	// that, and Store costs the same on a quiesced cache.
	for i := range c.seen {
		c.seen[i].Store(0)
	}
	clear(c.m)
	scanCachePool.Put(c)
}

// seenBefore reports whether the pattern was (probably) scanned before
// in this evaluation, marking it seen otherwise. Safe for concurrent
// shard workers: a racing pair both read unseen, both stream uncached,
// and the pattern is cached on a later scan.
func (c *scanCache) seenBefore(p storage.Pattern) bool {
	h := uint64(p.S)*0x9E3779B1 ^ uint64(p.P)*0x85EBCA77 ^ uint64(p.O)*0xC2B2AE3D
	slot := &c.seen[(h>>3)&(scanSeenSlots-1)]
	tag := uint32(h>>32) | 1
	if slot.Load() == tag {
		return true
	}
	slot.Store(tag)
	return false
}

// get returns the cached triple sequence for the pattern. ok
// distinguishes a cached empty result (nil slice) from a miss.
func (c *scanCache) get(p storage.Pattern) ([]storage.Triple, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	//lint:ignore versionstamp per-evaluation memo pinned to one snapshot (EvalArms pins ctx.snap); entries die with the evaluation and cannot span store versions
	ts, ok := c.m[p]
	return ts, ok
}

// full reports whether the entry budget is exhausted — callers skip
// materializing results they would not be able to cache.
func (c *scanCache) full() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m) >= maxScanCacheEntries
}

// put caches the triple sequence for the pattern while the entry budget
// lasts. The first writer wins; a concurrent duplicate (two workers
// scanning the same pattern) computed the identical sequence anyway and
// is dropped.
func (c *scanCache) put(p storage.Pattern, ts []storage.Triple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:ignore versionstamp per-evaluation memo pinned to one snapshot; duplicate probe of an unversioned entry that dies with the evaluation
	if _, dup := c.m[p]; dup || len(c.m) >= maxScanCacheEntries {
		return
	}
	//lint:ignore versionstamp per-evaluation memo pinned to one snapshot; entries are released before the next evaluation and cannot go stale
	c.m[p] = ts
}

// scanPattern is the bind-join's depth-0 probe: it returns the exact
// triple sequence snap.Scan(p) yields as a slice — from the pattern memo,
// from a zero-copy snapshot range found through the probe site's hint,
// or, for a repeated pattern the snapshot cannot range over, materialized
// once into the memo. ok=false means the caller must stream the pattern
// through snap.Scan. Deeper probes do not come here: measured with seeks
// at their hinted price, consulting the memo per inner probe cost more
// than the seeks it saved even at a 45 % hit rate (EXPERIMENTS.md,
// Figure 10), so they go straight to the snapshot.
func (c *evalCtx) scanPattern(m *meter, p storage.Pattern, h *storage.Hint) ([]storage.Triple, bool) {
	if c.scans == nil {
		return c.snap.RangeFrom(p, h)
	}
	if ts, ok := c.scans.get(p); ok {
		m.hits++
		return ts, true
	}
	m.misses++
	repeat := c.scans.seenBefore(p)
	if ts, ok := c.snap.RangeFrom(p, h); ok {
		// Exact zero-copy range: the subslice header is free to walk, and
		// worth a cache entry once the pattern has shown up twice.
		m.ranges++
		if repeat {
			c.scans.put(p, ts)
		}
		return ts, true
	}
	if !repeat || c.scans.full() || c.snap.Count(p) > maxScanCacheRows {
		return nil, false
	}
	var buf []storage.Triple
	c.snap.Scan(p, func(t storage.Triple) bool {
		buf = append(buf, t)
		return true
	})
	c.scans.put(p, buf)
	return buf, true
}
