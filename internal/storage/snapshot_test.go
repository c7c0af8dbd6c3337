package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dict"
)

// spanTriples copies a Span's triples out, nil for an empty span.
func spanTriples(sp Span) (ts []Triple) {
	for seg := sp.Next(); seg != nil; seg = sp.Next() {
		ts = append(ts, seg...)
	}
	return ts
}

// collectScan materializes a Scan into a slice, preserving order.
func collectScan(scan func(Pattern, func(Triple) bool), p Pattern) []Triple {
	var out []Triple
	scan(p, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// mutate applies a deterministic mix of adds and removes so the store
// carries both a delta and tombstones.
func mutate(s *Store, rng *rand.Rand, ts []Triple) {
	for i := 0; i < len(ts)/4; i++ {
		s.Remove(ts[rng.Intn(len(ts))])
	}
	for i := 0; i < len(ts)/4; i++ {
		s.Add(Triple{
			S: dict.ID(rng.Intn(40) + 1),
			P: dict.ID(rng.Intn(8) + 1),
			O: dict.ID(rng.Intn(40) + 1),
		})
	}
}

func TestSnapshotMatchesStore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := randomTriples(rng, 300, 40)
	for _, orders := range [][]Order{nil, AllOrders} {
		s := buildStore(ts, orders...)
		mutate(s, rng, ts)

		sn := s.Snapshot()
		if sn.Version() != s.Version() {
			t.Fatalf("snapshot version %d, store version %d", sn.Version(), s.Version())
		}
		if sn.Len() != s.Len() {
			t.Fatalf("snapshot len %d, store len %d", sn.Len(), s.Len())
		}
		for _, probe := range ts[:50] {
			for _, p := range allPatterns(probe) {
				want := collectScan(s.Scan, p)
				got := collectScan(sn.Scan, p)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("orders %v pattern %+v: snapshot scan %v, store scan %v", orders, p, got, want)
				}
				if sn.Count(p) != s.Count(p) {
					t.Fatalf("pattern %+v: snapshot count %d, store count %d", p, sn.Count(p), s.Count(p))
				}
			}
			if sn.Contains(probe) != s.Contains(probe) {
				t.Fatalf("contains(%v) disagrees", probe)
			}
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ts := randomTriples(rng, 200, 30)
	s := buildStore(ts)
	sn := s.Snapshot()
	version := sn.Version()

	// Scans and counts captured before the mutations, over a pattern
	// broad enough to see every change.
	all := Pattern{}
	wantScan := collectScan(sn.Scan, all)
	wantLen := sn.Len()

	// Mutate heavily after the capture: adds, removes, and a compaction
	// (which rebuilds every index slice the snapshot shares).
	mutate(s, rng, ts)
	s.Compact()
	mutate(s, rng, ts)

	if sn.Version() != version {
		t.Fatalf("snapshot version moved: %d -> %d", version, sn.Version())
	}
	if got := collectScan(sn.Scan, all); !reflect.DeepEqual(got, wantScan) {
		t.Fatalf("snapshot scan changed after store mutation")
	}
	if sn.Len() != wantLen {
		t.Fatalf("snapshot len changed after store mutation: %d -> %d", wantLen, sn.Len())
	}
	if s.Version() == version {
		t.Fatalf("store version did not move despite mutations")
	}

	// A fresh snapshot sees the new state.
	sn2 := s.Snapshot()
	if sn2.Version() != s.Version() {
		t.Fatalf("fresh snapshot version %d, store version %d", sn2.Version(), s.Version())
	}
	if got, want := collectScan(sn2.Scan, all), collectScan(s.Scan, all); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh snapshot disagrees with store")
	}
}

func TestSnapshotRange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ts := randomTriples(rng, 300, 40)

	// Compacted store: every pattern shape must take the exact-range path
	// under the default complete index set.
	s := buildStore(ts)
	sn := s.Snapshot()
	for _, probe := range ts[:50] {
		for _, p := range allPatterns(probe) {
			got, ok := sn.Range(p)
			if !ok {
				t.Fatalf("compacted store: Range(%+v) not exact", p)
			}
			want := collectScan(sn.Scan, p)
			if len(got) != len(want) {
				t.Fatalf("Range(%+v): %d triples, Scan has %d", p, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Range(%+v)[%d] = %v, Scan gives %v", p, i, got[i], want[i])
				}
			}
			// ScanRange over the exact range replays the same sequence.
			var replay []Triple
			sp, _ := sn.RangeFrom(p, nil)
			sn.ScanRange(sp, p, func(tr Triple) bool { replay = append(replay, tr); return true })
			if !reflect.DeepEqual(replay, want) {
				t.Fatalf("ScanRange(%+v) diverges from Scan", p)
			}
		}
	}

	// With a delta, Range must refuse patterns the delta matches.
	added := Triple{S: 1, P: 1, O: 1}
	s.Add(added)
	sn = s.Snapshot()
	if _, ok := sn.Range(Pattern{}); ok {
		t.Fatalf("Range claimed exactness over a live delta")
	}
	// With tombstones, Range must refuse every pattern a tombstone could
	// match, and only those: a bound value outside the tombstones' box
	// keeps the zero-copy range.
	s.Compact()
	s.Remove(ts[0])
	sn = s.Snapshot()
	for _, p := range []Pattern{{}, {S: ts[0].S}, {P: ts[0].P, O: ts[0].O}} {
		if _, ok := sn.Range(p); ok {
			t.Fatalf("Range(%+v) claimed exactness over a tombstone it may match", p)
		}
	}
	for _, probe := range ts[1:] {
		if probe.S == ts[0].S {
			continue
		}
		p := Pattern{S: probe.S}
		got, ok := sn.Range(p)
		if !ok {
			t.Fatalf("Range(%+v) declined though no tombstone has that subject", p)
		}
		if want := collectScan(sn.Scan, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("Range(%+v) beside a tombstone = %v, Scan gives %v", p, got, want)
		}
	}
}

func TestSnapshotMultiRange(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ts := randomTriples(rng, 400, 30)
	for _, mutated := range []bool{false, true} {
		s := buildStore(ts)
		if mutated {
			mutate(s, rng, ts)
		}
		sn := s.Snapshot()

		// Family: fixed property, varying object — the reformulated-UCQ
		// shape (members differ in one class/property constant).
		prop := dict.ID(3)
		objSet := map[dict.ID]struct{}{}
		for _, tr := range ts {
			if tr.P == prop {
				objSet[tr.O] = struct{}{}
			}
		}
		var consts []dict.ID
		for o := range objSet {
			consts = append(consts, o)
		}
		consts = append(consts, 9999) // an absent constant: empty range
		sort.Slice(consts, func(i, j int) bool { return consts[i] < consts[j] })
		if len(consts) < 3 {
			t.Fatalf("workload too small: %d distinct objects", len(consts))
		}

		g := Pattern{P: prop}
		ranges, ok := sn.MultiRange(g, 2, consts, nil, nil)
		if !ok {
			t.Fatalf("MultiRange refused the canonical POS family")
		}
		// Reusing the previous result as dst must yield the same ranges.
		orig := append([]Span(nil), ranges...)
		reused, ok := sn.MultiRange(g, 2, consts, nil, ranges)
		if !ok || !reflect.DeepEqual(reused, orig) {
			t.Fatalf("MultiRange with reused dst diverges")
		}
		for i, c := range consts {
			member := Pattern{P: prop, O: c}
			want := collectScan(sn.Scan, member)
			var got []Triple
			sn.ScanRange(ranges[i], member, func(tr Triple) bool { got = append(got, tr); return true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mutated=%v const %d: merged range gives %v, Scan gives %v", mutated, c, got, want)
			}
		}

		// Unsorted constants are refused.
		if len(consts) >= 2 {
			if _, ok := sn.MultiRange(g, 2, []dict.ID{consts[1], consts[0]}, nil, nil); ok && consts[0] != consts[1] {
				t.Fatalf("MultiRange accepted unsorted constants")
			}
		}
		// A varying position that is not the next sort position is refused:
		// under POS, with P bound the next position is O, not S.
		if _, ok := sn.MultiRange(g, 0, consts, nil, nil); ok {
			t.Fatalf("MultiRange accepted a non-prefix varying position")
		}
	}
}

func TestSnapshotMultiRangeDuplicateConsts(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ts := randomTriples(rng, 200, 20)
	sn := buildStore(ts).Snapshot()
	c := ts[0].O
	ranges, ok := sn.MultiRange(Pattern{P: ts[0].P}, 2, []dict.ID{c, c}, nil, nil)
	if !ok {
		t.Fatalf("MultiRange refused duplicate constants")
	}
	if len(ranges) != 2 || ranges[0].Len() != ranges[1].Len() {
		t.Fatalf("duplicate constants got different ranges")
	}
}
