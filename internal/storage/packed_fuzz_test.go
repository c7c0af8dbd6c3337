package storage

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dict"
)

// packedWidths are the column spans FuzzPackedBlock draws a column from:
// a constant column, two adjacent values, and spans of 16, 31 and 32
// bits — the last reaching both 1 and the largest ID, 2³²−1.
var packedWidths = [...]uint{0, 1, 16, 31, 32}

// packedBlockSizes are the block row counts FuzzPackedBlock builds with:
// small ones split runs of equal leading values across blocks.
var packedBlockSizes = [...]int{1, 2, 3, 5, 8, 13, defaultBlockTriples}

// packedColumn returns a generator of one column's values over the given
// span width: values drawn from a pool of distinct ones, so runs repeat.
func packedColumn(rng *rand.Rand, width uint, pool int) func() dict.ID {
	var lo, span uint64
	switch width {
	case 0:
		lo, span = 1+uint64(rng.Int63n(math.MaxUint32)), 1
	case 32:
		lo, span = 1, math.MaxUint32
	default:
		span = 1 << width
		lo = 1 + uint64(rng.Int63n(int64(math.MaxUint32-span)))
	}
	vals := make([]dict.ID, pool)
	for i := range vals {
		vals[i] = dict.ID(lo + uint64(rng.Int63n(int64(span))))
	}
	if width == 32 && pool > 1 { // the extremes of the ID space
		vals[0], vals[1] = 1, math.MaxUint32
	}
	return func() dict.ID { return vals[rng.Intn(len(vals))] }
}

// packedRange is the sort.Search reference of a seek: the [lo, hi) range
// of the sorted index ref whose first prefix sort positions (of perm)
// equal p's.
func packedRange(ref []Triple, perm [3]int, prefix int, p Pattern) (lo, hi int) {
	want := key(Triple(p))
	cmp := func(t Triple) int {
		k := key(t)
		for i := 0; i < prefix; i++ {
			if a, b := k[perm[i]], want[perm[i]]; a != b {
				if a < b {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	lo = sort.Search(len(ref), func(i int) bool { return cmp(ref[i]) >= 0 })
	hi = sort.Search(len(ref), func(i int) bool { return cmp(ref[i]) > 0 })
	return lo, hi
}

// FuzzPackedBlock builds stores over triples whose columns span 0, 1, 16,
// 31 and 32 bits, under block sizes that split runs across blocks, and
// checks every read of the packed index against a sort.Search reference
// over the sorted triples: seeks of every prefix length, ascending,
// descending and repeated through one Hint; RangeFrom's span segments
// (each inside one block); Count, Contains, Range, Scan and Each; and the
// same reads after Compact folds in a delta and tombstones.
func FuzzPackedBlock(f *testing.F) {
	f.Add(int64(1), uint16(0o432), uint8(0), uint16(300))
	f.Add(int64(2), uint16(0o000), uint8(2), uint16(40))
	f.Add(int64(3), uint16(0o144), uint8(6), uint16(900))
	f.Fuzz(func(t *testing.T, seed int64, modes uint16, block uint8, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + int(n)%1200
		bt := packedBlockSizes[int(block)%len(packedBlockSizes)]
		var gen [3]func() dict.ID
		for c := range gen {
			w := packedWidths[int(modes>>(3*c)&7)%len(packedWidths)]
			gen[c] = packedColumn(rng, w, 1+rng.Intn(size))
		}
		data := make([]Triple, size)
		for i := range data {
			data[i] = Triple{S: gen[0](), P: gen[1](), O: gen[2]()}
		}
		b := NewBuilder(AllOrders...).WithBlockSize(bt)
		b.AddAll(data)
		s := b.Build()
		m := newModel(data, AllOrders...)
		checkPacked(t, s, m, rng, bt)

		// A delta and tombstones, read before and after they are folded in.
		for i := 0; i < size/4+1; i++ {
			add := Triple{S: gen[0](), P: gen[1](), O: gen[2]()}
			s.Add(add)
			m.add(add)
			victim := data[rng.Intn(len(data))]
			s.Remove(victim)
			m.remove(victim)
		}
		for _, p := range packedProbes(rng, m.live()) {
			if got, want := collectScan(s.Scan, p), m.scan(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("pending changes, Scan %+v: %d triples, model %d", p, len(got), len(want))
			}
			if got, want := s.Count(p), len(m.scan(p)); got != want {
				t.Fatalf("pending changes, Count %+v = %d, model %d", p, got, want)
			}
		}
		s.Compact()
		m.compact()
		checkPacked(t, s, m, rng, bt)
	})
}

// packedProbes returns patterns of every shape bound to the values of
// some of ts's triples, plus a few that match nothing.
func packedProbes(rng *rand.Rand, ts []Triple) []Pattern {
	var ps []Pattern
	for i := 0; i < 12 && len(ts) > 0; i++ {
		ps = append(ps, allPatterns(ts[rng.Intn(len(ts))])...)
	}
	return append(ps, Pattern{S: math.MaxUint32}, Pattern{P: 1, O: math.MaxUint32}, Pattern{S: 1, P: 1, O: 1})
}

// checkPacked compares every read of a store without pending changes
// with the reference over m's live triples.
func checkPacked(t *testing.T, s *Store, m *model, rng *rand.Rand, bt int) {
	t.Helper()
	live := m.live()
	sn := s.Snapshot()
	defer sn.Release()
	var each []Triple
	s.Each(func(tr Triple) bool { each = append(each, tr); return true })
	if !reflect.DeepEqual(each, live) && len(each)+len(live) > 0 {
		t.Fatalf("Each: %d triples, model %d", len(each), len(live))
	}
	for _, o := range s.orders {
		perm := o.perm()
		ref := append([]Triple(nil), live...)
		sortByOrder(ref, perm)
		// Probes along this order's sort prefix, at every length.
		var asc []Pattern
		for _, tr := range packedSample(rng, ref) {
			k := key(tr)
			for prefix := 1; prefix <= 3; prefix++ {
				var w [3]dict.ID
				for i := 0; i < prefix; i++ {
					w[perm[i]] = k[perm[i]]
				}
				asc = append(asc, Pattern{S: w[0], P: w[1], O: w[2]})
			}
		}
		desc := make([]Pattern, len(asc))
		for i, p := range asc {
			desc[len(asc)-1-i] = p
		}
		var again []Pattern
		for _, p := range asc {
			again = append(again, p, p)
		}
		for si, seq := range [][]Pattern{asc, desc, again} {
			var h Hint
			for _, p := range seq {
				path := choosePath(sn.orders, maskOf(p))
				if path.order != o {
					continue
				}
				wantLo, wantHi := packedRange(ref, perm, path.prefix, p)
				want := ref[wantLo:wantHi]
				if lo, hi := sn.seek(p, &h); lo != wantLo || hi != wantHi {
					t.Fatalf("order %v sequence %d %+v: seek [%d,%d), reference [%d,%d)", o, si, p, lo, hi, wantLo, wantHi)
				}
				sp, ok := sn.RangeFrom(p, &h)
				if !ok {
					t.Fatalf("order %v %+v: RangeFrom declined a settled covered pattern", o, p)
				}
				var got []Triple
				for seg := sp.Next(); seg != nil; seg = sp.Next() {
					if len(seg) > bt {
						t.Fatalf("order %v %+v: a %d-triple segment of %d-row blocks", o, p, len(seg), bt)
					}
					got = append(got, seg...)
				}
				if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("order %v sequence %d %+v: span %v, reference %v", o, si, p, got, want)
				}
				if r, ok := sn.Range(p); !ok || (!reflect.DeepEqual(r, want) && len(r)+len(want) > 0) {
					t.Fatalf("order %v %+v: Range %v (ok %v), reference %v", o, p, r, ok, want)
				}
				if c := sn.Count(p); c != len(want) {
					t.Fatalf("order %v %+v: Count %d, reference %d", o, p, c, len(want))
				}
				if got := sn.Contains(Triple(p)); path.prefix == 3 && got != (len(want) == 1) {
					t.Fatalf("order %v: Contains(%v) = %v, reference holds %d", o, p, got, len(want))
				}
			}
		}
	}
	for _, p := range packedProbes(rng, live) {
		if got, want := collectScan(sn.Scan, p), m.scan(p); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("Scan %+v: %d triples, model %d", p, len(got), len(want))
		}
	}
}

// packedSample returns up to 40 triples of the sorted ref in ascending
// order: its first and last, and others at random.
func packedSample(rng *rand.Rand, ref []Triple) []Triple {
	if len(ref) == 0 {
		return nil
	}
	idx := []int{0, len(ref) - 1}
	for i := 0; i < 38; i++ {
		idx = append(idx, rng.Intn(len(ref)))
	}
	sort.Ints(idx)
	out := make([]Triple, len(idx))
	for i, j := range idx {
		out[i] = ref[j]
	}
	return out
}
