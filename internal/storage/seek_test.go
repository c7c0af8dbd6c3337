package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dict"
)

// refRange is the specification of a seek: the positions of the first
// and one-past-last triple of the sorted index whose leading prefix sort
// positions equal the pattern's, by a linear walk.
func refRange(idx []Triple, perm [3]int, prefix int, p Pattern) (lo, hi int) {
	want := [3]dict.ID{p.S, p.P, p.O}
	below := func(t Triple, orEqual bool) bool {
		k := key(t)
		for i := 0; i < prefix; i++ {
			if k[perm[i]] != want[perm[i]] {
				return k[perm[i]] < want[perm[i]]
			}
		}
		return orEqual
	}
	for lo < len(idx) && below(idx[lo], false) {
		lo++
	}
	for hi = lo; hi < len(idx) && below(idx[hi], true); hi++ {
	}
	return lo, hi
}

// seekProbes builds the probe sequences of the seek property test for one
// sorted index: every prefix length of present keys, keys absent between,
// before and after the stored ones, and the keys that begin and end every
// block — ascending, shuffled, and ascending with backwards jumps.
func seekProbes(rng *rand.Rand, idx []Triple, perm [3]int, block int) [][]Pattern {
	shape := func(t Triple, prefix int) Pattern {
		k, out := key(t), [3]dict.ID{}
		for i := 0; i < prefix; i++ {
			out[perm[i]] = k[perm[i]]
		}
		return Pattern{S: out[0], P: out[1], O: out[2]}
	}
	var asc []Pattern
	for i, t := range idx {
		edge := i%block == 0 || i%block == block-1 || i == len(idx)-1
		if !edge && rng.Intn(3) != 0 {
			continue
		}
		for prefix := 1; prefix <= 3; prefix++ {
			asc = append(asc, shape(t, prefix))
			absent := t
			switch perm[prefix-1] { // a neighbouring key that is usually not stored
			case 0:
				absent.S++
			case 1:
				absent.P++
			default:
				absent.O++
			}
			asc = append(asc, shape(absent, prefix))
		}
	}
	asc = append(asc, shape(Triple{S: 1 << 30, P: 1 << 30, O: 1 << 30}, 1))
	shuffled := append([]Pattern(nil), asc...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var jumpy []Pattern
	for i, p := range asc {
		jumpy = append(jumpy, p)
		if i%17 == 16 { // fall back behind the hint, then carry on ascending
			jumpy = append(jumpy, asc[rng.Intn(i)])
		}
	}
	return [][]Pattern{asc, shuffled, jumpy}
}

// One hinted seek must land where a cold seek lands and where a linear
// walk lands, whatever the hint last saw: on every index order, for every
// bound-prefix length, with blocks of 4, 7 and 1024 triples, for
// ascending, shuffled and backwards-jumping probe sequences that include
// absent keys and every block edge.
func TestSeekHintedEqualsColdEqualsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, o := range AllOrders {
		for _, block := range []int{4, 7, 1024} {
			data := randomTriples(rng, 150+rng.Intn(200), dict.ID(6+rng.Intn(20)))
			b := NewBuilder(o).WithBlockSize(block)
			for _, tr := range data {
				b.Add(tr)
			}
			sn := b.Build().Snapshot()
			perm := o.perm()
			idx := dedupSorted(sortedBy(data, perm))
			for si, seq := range seekProbes(rng, idx, perm, block) {
				var h Hint
				for pi, p := range seq {
					name := fmt.Sprintf("order %v block %d sequence %d probe %d %+v", o, block, si, pi, p)
					path := choosePath(sn.orders, maskOf(p))
					wantLo, wantHi := refRange(idx, perm, path.prefix, p)
					if lo, hi := sn.seek(p, &h); lo != wantLo || hi != wantHi {
						t.Fatalf("%s: hinted seek = [%d,%d), linear walk [%d,%d)", name, lo, hi, wantLo, wantHi)
					}
					if lo, hi := sn.seek(p, &Hint{}); lo != wantLo || hi != wantHi {
						t.Fatalf("%s: cold seek = [%d,%d), linear walk [%d,%d)", name, lo, hi, wantLo, wantHi)
					}
					if !path.covered {
						if _, ok := sn.RangeFrom(p, &h); ok {
							t.Fatalf("%s: RangeFrom answered a pattern needing a residual filter", name)
						}
						continue
					}
					want := idx[wantLo:wantHi]
					hs, ok1 := sn.RangeFrom(p, &h)
					hinted := spanTriples(hs)
					cold, ok2 := sn.Range(p)
					if !ok1 || !ok2 {
						t.Fatalf("%s: range declined (hinted %v, cold %v)", name, ok1, ok2)
					}
					if len(hinted) != len(want) || len(cold) != len(want) {
						t.Fatalf("%s: RangeFrom %d / Range %d triples, want %d", name, len(hinted), len(cold), len(want))
					}
					for i := range want {
						if hinted[i] != want[i] || cold[i] != want[i] {
							t.Fatalf("%s: range[%d]: hinted %v cold %v want %v", name, i, hinted[i], cold[i], want[i])
						}
					}
				}
			}
		}
	}
}

// A hint must not carry anything from one snapshot to the next: the same
// Hint value used on a second snapshot of different contents answers for
// that snapshot.
func TestHintStartsOverOnAnotherSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := buildStore(randomTriples(rng, 300, 30)).Snapshot()
	b := buildStore(randomTriples(rng, 300, 30)).Snapshot()
	var h Hint
	for i := 0; i < 200; i++ {
		p := Pattern{S: dict.ID(rng.Intn(30) + 1)}
		sn := a
		if i%3 == 0 {
			sn = b
		}
		sp, ok := sn.RangeFrom(p, &h)
		got := spanTriples(sp)
		want, _ := sn.Range(p)
		if !ok || !reflect.DeepEqual(got, append([]Triple(nil), want...)) {
			t.Fatalf("probe %d %+v: shared hint gives %v, cold range %v", i, p, got, want)
		}
	}
}

// Range, RangeFrom, Scan and Count must agree with a model of the store —
// a sorted base, a tombstone set and an insertion-ordered delta — under
// random additions and removals, for probes inside and outside the boxes
// of the pending changes, with small blocks and with the default size.
func TestReadsAgreeWithModelUnderDeltaAndTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 12; round++ {
		const maxID = 40
		data := dedupSorted(sortedSPO(randomTriples(rng, 400, maxID)))
		for _, block := range []int{8, defaultBlockTriples} {
			b := NewBuilder().WithBlockSize(block)
			for _, tr := range data {
				b.Add(tr)
			}
			s, m := b.Build(), newModel(data)
			for i := 0; i < rng.Intn(12); i++ { // tombstones, clustered low or spread
				v := data[rng.Intn(len(data)/(1+round%3))]
				s.Remove(v)
				m.remove(v)
			}
			for i := 0; i < rng.Intn(12); i++ {
				add := Triple{S: dict.ID(rng.Intn(maxID) + 1), P: dict.ID(rng.Intn(8) + 1), O: dict.ID(rng.Intn(maxID) + 1)}
				if round%2 == 0 { // fresh terms: IDs above everything stored
					add.S += maxID
					add.O += maxID
				}
				s.Add(add)
				m.add(add)
			}
			sn := s.Snapshot()
			var h Hint
			for i := 0; i < 300; i++ {
				probe := data[rng.Intn(len(data))]
				if i%5 == 0 && len(m.delta) > 0 {
					probe = m.delta[rng.Intn(len(m.delta))]
				}
				for _, p := range allPatterns(probe) {
					want := m.scan(p)
					// The sorted range alone is the answer when no
					// tombstone hides one of its triples and no delta
					// triple matches.
					exact := !slices.ContainsFunc(m.delta, p.Matches)
					for tr, alive := range m.base {
						if !alive && p.Matches(tr) {
							exact = false
						}
					}
					if got := collectScan(sn.Scan, p); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d block %d %+v: Scan %v, model %v", round, block, p, got, want)
					}
					if got := sn.Count(p); got != len(want) {
						t.Fatalf("round %d block %d %+v: Count %d, model %d", round, block, p, got, len(want))
					}
					for name, get := range map[string]func() ([]Triple, bool){
						"Range":     func() ([]Triple, bool) { return sn.Range(p) },
						"RangeFrom": func() ([]Triple, bool) { sp, ok := sn.RangeFrom(p, &h); return spanTriples(sp), ok },
					} {
						got, ok := get()
						if !ok {
							continue
						}
						if !exact {
							t.Fatalf("round %d block %d %+v: %s answered over a matching tombstone or delta triple", round, block, p, name)
						}
						if !reflect.DeepEqual(append([]Triple(nil), got...), want) {
							t.Fatalf("round %d block %d %+v: %s %v, model %v", round, block, p, name, got, want)
						}
					}
					// Outside both boxes the range must survive.
					if choosePath(sn.orders, maskOf(p)).covered && !sn.deadBox.mayMatch(p) && !sn.deltaBox.mayMatch(p) {
						if _, ok := sn.Range(p); !ok {
							t.Fatalf("round %d block %d %+v: Range declined outside the delta and tombstone boxes", round, block, p)
						}
					}
				}
			}
		}
	}
}

func sortedSPO(ts []Triple) []Triple { return sortedBy(ts, OrderSPO.perm()) }

func sortedBy(ts []Triple, perm [3]int) []Triple {
	out := append([]Triple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return less(perm, out[i], out[j]) })
	return out
}

// BenchmarkProbeWithDelta measures one bound-subject probe of a bind-join
// against a compacted store, against the same store with 200 pending
// additions of fresh terms, and with 200 tombstones of fresh terms: the
// boxes must keep all three on the zero-copy range.
func BenchmarkProbeWithDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	const maxID = 20000
	data := randomTriples(rng, 80000, maxID)
	fresh := make([]Triple, 200)
	for i := range fresh {
		fresh[i] = Triple{S: dict.ID(maxID + 1 + i), P: 9, O: dict.ID(maxID + 1 + i%20)}
	}
	build := func() *Store {
		bl := NewBuilder()
		for _, tr := range data {
			bl.Add(tr)
		}
		return bl.Build()
	}
	probes := make([]Pattern, 4096)
	for i := range probes {
		probes[i] = Pattern{S: dict.ID(rng.Intn(maxID) + 1)}
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i].S < probes[j].S })
	for _, c := range []struct {
		name  string
		store func() *Store
	}{
		{"compacted", build},
		{"delta200", func() *Store {
			s := build()
			for _, tr := range fresh {
				s.Add(tr)
			}
			return s
		}},
		{"tombstones200", func() *Store {
			s := build()
			for _, tr := range fresh {
				s.Add(tr)
			}
			s.Compact()
			for _, tr := range fresh {
				s.Remove(tr)
			}
			return s
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			sn := c.store().Snapshot()
			defer sn.Release()
			var h Hint
			ranged, n := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts, ok := sn.RangeFrom(probes[i%len(probes)], &h)
				if ok {
					ranged++
				}
				n += ts.Len()
			}
			b.ReportMetric(float64(ranged)/float64(b.N), "range_ok_share")
			sinkInt = n
		})
	}
}

var sinkInt int
