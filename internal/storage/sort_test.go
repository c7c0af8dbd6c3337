package storage

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dict"
)

// refSort is the comparison sort the radix sort must agree with.
func refSort(ts []Triple, perm [3]int) {
	slices.SortFunc(ts, func(a, b Triple) int {
		switch {
		case less(perm, a, b):
			return -1
		case less(perm, b, a):
			return 1
		}
		return 0
	})
}

// checkSorted radix-sorts a copy of ts by every order and compares it
// with refSort; it also checks that every order derived from the SPO
// sort by its spoPrefix columns equals the full sort.
func checkSorted(t *testing.T, name string, ts []Triple) {
	t.Helper()
	spo := slices.Clone(ts)
	sortByOrder(spo, OrderSPO.perm())
	for _, o := range AllOrders {
		perm := o.perm()
		want := slices.Clone(ts)
		refSort(want, perm)
		got := slices.Clone(ts)
		sortByOrder(got, perm)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, order %v (n=%d): radix sort differs from the comparison sort", name, o, len(ts))
		}
		derived := slices.Clone(spo)
		sortPrefix(derived, perm, spoPrefix(perm))
		if !reflect.DeepEqual(derived, want) {
			t.Fatalf("%s, order %v (n=%d): re-sorting the SPO order by %d columns differs from the full sort", name, o, len(ts), spoPrefix(perm))
		}
	}
}

// TestSortByOrderMatchesComparisonSort checks the radix sort against
// slices.SortFunc over less on every order, at sizes around the 256-wide
// digit and past 64Ki, on IDs that use every byte (0 and MaxUint32
// included), on columns where every key agrees (so every digit of that
// column is skipped) and on heavy duplication.
func TestSortByOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wide := func() dict.ID {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.MaxUint32
		}
		return dict.ID(rng.Uint32())
	}
	for _, n := range []int{0, 1, 2, 255, 256, 257, 1<<16 + 3} {
		ts := make([]Triple, n)
		for i := range ts {
			ts[i] = Triple{S: wide(), P: wide(), O: wide()}
		}
		checkSorted(t, "wide IDs", ts)
	}

	// Every key agrees on every digit, or on one column's.
	same := make([]Triple, 300)
	for i := range same {
		same[i] = Triple{S: 0x01020304, P: 0x01020304, O: 0x01020304}
	}
	checkSorted(t, "all equal", same)
	for pos := 0; pos < 3; pos++ {
		ts := make([]Triple, 300)
		for i := range ts {
			k := [3]dict.ID{wide(), wide(), wide()}
			k[pos] = math.MaxUint32
			ts[i] = Triple{S: k[0], P: k[1], O: k[2]}
		}
		checkSorted(t, "one constant column", ts)
	}

	// Duplicates: few distinct triples, each repeated many times.
	dup := make([]Triple, 5000)
	for i := range dup {
		dup[i] = Triple{S: dict.ID(rng.Intn(3)), P: dict.ID(rng.Intn(2) << 20), O: dict.ID(rng.Intn(3) << 8)}
	}
	checkSorted(t, "duplicates", dup)

	// Small IDs (one or two live bytes per column), like a dictionary's.
	small := randomTriples(rng, 20000, 30000)
	checkSorted(t, "small IDs", small)
}

func TestSpoPrefix(t *testing.T) {
	want := map[Order]int{OrderSPO: 0, OrderPOS: 2, OrderOSP: 1, OrderSOP: 2, OrderPSO: 1, OrderOPS: 2}
	for o, k := range want {
		if got := spoPrefix(o.perm()); got != k {
			t.Errorf("spoPrefix(%v) = %d, want %d", o, got, k)
		}
	}
}

// FuzzSortByOrder reads the input as 12-byte triples (three little-endian
// IDs) and checks the radix sort against the comparison sort on every
// order.
func FuzzSortByOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00"))
	f.Add([]byte("\xff\xff\xff\xff\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := make([]Triple, len(data)/12)
		for i := range ts {
			b := data[12*i:]
			ts[i] = Triple{
				S: dict.ID(binary.LittleEndian.Uint32(b)),
				P: dict.ID(binary.LittleEndian.Uint32(b[4:])),
				O: dict.ID(binary.LittleEndian.Uint32(b[8:])),
			}
		}
		checkSorted(t, "fuzz", ts)
	})
}
