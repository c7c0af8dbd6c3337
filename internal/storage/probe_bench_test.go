package storage_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/storage"
)

// BenchmarkProbe measures one bind-join probe (RangeFrom with the site's
// hint carried along) on the LUBM small store in its frozen
// representation: bound-subject and bound-predicate-object patterns drawn
// from the stored triples, issued in ascending key order — what a scan in
// index order feeds the next depth — and shuffled. ns/op is ns per probe.
func BenchmarkProbe(b *testing.B) {
	db, err := benchkit.BuildLUBM(benchkit.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	if !db.Raw.Footprint().Compressed {
		b.Fatal("the small store is not frozen")
	}
	var subjects, pairs []storage.Pattern
	i := 0
	db.Raw.Each(func(t storage.Triple) bool {
		if i++; i%16 == 0 {
			subjects = append(subjects, storage.Pattern{S: t.S})
			pairs = append(pairs, storage.Pattern{P: t.P, O: t.O})
		}
		return true
	})
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].P != pairs[j].P {
			return pairs[i].P < pairs[j].P
		}
		return pairs[i].O < pairs[j].O
	})
	shuffled := func(ps []storage.Pattern) []storage.Pattern {
		out := append([]storage.Pattern(nil), ps...)
		rand.New(rand.NewSource(1)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	sn := db.Raw.Snapshot()
	defer sn.Release()
	for _, c := range []struct {
		name   string
		probes []storage.Pattern
	}{
		{"subject/monotone", subjects},
		{"subject/shuffled", shuffled(subjects)},
		{"predicate-object/monotone", pairs},
		{"predicate-object/shuffled", shuffled(pairs)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var h storage.Hint
			n := 0
			for i := 0; i < b.N; i++ {
				ts, ok := sn.RangeFrom(c.probes[i%len(c.probes)], &h)
				if !ok {
					b.Fatalf("probe %+v declined", c.probes[i%len(c.probes)])
				}
				n += len(ts)
			}
			if n == 0 {
				b.Fatal("probes found nothing")
			}
		})
	}
}
