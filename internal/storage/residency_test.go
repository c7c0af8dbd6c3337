package storage

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dict"
)

// residencyStore builds a store with more than 512 blocks per order (16
// triples per block), beside its model, and the sorted distinct data.
func residencyStore(t *testing.T) (*Store, *model) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	data := randomTriples(rng, 12000, 3000)
	b := NewBuilder().WithBlockSize(16)
	for _, tr := range data {
		b.Add(tr)
	}
	s := b.Build()
	for _, o := range s.orders {
		if n := len(s.indexes[o].blocks); n <= 512 {
			t.Fatalf("order %v has %d blocks; the test needs more than 512", o, n)
		}
	}
	return s, newModel(data)
}

// blockProbes returns, per order, one pattern per block: the block's
// first triple bound on the order's first two sort positions, ascending.
// Each range holds its block's first triple, so walking every range
// touches every block, and the wide ones cross many blocks.
func blockProbes(s *Store) map[Order][]Pattern {
	out := make(map[Order][]Pattern)
	for _, o := range s.orders {
		for _, fb := range s.indexes[o].blocks {
			out[o] = append(out[o], prefix2(fenceTriple(fb, o.perm()), o.perm()))
		}
	}
	return out
}

// prefix2 binds t's values at the first two sort positions of perm.
func prefix2(t Triple, perm [3]int) Pattern {
	k, want := key(t), [3]dict.ID{}
	want[perm[0]], want[perm[1]] = k[perm[0]], k[perm[1]]
	return Pattern{S: want[0], P: want[1], O: want[2]}
}

// answers is the model's answer to every pattern binding the first two
// sort positions of o: its live triples in o's order, cut into runs.
func answers(m *model, o Order) map[Pattern][]Triple {
	live := m.live()
	sortByOrder(live, o.perm())
	out := make(map[Pattern][]Triple)
	for _, tr := range live {
		p := prefix2(tr, o.perm())
		out[p] = append(out[p], tr)
	}
	return out
}

// TestSpansSurviveConcurrentCompact walks multi-block ranges on pinned
// snapshots while a writer adds, removes and compacts triples of a
// property no probe names, so every compaction installs a new generation
// with shifted blocks under the readers' feet and every answer still
// equals the model of the loaded data. Run it under -race.
func TestSpansSurviveConcurrentCompact(t *testing.T) {
	s, m := residencyStore(t)
	pos := answers(m, OrderPOS)
	probes := blockProbes(s)[OrderPOS]
	probes = append(probes, Pattern{P: 1}, Pattern{P: 5}) // ~1,500 triples: ~90 blocks each
	want := make([][]Triple, len(probes))
	for i, p := range probes {
		if want[i] = pos[p]; p.O == dict.None {
			want[i] = m.scan(p)
		}
	}
	consts := []dict.ID{1, 700, 1400, 2100, 2800}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				sn := s.Snapshot()
				var h Hint
				for k := 0; k < 50; k++ {
					i := rng.Intn(len(probes))
					sp, ok := sn.RangeFrom(probes[i], &h)
					if got := spanTriples(sp); !ok || !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%+v: RangeFrom %d triples (ok %v), model %d", probes[i], len(got), ok, len(want[i]))
					}
				}
				ranges, ok := sn.MultiRange(Pattern{P: 1}, 2, consts, nil, nil)
				for i, c := range consts {
					if !ok {
						t.Errorf("MultiRange declined property 1")
						break
					}
					if got, w := spanTriples(ranges[i]), pos[Pattern{P: 1, O: c}]; !reflect.DeepEqual(got, w) {
						t.Errorf("MultiRange P=1 O=%d: %v, model %v", c, got, w)
					}
				}
				sn.Release()
				select {
				case <-done:
					return
				default:
				}
			}
		}(int64(r))
	}
	wrng := rand.New(rand.NewSource(62))
	var extra []Triple
	for round := 0; round < 20; round++ {
		for i := 0; i < 200; i++ {
			tr := Triple{S: dict.ID(wrng.Intn(3000) + 1), P: 100, O: dict.ID(wrng.Intn(3000) + 1)}
			if s.Add(tr) {
				extra = append(extra, tr)
			}
		}
		s.Compact()
		for _, tr := range extra[:len(extra)/2] {
			s.Remove(tr)
		}
		extra = extra[len(extra)/2:]
		s.Compact()
	}
	close(done)
	wg.Wait()
}
