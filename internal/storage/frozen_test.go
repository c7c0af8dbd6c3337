package storage

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dict"
)

// buildModeled builds a store with deliberately tiny blocks, so every
// lookup crosses block boundaries, beside the model that specifies it.
func buildModeled(rng *rand.Rand, n int, maxID dict.ID, orders ...Order) (s *Store, m *model, data []Triple) {
	data = randomTriples(rng, n, maxID)
	b := NewBuilder(orders...).WithBlockSize(16).WithParallelism(4)
	for _, tr := range data {
		b.Add(tr)
	}
	s = b.Build()
	return s, newModel(data, s.Orders()...), data
}

// mutateModeled applies the same adds and removes to the store and its
// model, so the store carries a delta and tombstones.
func mutateModeled(s *Store, m *model, rng *rand.Rand, data []Triple, maxID dict.ID) {
	for i := 0; i < len(data)/5; i++ {
		victim := data[rng.Intn(len(data))]
		s.Remove(victim)
		m.remove(victim)
	}
	for i := 0; i < len(data)/5; i++ {
		add := Triple{
			S: dict.ID(rng.Intn(int(maxID)) + 1),
			P: dict.ID(rng.Intn(8) + 1),
			O: dict.ID(rng.Intn(int(maxID)) + 1),
		}
		s.Add(add)
		m.add(add)
	}
}

// probePatterns derives a deterministic mix of pattern shapes from the
// data: every bound-position combination, plus misses.
func probePatterns(rng *rand.Rand, data []Triple, k int) []Pattern {
	var ps []Pattern
	for i := 0; i < k; i++ {
		ps = append(ps, allPatterns(data[rng.Intn(len(data))])...)
	}
	ps = append(ps, Pattern{S: math.MaxUint32}, Pattern{P: math.MaxUint32, O: 1})
	return ps
}

func TestFrozenDifferentialStore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, orders := range [][]Order{nil, AllOrders} {
		s, m, data := buildModeled(rng, 600, 50, orders...)
		mutateModeled(s, m, rng, data, 50)
		if live := m.live(); s.Len() != len(live) {
			t.Fatalf("len: store %d, model %d", s.Len(), len(live))
		}
		for _, p := range probePatterns(rng, data, 40) {
			want := m.scan(p)
			if got := collectScan(s.Scan, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("orders %v pattern %+v: scan %v, model %v", orders, p, got, want)
			}
			if c := s.Count(p); c != len(want) {
				t.Fatalf("pattern %+v: count %d, model %d", p, c, len(want))
			}
		}
		for _, tr := range data[:80] {
			if want := len(m.scan(Pattern(tr))) == 1; s.Contains(tr) != want {
				t.Fatalf("contains(%v) = %v, model %v", tr, !want, want)
			}
		}
	}
}

func TestFrozenDifferentialSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, withMutations := range []bool{false, true} {
		s, m, data := buildModeled(rng, 600, 50)
		if withMutations {
			mutateModeled(s, m, rng, data, 50)
		}
		sn := s.Snapshot()
		for _, p := range probePatterns(rng, data, 40) {
			want := m.scan(p)
			if got := collectScan(sn.Scan, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("mut=%v pattern %+v: snapshot scan %v, model %v", withMutations, p, got, want)
			}
			if c := sn.Count(p); c != len(want) {
				t.Fatalf("pattern %+v: snapshot count %d, model %d", p, c, len(want))
			}
			r, ok := sn.Range(p)
			if !ok {
				continue
			}
			// An answered range is the exact answer, and replaying it
			// through ScanRange equals Scan — the engine's contract.
			if !reflect.DeepEqual(append([]Triple(nil), r...), want) {
				t.Fatalf("pattern %+v: range %v, model %v", p, r, want)
			}
			sp, _ := sn.RangeFrom(p, nil)
			viaRange := collectScan(func(p Pattern, f func(Triple) bool) { sn.ScanRange(sp, p, f) }, p)
			if !reflect.DeepEqual(viaRange, want) {
				t.Fatalf("pattern %+v: ScanRange(Range()) %v, want %v", p, viaRange, want)
			}
		}
		sn.Release()
	}
}

func TestFrozenDifferentialMultiRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, m, data := buildModeled(rng, 900, 60)
	sn := s.Snapshot()
	defer sn.Release()

	families := []struct {
		g    Pattern
		vpos int
		ok   bool
	}{
		{Pattern{}, 0, true},                           // vary S over the SPO index
		{Pattern{P: data[0].P}, 2, true},               // vary O over the POS index
		{Pattern{S: data[1].S, P: data[1].P}, 2, true}, // fully bound members
		{Pattern{O: data[2].O}, 0, true},               // vary S over the OSP index
		{Pattern{P: data[3].P}, 0, false},              // wrong vpos: must decline
	}
	for fi, fam := range families {
		var consts []dict.ID
		for i := 0; i < 12; i++ {
			consts = append(consts, dict.ID(rng.Intn(60)+1))
		}
		consts = append(consts, consts[len(consts)-1]) // equal repeat
		sortIDs(consts)
		ranges, ok := sn.MultiRange(fam.g, fam.vpos, consts, nil, nil)
		if ok != fam.ok {
			t.Fatalf("family %d: ok=%v, want %v", fi, ok, fam.ok)
		}
		if !ok {
			continue
		}
		if len(ranges) != len(consts) {
			t.Fatalf("family %d: %d ranges for %d constants", fi, len(ranges), len(consts))
		}
		for i, c := range consts {
			want := m.scan(withPos(fam.g, fam.vpos, c))
			if !reflect.DeepEqual(spanTriples(ranges[i]), want) {
				t.Fatalf("family %d range %d: %v, model %v", fi, i, ranges[i], want)
			}
		}
	}
}

func sortIDs(ids []dict.ID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// TestFrozenSnapshotIsolationAcrossCompact pins a snapshot of a store,
// mutates and compacts the store (which replaces the whole frozen
// generation), and checks the snapshot still answers from the old
// generation, exactly as the model taken at the same point specifies.
func TestFrozenSnapshotIsolationAcrossCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, m, data := buildModeled(rng, 600, 50)
	mutateModeled(s, m, rng, data, 50)
	sn, pinned := s.Snapshot(), m.clone()
	defer sn.Release()

	// Mutate past the snapshot and fold everything — the store
	// re-encodes every block.
	mutateModeled(s, m, rng, data, 50)
	s.Compact()
	m.compact()
	mutateModeled(s, m, rng, data, 50)

	for _, p := range probePatterns(rng, data, 30) {
		if got, want := collectScan(sn.Scan, p), pinned.scan(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %+v after compact: snapshot scan %v, want %v", p, got, want)
		}
	}
	// And the live store agrees with its model post-compaction.
	for _, p := range probePatterns(rng, data, 30) {
		if got, want := collectScan(s.Scan, p), m.scan(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %+v: live store %v after compact, model %v", p, got, want)
		}
	}
}

// TestLoaderParallelismEquivalence proves the concurrent per-order builds
// and strided block packing produce byte-identical indexes to the serial
// path, over an input that spans dozens of blocks per order.
func TestLoaderParallelismEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randomTriples(rng, 40000, 2000)
	mk := func(par int) *Store {
		b := NewBuilder(AllOrders...).WithParallelism(par)
		for _, tr := range data {
			b.Add(tr)
		}
		return b.Build()
	}
	serial, parallel := mk(1), mk(8)
	for _, o := range AllOrders {
		a, b := serial.indexes[o], parallel.indexes[o]
		if len(a.blocks) < 32 {
			t.Fatalf("order %v: %d blocks, want the input to span at least 32", o, len(a.blocks))
		}
		if a.n != b.n || len(a.blocks) != len(b.blocks) || len(a.data) != len(b.data) {
			t.Fatalf("order %v: shape differs (%d/%d blocks, %d/%d bytes)", o, len(a.blocks), len(b.blocks), len(a.data), len(b.data))
		}
		if !reflect.DeepEqual(a.data, b.data) {
			t.Fatalf("order %v: payloads differ between par=1 and par=8", o)
		}
		for i := range a.blocks {
			if a.blocks[i] != b.blocks[i] {
				t.Fatalf("order %v block %d differs between par=1 and par=8", o, i)
			}
		}
	}
}

// TestEncodeBlockRoundTrip exercises the packer on edge shapes: single
// triples, maximal IDs (32-bit widths), constant columns (0-bit widths),
// long runs, descending later columns, and blocks cut at every size from
// one row up, read back through the seek-free whole-index read.
func TestEncodeBlockRoundTrip(t *testing.T) {
	cases := [][]Triple{
		{{S: 1, P: 1, O: 1}},
		{{S: math.MaxUint32, P: math.MaxUint32, O: math.MaxUint32}},
		{{S: 1, P: 1, O: 1}, {S: 1, P: 1, O: math.MaxUint32}, {S: 1, P: 2, O: 1}, {S: math.MaxUint32, P: 1, O: 5}},
		// One long run with the third column restarting downward.
		{{S: 7, P: 1, O: 900}, {S: 7, P: 2, O: 3}, {S: 7, P: 3, O: 2}, {S: 7, P: 3, O: 1000}},
	}
	rng := rand.New(rand.NewSource(3))
	big := randomTriples(rng, 1024, 30)
	sortByOrder(big, OrderSPO.perm())
	big = dedupSorted(big)
	cases = append(cases, big)

	for _, o := range []Order{OrderSPO, OrderPOS, OrderOSP} {
		for ci, ts := range cases {
			in := append([]Triple{}, ts...)
			sortByOrder(in, o.perm())
			for _, bt := range []int{1, 3, 128, len(in)} {
				fi := buildFrozenIndex(in, o, bt, make(gate, 2))
				out := make([]Triple, len(in))
				fi.readRange(0, out)
				if !reflect.DeepEqual(out, in) {
					t.Fatalf("case %d order %v block %d: round trip mismatch", ci, o, bt)
				}
			}
		}
	}
}

// TestFrozenViewRelease checks that releasing a snapshot is idempotent,
// is observable, and leaves the store and later snapshots readable: a
// snapshot pins nothing that Release would have to give back.
func TestFrozenViewRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s, m, data := buildModeled(rng, 400, 40)
	sn := s.Snapshot()
	for _, tr := range data[:20] {
		sn.Scan(Pattern{S: tr.S}, func(Triple) bool { return true })
		sn.Range(Pattern{P: tr.P})
	}
	sn.Release()
	sn.Release() // idempotent
	if !sn.Released() {
		t.Fatalf("Released() = false after Release")
	}
	next := s.Snapshot()
	defer next.Release()
	for _, tr := range data[:20] {
		p := Pattern{P: tr.P}
		if got, want := collectScan(next.Scan, p), m.scan(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v after an earlier snapshot's release: %d triples, model %d", p, len(got), len(want))
		}
	}
}

// TestFrozenRangeDeclinesWideSpans builds a store wider than the span
// cap and checks Range declines the unbounded pattern while Scan still
// streams it, so the engine's fallback path stays correct.
func TestFrozenRangeDeclinesWideSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	b := NewBuilder()
	seen := 0
	for seen < maxSpanTriples+500 {
		b.Add(Triple{
			S: dict.ID(rng.Intn(1 << 20)),
			P: dict.ID(rng.Intn(8) + 1),
			O: dict.ID(rng.Intn(1 << 20)),
		})
		seen++
	}
	s := b.Build()
	sn := s.Snapshot()
	defer sn.Release()
	if _, ok := sn.Range(Pattern{}); ok {
		t.Fatalf("Range should decline a %d-triple span", s.Len())
	}
	n := 0
	sn.Scan(Pattern{}, func(Triple) bool { n++; return true })
	if n != s.Len() {
		t.Fatalf("Scan streamed %d of %d", n, s.Len())
	}
}

// TestEachMatchesTriples checks the streaming iterator: same order and
// contents as Triples and the model, early stop honored, for the default
// orders and for a store asked for without SPO (which the builder adds).
func TestEachMatchesTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, orders := range [][]Order{nil, {OrderPOS, OrderOSP}} {
		s, m, data := buildModeled(rng, 500, 40, orders...)
		mutateModeled(s, m, rng, data, 40)
		want := s.Triples()
		if live := m.live(); !reflect.DeepEqual(want, live) {
			t.Fatalf("orders %v: Triples %d triples, model %d", orders, len(want), len(live))
		}
		var got []Triple
		s.Each(func(tr Triple) bool { got = append(got, tr); return true })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("orders %v: Each != Triples (%d vs %d triples)", orders, len(got), len(want))
		}
		n := 0
		s.Each(func(Triple) bool { n++; return n < 10 })
		if n != 10 {
			t.Fatalf("early stop: visited %d, want 10", n)
		}
	}
}

// TestFootprint sanity-checks the resident-size report of a realistic
// store: every part filled, and the packed payload well under the 12
// bytes per triple per order of a sorted []Triple array.
func TestFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s, m, _ := buildModeled(rng, 5000, 400)
	fp := s.Footprint()
	if fp.Triples != len(m.live()) || fp.Orders != len(DefaultOrders) {
		t.Fatalf("footprint counts wrong: %+v, want %d triples", fp, len(m.live()))
	}
	if fp.BlockBytes == 0 || fp.Blocks == 0 || fp.DirBytes != fp.Blocks*fblockDirBytes {
		t.Fatalf("footprint sizes wrong: %+v", fp)
	}
	if payload, dir := residentIndexBytes(s); fp.IndexBytes() != payload+dir {
		t.Fatalf("IndexBytes %d, but the payloads hold %d B of capacity and the directories %d", fp.IndexBytes(), payload, dir)
	}
	// Tiny 16-triple test blocks carry heavy directory overhead; compare
	// payload alone, which must beat 12 bytes/triple/order comfortably.
	if flat := fp.Triples * fp.Orders * 12; fp.BlockBytes*3 > flat {
		t.Fatalf("compression too weak: %d block bytes vs %d as arrays", fp.BlockBytes, flat)
	}
}

// residentIndexBytes sums what the store's indexes hold: the capacity of
// every payload arena and of every fence directory.
func residentIndexBytes(s *Store) (payload, dir int) {
	for _, o := range s.orders {
		fi := s.indexes[o]
		payload += cap(fi.data)
		dir += cap(fi.blocks) * fblockDirBytes
	}
	return payload, dir
}

// fenceTriple returns a block's first triple from its fence key.
func fenceTriple(fb fblock, perm [3]int) Triple {
	var k [3]dict.ID
	for c, pos := range perm {
		k[pos] = fb.fence[c]
	}
	return Triple{S: k[0], P: k[1], O: k[2]}
}

// Payload arenas and directories are sized exactly — their capacity is
// their length — after Build, after a Compact that folds in a delta, and
// after Freeze, so Footprint counts every byte the indexes keep.
func TestPayloadsExactlySized(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	b := NewBuilder().WithBlockSize(64)
	for _, tr := range randomTriples(rng, 4000, 300) {
		b.Add(tr)
	}
	s := b.Build()
	check := func(state string) {
		t.Helper()
		payload, _ := residentIndexBytes(s)
		if fp := s.Footprint(); payload != fp.BlockBytes {
			t.Errorf("%s: payloads hold %d B of capacity for %d B of data", state, payload, fp.BlockBytes)
		}
	}
	check("after Build")
	for _, tr := range randomTriples(rng, 500, 300) {
		s.Add(tr)
	}
	s.Remove(fenceTriple(s.indexes[OrderSPO].blocks[0], OrderSPO.perm()))
	s.Compact()
	check("after Compact")
	s.Add(Triple{S: 301, P: 301, O: 301})
	s.Freeze()
	check("after Freeze")
}

// TestFrozenConcurrentScansRaceLoader is the -race stress test: snapshot
// scans and live-store reads race Add/Remove/Compact — the bulk-loader
// path that swaps whole frozen generations.
func TestFrozenConcurrentScansRaceLoader(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	data := randomTriples(rng, 3000, 200)
	b := NewBuilder().WithBlockSize(64)
	for _, tr := range data {
		b.Add(tr)
	}
	s := b.Build()

	const readers = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				sn := s.Snapshot()
				p := allPatterns(data[rng.Intn(len(data))])[rng.Intn(8)]
				n := 0
				sn.Scan(p, func(Triple) bool { n++; return true })
				if c := sn.Count(p); c != n {
					t.Errorf("snapshot count %d != scanned %d", c, n)
				}
				if sub, ok := sn.Range(p); ok {
					for range sub {
					}
				}
				sn.Release()
			}
		}(int64(r))
	}
	wrng := rand.New(rand.NewSource(202))
	for i := 0; i < 200; i++ {
		switch i % 10 {
		case 9:
			s.Compact()
		case 8:
			s.Remove(data[wrng.Intn(len(data))])
		default:
			s.Add(Triple{
				S: dict.ID(wrng.Intn(200) + 1),
				P: dict.ID(wrng.Intn(8) + 1),
				O: dict.ID(wrng.Intn(200) + 1),
			})
		}
	}
	close(done)
	wg.Wait()
}
