package benchkit

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/storage"
)

// mediumSlice is a slice of the medium scale (same full-size LUBM
// config, fewer universities) sized so the CI smoke test below loads a
// genuinely multi-block dataset in about a second.
var mediumSlice = Scale{Name: "medium-slice", LUBMUnivs: 2, LUBMConfig: lubm.Default(), DBLPPubs: 500}

// TestMeasureLoadTiny loads the tiny LUBM profile through the bulk
// loader with two workers and serially, and checks that both hold the
// same triples and that the footprint is filled.
func TestMeasureLoadTiny(t *testing.T) {
	skipUnderRace(t)
	db, err := BuildLUBM(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if db.Raw.Len() == 0 {
		t.Fatal("tiny LUBM built no triples")
	}
	par := rebuild(db.Raw, 2)
	fp := par.Footprint()
	if fp.Blocks <= 0 || fp.BytesPerTriple() <= 0 {
		t.Errorf("footprint not filled: %+v", fp)
	}
	if serial := rebuild(db.Raw, 1); !equalStores(serial, par) || !equalStores(db.Raw, par) {
		t.Error("parallel and serial builds differ")
	}
}

// rebuild streams src into a new store built with the given loader
// parallelism.
func rebuild(src *storage.Store, par int) *storage.Store {
	b := storage.NewBuilder().WithParallelism(par)
	src.Each(func(tr storage.Triple) bool {
		b.Add(tr)
		return true
	})
	return b.Build()
}

// The CI smoke test: even in -short mode, load a medium-scale LUBM
// slice (full-size university config) through the parallel bulk
// loader, cross-check it against the serial build, and answer a query
// over it. This is the cheapest end-to-end proof that
// the block-columnar path holds up beyond the tiny test profile.
func TestMediumSliceLoadSmoke(t *testing.T) {
	skipUnderRace(t)
	db, err := BuildLUBM(mediumSlice)
	if err != nil {
		t.Fatal(err)
	}
	if db.Raw.Len() < 100_000 {
		t.Fatalf("medium slice too small to be meaningful: %d triples", db.Raw.Len())
	}

	par := rebuild(db.Raw, 4)
	fp := par.Footprint()
	if fp.Blocks == 0 {
		t.Fatalf("slice built no blocks: %+v", fp)
	}
	if fp.BytesPerTriple() >= 12 {
		t.Errorf("compressed footprint %.2f B/triple is no better than one []Triple order", fp.BytesPerTriple())
	}
	if !equalStores(db.Raw, par) {
		t.Fatal("parallel slice build differs from the raw store")
	}
	if serial := rebuild(db.Raw, 1); !equalStores(serial, par) {
		t.Fatal("parallel slice build differs from the serial build")
	}

	a := db.Answerer(engine.Native, core.Options{})
	out := db.Run(a, db.QueryIndex("Q01"), core.GCov)
	if out.Failed() {
		t.Fatalf("Q01 over the medium slice failed: %v", out.Err)
	}
	if out.Rows == 0 {
		t.Error("Q01 over the medium slice returned no rows")
	}
}

// equalStores cross-checks two stores built from the same stream: equal
// length, equal FNV-1a hash over a full streamed pass (order-sensitive,
// both stream in SPO order), and equal counts for every bound-position
// combination of sampled triples.
func equalStores(a, b *storage.Store) bool {
	if a.Len() != b.Len() {
		return false
	}
	if storeHash(a) != storeHash(b) {
		return false
	}
	ok := true
	i := 0
	a.Each(func(t storage.Triple) bool {
		i++
		if i%997 != 0 {
			return true
		}
		for mask := 0; mask < 8; mask++ {
			p := storage.Pattern{}
			if mask&1 != 0 {
				p.S = t.S
			}
			if mask&2 != 0 {
				p.P = t.P
			}
			if mask&4 != 0 {
				p.O = t.O
			}
			if a.Count(p) != b.Count(p) {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// storeHash hashes the full triple stream of the store (FNV-1a over the
// ID words, the same mixing the schema stamp uses).
func storeHash(s *storage.Store) uint64 {
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	s.Each(func(t storage.Triple) bool {
		mix(uint64(t.S))
		mix(uint64(t.P))
		mix(uint64(t.O))
		return true
	})
	return h
}
