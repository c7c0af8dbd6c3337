package storage_test

import (
	"testing"

	"repro/internal/benchkit"
)

// maxSmallBytesPerTriple bounds the at-rest index of the LUBM small store
// — payloads, tail padding and block headers over the three default
// orders — so a packing regression fails the ordinary test run. The
// packed index takes 9.04 B per triple there (EXPERIMENTS.md, "Bit-packed
// blocks").
const maxSmallBytesPerTriple = 9.2

func TestLUBMSmallIndexBytesPerTriple(t *testing.T) {
	db, err := benchkit.BuildLUBM(benchkit.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	fp := db.Raw.Footprint()
	if got := fp.BytesPerTriple(); got > maxSmallBytesPerTriple {
		t.Fatalf("LUBM small index: %.3f B/triple (%d payload + %d header bytes over %d triples), want at most %.1f",
			got, fp.BlockBytes, fp.DirBytes, fp.Triples, maxSmallBytesPerTriple)
	}
	t.Logf("LUBM small index: %.3f B/triple over %d triples in %d blocks", fp.BytesPerTriple(), fp.Triples, fp.Blocks)
}
