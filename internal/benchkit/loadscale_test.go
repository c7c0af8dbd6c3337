package benchkit

import (
	"bytes"
	"encoding/json"
	"strings"
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

func TestMeasureLoadTiny(t *testing.T) {
	skipUnderRace(t)
	rep, err := MeasureLoad(ScaleTiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "LUBM" || rep.Scale != "tiny" {
		t.Errorf("labels wrong: %+v", rep)
	}
	if rep.Triples == 0 || rep.TriplesPerSec <= 0 || rep.FlatTriplesPerSec <= 0 {
		t.Errorf("throughput not filled: %+v", rep)
	}
	if rep.CompressedBytes <= 0 || rep.CompressedBlocks <= 0 || rep.BytesPerTriple <= 0 {
		t.Errorf("footprint not filled: %+v", rep)
	}
	if !rep.Verified {
		t.Error("flat and compressed stores differ")
	}
}

func TestLoadSweepOutput(t *testing.T) {
	skipUnderRace(t)
	sweep, err := MeasureLoadScales([]string{"tiny"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	if err := sweep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back LoadSweep
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatalf("sweep JSON does not round-trip: %v", err)
	}
	if len(back.Runs) != 1 || back.Runs[0].Scale != "tiny" {
		t.Errorf("round-tripped sweep wrong: %+v", back)
	}
	var textBuf bytes.Buffer
	if err := sweep.WriteText(&textBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(textBuf.String(), "B/triple") || !strings.Contains(textBuf.String(), "tiny") {
		t.Errorf("text table missing columns:\n%s", textBuf.String())
	}
}

// The CI smoke test: even in -short mode, load a medium-scale LUBM
// slice (full-size university config) through the compressed parallel
// bulk loader, cross-check it against the flat representation, and
// answer a query over it. This is the cheapest end-to-end proof that
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

	b := storage.NewBuilder().WithCompression(storage.CompressionOn).WithParallelism(4)
	db.Raw.Each(func(tr storage.Triple) bool {
		b.Add(tr)
		return true
	})
	comp := b.Build()
	fp := comp.Footprint()
	if !fp.Compressed || fp.Blocks == 0 {
		t.Fatalf("slice did not build compressed: %+v", fp)
	}
	if fp.BytesPerTriple() >= 12 {
		t.Errorf("compressed footprint %.2f B/triple is no better than one flat order", fp.BytesPerTriple())
	}
	if !equalStores(db.Raw, comp) {
		t.Fatal("compressed slice differs from the raw store")
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
