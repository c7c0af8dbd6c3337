package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
)

// goldenParams stands in for calibration, which times the machine: one
// fixed parameterization per profile, different enough that the four
// profiles price covers differently.
func goldenParams(prof engine.Profile) cost.Params {
	p := cost.DefaultParams
	switch prof.Name {
	case engine.DB2Like.Name:
		p.CT, p.CJ, p.CM = 2, 3, 1.5
	case engine.PostgresLike.Name:
		p.CT, p.CL, p.CDB = 0.5, 4, 20_000
	case engine.MySQLLike.Name:
		p.CJ, p.CM = 0.25, 6
	}
	p.NestedLoopArmJoin = prof.ArmJoin == engine.NestedLoopJoin
	return p
}

// The covers ECov and GCov choose on the 28 tiny-scale LUBM queries under
// every profile and both cost sources, with their estimated cost to nine
// significant digits and the covers explored, are pinned by
// testdata/covers.golden: a change to how fragments are priced that is
// meant to be a pure speed-up must leave every line as it is. The
// EngineInternal rows (Figure 9's source) are marked "engine" and also pin
// whether the search was exhaustive.
func TestChosenCoversGolden(t *testing.T) {
	db, err := benchkit.BuildLUBM(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	// One block per (cost source, profile), searched in parallel and
	// joined in this fixed order.
	type block struct {
		name string
		src  core.CostSource
		prof engine.Profile
		text strings.Builder
	}
	var blocks []*block
	for _, src := range []core.CostSource{core.OwnModel, core.EngineInternal} {
		for _, prof := range append(engine.Profiles(), engine.Native) {
			name := "own/" + prof.Name
			if src == core.EngineInternal {
				name = "engine/" + prof.Name
			}
			blocks = append(blocks, &block{name: name, src: src, prof: prof})
		}
	}
	t.Run("blocks", func(t *testing.T) {
		for _, bl := range blocks {
			t.Run(bl.name, func(t *testing.T) {
				t.Parallel()
				src, prof, b := bl.src, bl.prof, &bl.text
				a := db.Answerer(prof, core.Options{Params: goldenParams(prof), Source: src})
				for _, strat := range []core.Strategy{core.ECov, core.GCov} {
					for qi, spec := range db.Specs {
						c, rep, err := a.ChooseCover(db.Encoded[qi], strat)
						if err != nil {
							t.Fatalf("%s %s %s: %v", prof.Name, strat, spec.Name, err)
						}
						if src == core.OwnModel {
							fmt.Fprintf(b, "%s %s %s %s %.9g %d\n", prof.Name, strat, spec.Name, c.Key(), rep.EstimatedCost, rep.CoversExplored)
							continue
						}
						fmt.Fprintf(b, "%s %s %s engine %s %.9g %d exhaustive=%v\n", prof.Name, strat, spec.Name, c.Key(), rep.EstimatedCost, rep.CoversExplored, rep.Exhaustive)
					}
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	var b strings.Builder
	for _, bl := range blocks {
		b.WriteString(bl.text.String())
	}
	got := b.String()
	path := filepath.Join("testdata", "covers.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d (rerun with -update if intended)", len(gotLines), path, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("chosen cover differs from %s (rerun with -update if intended):\n got %s\nwant %s", path, gotLines[i], wantLines[i])
		}
	}
}
