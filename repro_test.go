package repro_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/dblp"
	"repro/internal/lubm"
	"repro/internal/ntriples"
	"repro/internal/rdf"
)

// lubmStore builds a frozen, saturated tiny-LUBM store.
func lubmStore(t testing.TB, nUniv int) *repro.Store {
	t.Helper()
	st := repro.NewStore()
	if err := st.AddAll(lubm.Ontology()); err != nil {
		t.Fatal(err)
	}
	lubm.Generate(nUniv, 42, lubm.Tiny(), func(tr rdf.Triple) { st.MustAdd(tr) })
	st.Saturate()
	return st
}

func dblpStore(t testing.TB, nPubs int) *repro.Store {
	t.Helper()
	st := repro.NewStore()
	if err := st.AddAll(dblp.Ontology()); err != nil {
		t.Fatal(err)
	}
	dblp.Generate(nPubs, 7, func(tr rdf.Triple) { st.MustAdd(tr) })
	st.Saturate()
	return st
}

func rowsKey(res *repro.Result) string {
	keys := make([]string, res.NumRows())
	for i, row := range res.Rows() {
		var b strings.Builder
		for _, term := range row {
			b.WriteString(term.Canonical())
			b.WriteByte('|')
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// All 28 LUBM queries must return identical answers under every strategy
// on the Native profile.
func TestLUBMStrategiesAgree(t *testing.T) {
	st := lubmStore(t, 1)
	a := st.NewAnswerer(repro.Native, repro.Options{})
	for _, spec := range lubm.Queries() {
		var want string
		for i, strat := range []repro.Strategy{repro.Saturation, repro.GCov, repro.SCQ, repro.ECov, repro.UCQ} {
			res, err := a.Query(spec.Text, strat)
			if err != nil {
				t.Fatalf("%s via %s: %v", spec.Name, strat, err)
			}
			k := rowsKey(res)
			if i == 0 {
				want = k
				if res.NumRows() == 0 {
					t.Logf("note: %s returns no rows on the tiny dataset", spec.Name)
				}
				continue
			}
			if k != want {
				t.Errorf("%s: %s answers differ from saturation (%d rows vs %d)",
					spec.Name, strat, res.NumRows(), strings.Count(want, "\n")+1)
			}
		}
	}
}

// All 10 DBLP queries must agree across strategies.
func TestDBLPStrategiesAgree(t *testing.T) {
	st := dblpStore(t, 400)
	a := st.NewAnswerer(repro.Native, repro.Options{})
	for _, spec := range dblp.Queries() {
		strategies := []repro.Strategy{repro.Saturation, repro.GCov, repro.SCQ}
		if spec.Name != "Q10" { // ECov's space on 10 atoms is enormous; bounded below in its own test
			strategies = append(strategies, repro.ECov)
		}
		if spec.Name != "Q08" && spec.Name != "Q10" { // huge UCQs are exercised at bench scale
			strategies = append(strategies, repro.UCQ)
		}
		var want string
		for i, strat := range strategies {
			res, err := a.Query(spec.Text, strat)
			if err != nil {
				t.Fatalf("%s via %s: %v", spec.Name, strat, err)
			}
			if i == 0 {
				want = rowsKey(res)
				continue
			}
			if rowsKey(res) != want {
				t.Errorf("%s: %s answers differ from saturation", spec.Name, strat)
			}
		}
	}
}

// The reformulation sizes of the query sets must span the paper's range:
// |q_ref| = 1 for leaf-class queries up to hundreds of thousands for the
// two-type-variable queries.
func TestReformulationSizeSpread(t *testing.T) {
	st := lubmStore(t, 1)
	a := st.NewAnswerer(repro.Native, repro.Options{})
	sizes := make(map[string]int64)
	for _, spec := range lubm.Queries() {
		rep, err := a.Explain(spec.Text, repro.UCQ)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sizes[spec.Name] = rep.TotalCQs
		t.Logf("%s: |q_ref| = %d", spec.Name, rep.TotalCQs)
	}
	if sizes["Q10"] != 1 || sizes["Q14"] != 1 {
		t.Errorf("Q10 and Q14 should have single-CQ reformulations: %d, %d", sizes["Q10"], sizes["Q14"])
	}
	if sizes["Q01"] < 500 {
		t.Errorf("Q01 (motivating example 1) |q_ref| = %d, want thousands", sizes["Q01"])
	}
	if sizes["Q02"] < 50_000 {
		t.Errorf("Q02 (motivating example 2) |q_ref| = %d, want hundreds of thousands", sizes["Q02"])
	}
	if sizes["Q28"] < 50_000 {
		t.Errorf("Q28 |q_ref| = %d, want hundreds of thousands", sizes["Q28"])
	}
}

// Store lifecycle: N-Triples round trip, freeze semantics, incremental
// additions after freeze.
func TestStoreLifecycle(t *testing.T) {
	st := repro.NewStore()
	st.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/Book"), rdf.SubClassOf, rdf.NewIRI("http://x/Pub")))
	st.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/b1"), rdf.Type, rdf.NewIRI("http://x/Book")))
	st.Freeze()
	st.Saturate()

	a := st.NewAnswerer(repro.Native, repro.Options{})
	q := `SELECT ?x WHERE { ?x rdf:type <http://x/Pub> }`
	res, err := a.Query(q, repro.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("got %d rows, want 1", res.NumRows())
	}

	// Post-freeze data addition must be visible to both strategies.
	st.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/b2"), rdf.Type, rdf.NewIRI("http://x/Book")))
	for _, strat := range []repro.Strategy{repro.GCov, repro.Saturation} {
		res, err := a.Query(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 2 {
			t.Errorf("%s sees %d rows after incremental add, want 2", strat, res.NumRows())
		}
	}

	// Post-freeze schema change must be rejected.
	err = st.Add(rdf.NewTriple(rdf.NewIRI("http://x/Pub"), rdf.SubClassOf, rdf.NewIRI("http://x/Thing")))
	if err == nil {
		t.Error("schema change after freeze accepted")
	}
}

// Footprint reports the dictionary beside the indexes, before and after
// Freeze; the dictionary grows with the terms, not with Freeze.
func TestStoreFootprint(t *testing.T) {
	st := repro.NewStore()
	empty := st.Footprint().DictBytes
	p := rdf.NewIRI("http://x/p")
	for i := 0; i < 100; i++ {
		st.MustAdd(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)), p, rdf.NewLiteral("o")))
	}
	before := st.Footprint()
	if before.DictBytes <= empty || before.Index.Triples != 0 {
		t.Fatalf("before Freeze: %+v (empty dictionary %d B), want a larger dictionary and no index", before, empty)
	}
	st.Freeze()
	after := st.Footprint()
	if after.DictBytes != before.DictBytes {
		t.Errorf("Freeze moved the dictionary's bytes %d -> %d", before.DictBytes, after.DictBytes)
	}
	if after.Index.Triples != st.NumTriples() || after.Index.IndexBytes() == 0 {
		t.Errorf("after Freeze: index %+v for %d triples", after.Index, st.NumTriples())
	}
}

// The rows Each hands out may be retained: each is its own slice, so
// writing to one, or appending to it, leaves every other unchanged. They
// are carved from shared slabs, a few allocations per 1,000 rows rather
// than one per row.
func TestResultEachRowsAreDistinct(t *testing.T) {
	const n = 3000
	st := repro.NewStore()
	p := rdf.NewIRI("http://x/p")
	for i := 0; i < n; i++ {
		st.MustAdd(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)), p, rdf.NewIRI(fmt.Sprintf("http://x/o%d", i))))
	}
	st.Freeze()
	res, err := st.NewAnswerer(repro.Native, repro.Options{}).Query(`SELECT ?x ?y WHERE { ?x <http://x/p> ?y }`, repro.GCov)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]rdf.Term
	res.Each(func(row []rdf.Term) bool {
		rows = append(rows, row)
		return true
	})
	if len(rows) != n {
		t.Fatalf("Each streamed %d rows, want %d", len(rows), n)
	}
	want := make([][]string, n)
	for i, row := range rows {
		want[i] = []string{row[0].Canonical(), row[1].Canonical()}
	}
	junk := rdf.NewIRI("http://x/overwritten")
	for i := 0; i < n; i += 7 {
		rows[i][0], rows[i][1] = junk, junk
		_ = append(rows[i], junk)
	}
	for i, row := range rows {
		if i%7 == 0 {
			continue
		}
		if len(row) != 2 || row[0].Canonical() != want[i][0] || row[1].Canonical() != want[i][1] {
			t.Fatalf("row %d = %v after writing to other rows, want %v", i, row, want[i])
		}
	}

	allocs := testing.AllocsPerRun(10, func() {
		res.Each(func([]rdf.Term) bool { return true })
	})
	if perK := allocs / (n / 1000); perK > 4 {
		t.Errorf("Each allocates %.1f objects per 1,000 two-column rows, want at most 4", perK)
	}
}

// Retracting a data triple must shrink both stores, including the
// implicit consequences that lose their last derivation.
func TestStoreRemove(t *testing.T) {
	st := repro.NewStore()
	book := rdf.NewIRI("http://x/Book")
	pub := rdf.NewIRI("http://x/Pub")
	st.MustAdd(rdf.NewTriple(book, rdf.SubClassOf, pub))
	b1 := rdf.NewIRI("http://x/b1")
	b2 := rdf.NewIRI("http://x/b2")
	st.MustAdd(rdf.NewTriple(b1, rdf.Type, book))
	st.MustAdd(rdf.NewTriple(b2, rdf.Type, book))
	st.Saturate()

	a := st.NewAnswerer(repro.Native, repro.Options{})
	q := `SELECT ?x WHERE { ?x rdf:type <http://x/Pub> }`
	for _, strat := range []repro.Strategy{repro.GCov, repro.Saturation} {
		res, err := a.Query(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 2 {
			t.Fatalf("%s: %d rows before removal, want 2", strat, res.NumRows())
		}
	}

	removed, err := st.Remove(rdf.NewTriple(b1, rdf.Type, book))
	if err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	for _, strat := range []repro.Strategy{repro.GCov, repro.Saturation} {
		res, err := a.Query(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Errorf("%s: %d rows after removal, want 1", strat, res.NumRows())
		}
	}

	// Removing an absent triple reports false; removing a constraint is
	// rejected.
	if removed, _ := st.Remove(rdf.NewTriple(b1, rdf.Type, book)); removed {
		t.Error("second removal reported success")
	}
	if _, err := st.Remove(rdf.NewTriple(book, rdf.SubClassOf, pub)); err == nil {
		t.Error("constraint removal accepted after freeze")
	}
}

// ASK queries flow through the whole stack: a boolean question that is
// true only via reasoning must be answered true by every strategy.
func TestAskQueries(t *testing.T) {
	st := lubmStore(t, 1)
	a := st.NewAnswerer(repro.Native, repro.Options{})
	yes := `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		ASK WHERE { ?x rdf:type ub:Person . ?x ub:memberOf <http://www.Department0.University0.edu> . }`
	no := `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		ASK WHERE { ?x ub:headOf <http://www.University999.edu> . }`
	for _, strat := range []repro.Strategy{repro.GCov, repro.UCQ, repro.SCQ, repro.Saturation} {
		res, err := a.Query(yes, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.Boolean() {
			t.Errorf("%s: expected true", strat)
		}
		res, err = a.Query(no, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.Boolean() {
			t.Errorf("%s: expected false", strat)
		}
	}
}

func TestLoadNTriples(t *testing.T) {
	var buf bytes.Buffer
	w := ntriples.NewWriter(&buf)
	if err := w.WriteAll(lubm.Ontology()); err != nil {
		t.Fatal(err)
	}
	st := repro.NewStore()
	n, err := st.LoadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(lubm.Ontology()) {
		t.Errorf("loaded %d statements, want %d", n, len(lubm.Ontology()))
	}
}

// Turtle input must load and answer like the equivalent N-Triples.
func TestLoadTurtle(t *testing.T) {
	src := `
		@prefix ex: <http://example.org/> .
		ex:Book rdfs:subClassOf ex:Publication .
		ex:doi1 a ex:Book ;
		        ex:title "Game of Thrones" .
	`
	st := repro.NewStore()
	n, err := st.LoadTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("loaded %d triples, want 3", n)
	}
	a := st.NewAnswerer(repro.Native, repro.Options{})
	res, err := a.Query(`SELECT ?x WHERE { ?x rdf:type <http://example.org/Publication> }`, repro.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Errorf("got %d rows, want 1 (implicit typing through the loaded schema)", res.NumRows())
	}
}

// The six-index layout must answer identically to the default layout.
func TestWithAllIndexes(t *testing.T) {
	build := func(opts ...repro.StoreOption) *repro.Store {
		st := repro.NewStore(opts...)
		if err := st.AddAll(lubm.Ontology()); err != nil {
			t.Fatal(err)
		}
		lubm.Generate(1, 42, lubm.Tiny(), func(tr rdf.Triple) { st.MustAdd(tr) })
		st.Freeze()
		return st
	}
	def := build()
	all := build(repro.WithAllIndexes())
	q := lubm.Queries()[0].Text
	a1 := def.NewAnswerer(repro.Native, repro.Options{})
	a2 := all.NewAnswerer(repro.Native, repro.Options{})
	r1, err := a1.Query(q, repro.GCov)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a2.Query(q, repro.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(r1) != rowsKey(r2) {
		t.Error("index layouts disagree on answers")
	}
}

// Explain and ExplainPlan surface optimizer internals without evaluating.
func TestExplainFacade(t *testing.T) {
	st := lubmStore(t, 1)
	a := st.NewAnswerer(repro.PostgresLike, repro.Options{})
	q := lubm.Queries()[0].Text

	rep, err := a.Explain(q, repro.GCov)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cover == nil || rep.TotalCQs == 0 || rep.EstimatedCost <= 0 {
		t.Errorf("Explain report incomplete: %+v", rep)
	}
	plan, err := a.ExplainPlan(q, repro.GCov)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"JUCQ plan", "arm[1]", "filter on ?v0 from arm[1]", "estimated cost"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if plan, err := a.ExplainPlan(q, repro.Saturation); err != nil || !strings.Contains(plan, "saturation") {
		t.Errorf("saturation ExplainPlan = %q, %v", plan, err)
	}
}

// The saturation count must be positive on LUBM data (subclass typing,
// degreeFrom generalization, domain/range typing all fire).
func TestSaturationAddsImplicitTriples(t *testing.T) {
	st := lubmStore(t, 1)
	if st.NumImplicit() == 0 {
		t.Error("no implicit triples on LUBM data")
	}
	ratio := float64(st.NumImplicit()) / float64(st.NumTriples())
	if ratio < 0.2 {
		t.Errorf("implicit/explicit ratio %.2f suspiciously low for LUBM", ratio)
	}
	t.Logf("explicit %d, implicit %d (%.0f%%)", st.NumTriples(), st.NumImplicit(), 100*ratio)
}

// Engine profile failure surfaces through the facade with the typed error.
func TestProfileFailureSurfaces(t *testing.T) {
	st := lubmStore(t, 1)
	small := repro.Profile{Name: "tiny", MaxPlanLeaves: 10, ArmJoin: 0}
	a := st.NewAnswerer(small, repro.Options{})
	_, err := a.Query(lubm.Queries()[1].Text, repro.UCQ) // Q02: enormous UCQ
	if err == nil {
		t.Fatal("expected plan-complexity failure")
	}
}
