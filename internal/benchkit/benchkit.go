// Package benchkit is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5). It builds the LUBM
// and DBLP workloads at a configurable scale, runs the four reformulation
// strategies and the saturation baseline across the three engine
// profiles, and renders the paper's tables and figures as text reports.
// Both the testing.B benchmarks in the repository root and the
// cmd/benchall tool drive this package.
package benchkit

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dblp"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/saturate"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Spec is one benchmark query.
type Spec struct {
	Name    string
	Text    string
	Comment string
}

// Database is an encoded RDF database ready for experiments: raw and
// saturated stores with statistics, plus the parsed and encoded query
// workload.
type Database struct {
	Name   string
	Dict   *dict.Dict
	Vocab  schema.Vocab
	Closed *schema.Closed

	Raw      *storage.Store
	RawStats *stats.Stats
	Sat      *storage.Store
	SatStats *stats.Stats

	Specs   []Spec
	Queries []*sparql.Query
	Encoded []bgp.CQ
}

// Scale selects the dataset sizes of a benchmark run.
type Scale struct {
	Name       string
	LUBMUnivs  int
	LUBMConfig lubm.Config
	DBLPPubs   int
}

// The predefined scales. Small (the default) keeps the full suite under a
// minute; Medium approximates the paper's LUBM 1M / DBLP "millions"
// regime, scaled to this reproduction's in-process engine.
var (
	ScaleTiny   = Scale{Name: "tiny", LUBMUnivs: 1, LUBMConfig: lubm.Tiny(), DBLPPubs: 500}
	ScaleSmall  = Scale{Name: "small", LUBMUnivs: 1, LUBMConfig: lubm.Default(), DBLPPubs: 20_000}
	ScaleMedium = Scale{Name: "medium", LUBMUnivs: 8, LUBMConfig: lubm.Default(), DBLPPubs: 150_000}
)

// ScaleByName resolves a scale name; the empty name is ScaleSmall. It
// reports false for any other name, so a misspelt scale never silently
// measures a different size.
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "tiny":
		return ScaleTiny, true
	case "small", "":
		return ScaleSmall, true
	case "medium":
		return ScaleMedium, true
	default:
		return Scale{}, false
	}
}

// EnvScale resolves REPRO_BENCH_SCALE, the scale every benchmark reads:
// def when it is unset, an error naming the accepted values when it
// names no scale.
func EnvScale(def Scale) (Scale, error) {
	name := os.Getenv("REPRO_BENCH_SCALE")
	if name == "" {
		return def, nil
	}
	if sc, ok := ScaleByName(name); ok {
		return sc, nil
	}
	return Scale{}, fmt.Errorf("REPRO_BENCH_SCALE=%q: want tiny, small or medium", name)
}

// The generator seeds of BuildLUBM and BuildDBLP; cmd/datagen -scale
// uses them so its datasets are the ones benchkit measures.
const (
	LUBMSeed = 42
	DBLPSeed = 7
)

var (
	cacheMu sync.Mutex
	cache   = map[string]*Database{}
)

// BuildLUBM builds (and memoizes per process) the LUBM database at the
// given scale. An error means the workload definition itself is broken
// (a query failed to parse or encode).
func BuildLUBM(sc Scale) (*Database, error) {
	key := fmt.Sprintf("lubm/%s/%d", sc.Name, sc.LUBMUnivs)
	return buildCached(key, func() (*Database, error) {
		specs := make([]Spec, 0, 28)
		for _, q := range lubm.Queries() {
			specs = append(specs, Spec{Name: q.Name, Text: q.Text, Comment: q.Comment})
		}
		return build("LUBM", lubm.Ontology(), func(emit func(rdf.Triple)) {
			lubm.Generate(sc.LUBMUnivs, LUBMSeed, sc.LUBMConfig, emit)
		}, specs)
	})
}

// BuildDBLP builds (and memoizes) the DBLP database at the given scale.
func BuildDBLP(sc Scale) (*Database, error) {
	key := fmt.Sprintf("dblp/%s/%d", sc.Name, sc.DBLPPubs)
	return buildCached(key, func() (*Database, error) {
		specs := make([]Spec, 0, 10)
		for _, q := range dblp.Queries() {
			specs = append(specs, Spec{Name: q.Name, Text: q.Text, Comment: q.Comment})
		}
		return build("DBLP", dblp.Ontology(), func(emit func(rdf.Triple)) {
			dblp.Generate(sc.DBLPPubs, DBLPSeed, emit)
		}, specs)
	})
}

func buildCached(key string, f func() (*Database, error)) (*Database, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if db, ok := cache[key]; ok {
		return db, nil
	}
	db, err := f()
	if err != nil {
		return nil, err
	}
	cache[key] = db
	return db, nil
}

func build(name string, ontology []rdf.Triple, gen func(func(rdf.Triple)), specs []Spec) (*Database, error) {
	d := dict.New()
	vocab := schema.EncodeVocab(d)
	sch := schema.New(vocab)
	for _, t := range ontology {
		s, p, o := d.EncodeTriple(t)
		sch.AddTriple(s, p, o)
	}
	closed := sch.Close()

	b := storage.NewBuilder()
	gen(func(t rdf.Triple) {
		s, p, o := d.EncodeTriple(t)
		b.Add(storage.Triple{S: s, P: p, O: o})
	})
	d.Trim()
	for _, c := range closed.ConstraintTriples() {
		b.Add(storage.Triple{S: c[0], P: c[1], O: c[2]})
	}
	raw := b.Build()
	sat, _ := saturate.StoreFrom(raw.Each, closed)

	db := &Database{
		Name:     name,
		Dict:     d,
		Vocab:    vocab,
		Closed:   closed,
		Raw:      raw,
		RawStats: stats.Collect(raw, vocab),
		Sat:      sat,
		SatStats: stats.Collect(sat, vocab),
		Specs:    specs,
	}
	for _, s := range specs {
		q, err := sparql.Parse(s.Text)
		if err != nil {
			return nil, fmt.Errorf("benchkit: parsing %s %s: %w", name, s.Name, err)
		}
		enc, err := sparql.Encode(q, d)
		if err != nil {
			return nil, fmt.Errorf("benchkit: encoding %s %s: %w", name, s.Name, err)
		}
		db.Queries = append(db.Queries, q)
		db.Encoded = append(db.Encoded, enc.CQ)
	}
	return db, nil
}

// Answerer builds a core answerer over the database for one engine
// profile, calibrating the cost model for that profile as the paper does
// per RDBMS.
func (db *Database) Answerer(prof engine.Profile, opts core.Options) *core.Answerer {
	raw := engine.New(db.Raw, db.RawStats, prof)
	sat := engine.New(db.Sat, db.SatStats, prof)
	if opts.Params == (cost.Params{}) {
		opts.Params = db.calibrated(prof)
	}
	return core.NewAnswerer(db.Closed, raw, sat, opts)
}

var (
	calMu    sync.Mutex
	calCache = map[string]cost.Params{}
)

// calibrated memoizes per-profile calibration on this database.
func (db *Database) calibrated(prof engine.Profile) cost.Params {
	key := db.Name + "/" + prof.Name + "/" + fmt.Sprint(db.Raw.Len())
	calMu.Lock()
	defer calMu.Unlock()
	if p, ok := calCache[key]; ok {
		return p
	}
	p := core.Calibrate(engine.New(db.Raw, db.RawStats, prof))
	calCache[key] = p
	return p
}

// Outcome is the result of one strategy run: timing split as the paper
// reports it, answer count, and the failure (if any).
type Outcome struct {
	Strategy core.Strategy
	Rows     int
	Optimize time.Duration
	Evaluate time.Duration
	Total    time.Duration
	Report   core.Report
	Err      error
}

// Failed reports whether the run failed (the paper's "missing bars").
func (o Outcome) Failed() bool { return o.Err != nil }

// Run answers query index qi of the database with the given strategy.
func (db *Database) Run(a *core.Answerer, qi int, strat core.Strategy) Outcome {
	q := db.Encoded[qi]
	start := time.Now()
	ans, err := a.Answer(q, strat)
	out := Outcome{Strategy: strat, Total: time.Since(start), Err: err}
	if ans != nil {
		out.Report = ans.Report
		out.Optimize = ans.Report.OptimizeTime
		out.Evaluate = ans.Report.EvalTime
		if ans.Rel != nil {
			out.Rows = ans.Rel.Len()
		}
	}
	return out
}

// RunAveraged runs the query once cold (discarded unless it fails) and
// then n times warm, returning the last outcome with timings averaged
// over the warm runs — the paper's "averaged over 3 warm executions"
// methodology (Section 5.1). A failing run returns immediately.
func (db *Database) RunAveraged(a *core.Answerer, qi int, strat core.Strategy, n int) Outcome {
	if n < 1 {
		n = 1
	}
	if cold := db.Run(a, qi, strat); cold.Failed() {
		return cold
	}
	var opt, eval, total time.Duration
	var last Outcome
	for i := 0; i < n; i++ {
		last = db.Run(a, qi, strat)
		if last.Failed() {
			return last
		}
		opt += last.Optimize
		eval += last.Evaluate
		total += last.Total
	}
	last.Optimize = opt / time.Duration(n)
	last.Evaluate = eval / time.Duration(n)
	last.Total = total / time.Duration(n)
	return last
}

// QueryIndex returns the index of a query by name, or -1.
func (db *Database) QueryIndex(name string) int {
	for i, s := range db.Specs {
		if s.Name == name {
			return i
		}
	}
	return -1
}
