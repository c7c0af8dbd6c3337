// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index), plus fine-grained
// benchmarks of the individual mechanisms (reformulation, cover search,
// join algorithms, saturation).
//
// The default scale keeps `go test -bench=.` fast; set
// REPRO_BENCH_SCALE=small or =medium to approach the paper's dataset
// sizes (cmd/benchall renders the same reports with readable output).
package repro_test

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/plancache"
	"repro/internal/reformulate"
	"repro/internal/saturate"
	"repro/internal/storage"
	"repro/internal/trace"
)

func benchScale() benchkit.Scale {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		return benchkit.ScaleByName(s)
	}
	return benchkit.ScaleTiny
}

func lubmDB(b *testing.B) *benchkit.Database {
	b.Helper()
	db, err := benchkit.BuildLUBM(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return db
}

func dblpDB(b *testing.B) *benchkit.Database {
	b.Helper()
	db, err := benchkit.BuildDBLP(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return db
}

// ---- Tables ----

func BenchmarkTable1_MotivatingQ1Stats(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.TripleCharacteristics(io.Discard, "Q01"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Q1CoverSweep(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.CoverSweep(io.Discard, "Q01", engine.PostgresLike); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_MotivatingQ2Stats(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.TripleCharacteristics(io.Discard, "Q02"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_QueryCharacteristics(b *testing.B) {
	lubm := lubmDB(b)
	dblp := dblpDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lubm.QueryCharacteristics(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := dblp.QueryCharacteristics(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures ----

func BenchmarkFigure4_LUBM_Strategies(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.StrategyMatrix(io.Discard, engine.Profiles()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5_LUBMLarge_Strategies(b *testing.B) {
	// The paper's Figure 5 is Figure 4 at 100M triples; here, the medium
	// scale. Opt in explicitly — at the default scale this benchmark
	// would just duplicate Figure 4.
	if os.Getenv("REPRO_BENCH_SCALE") != "medium" {
		b.Skip("set REPRO_BENCH_SCALE=medium for the large-scale figure (see cmd/benchall)")
	}
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.StrategyMatrix(io.Discard, engine.Profiles()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6_DBLP_Strategies(b *testing.B) {
	db := dblpDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.StrategyMatrix(io.Discard, engine.Profiles()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7_LUBM_SearchEffort(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.SearchEffort(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8_DBLP_SearchEffort(b *testing.B) {
	db := dblpDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.SearchEffort(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9_CostModelComparison(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.CostSourceComparison(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10_VsSaturation(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.SaturationComparison(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md A1–A5) ----

func BenchmarkAblation_IndexSet(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.AblationIndexSet(io.Discard, "Q01", "Q09"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_JoinOrdering(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.AblationJoinOrdering(io.Discard, "Q01", "Q09"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ArmJoin(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.AblationArmJoin(io.Discard, "Q05", "Q13"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_FactorizedReformulation(b *testing.B) {
	db := lubmDB(b)
	for i := 0; i < b.N; i++ {
		if err := db.AblationFactorizedReformulation(io.Discard, "Q01", "Q09", "Q13"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Mechanism micro-benchmarks ----

// BenchmarkReformulate measures the CQ-to-UCQ reformulation itself (the
// factorized form, no materialization), on the two motivating queries.
func BenchmarkReformulate(b *testing.B) {
	db := lubmDB(b)
	for _, name := range []string{"Q01", "Q02"} {
		qi := db.QueryIndex(name)
		q := db.Encoded[qi]
		whole := cover.Query(q, cover.WholeQuery(len(q.Atoms))[0])
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ref, err := reformulate.Reformulate(whole, db.Closed)
				if err != nil {
					b.Fatal(err)
				}
				if ref.NumCQs() == 0 {
					b.Fatal("empty reformulation")
				}
			}
		})
	}
}

// BenchmarkCoverSearch measures the two search algorithms' optimization
// stage on a small query, a mid-size one and the three whose whole-query
// reformulations split into the most instantiation blocks. Each variant
// reports the covers priced and the fragments reformulated per search,
// read off one traced search outside the timed loop (the optimize span's
// search.* counters).
func BenchmarkCoverSearch(b *testing.B) {
	db := lubmDB(b)
	a := db.Answerer(engine.Native, core.Options{})
	for _, name := range []string{"Q01", "Q02", "Q09", "Q24", "Q28"} {
		qi := db.QueryIndex(name)
		for _, s := range []core.Strategy{core.ECov, core.GCov} {
			sp := trace.New("bench")
			if _, _, err := a.WithTrace(sp).ChooseCover(db.Encoded[qi], s); err != nil {
				b.Fatal(err)
			}
			sp.End()
			effort := sp.Registry().Snapshot()
			b.Run(name+"/"+string(s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := a.ChooseCover(db.Encoded[qi], s); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(effort["search.covers_priced"]), "covers/op")
				b.ReportMetric(float64(effort["search.frags_reformulated"]), "frags/op")
			})
		}
	}
}

// BenchmarkStrategyEvaluation measures full answering per strategy on
// representative queries (the per-bar data of Figures 4–6).
func BenchmarkStrategyEvaluation(b *testing.B) {
	db := lubmDB(b)
	a := db.Answerer(engine.PostgresLike, core.Options{})
	for _, name := range []string{"Q01", "Q05", "Q08", "Q09", "Q13", "Q18", "Q23"} {
		qi := db.QueryIndex(name)
		for _, s := range []core.Strategy{core.UCQ, core.SCQ, core.GCov, core.Saturation} {
			b.Run(name+"/"+string(s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out := db.Run(a, qi, s)
					if out.Failed() {
						b.Skipf("%s/%s fails on this profile (expected for large reformulations): %v", name, s, out.Err)
					}
				}
			})
		}
	}
}

// BenchmarkParallelCoverSearch measures the cover searches' optimization
// stage serially versus on all cores — the concurrent pricing pool over
// the shared fragment and cost memos.
func BenchmarkParallelCoverSearch(b *testing.B) {
	db := lubmDB(b)
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		a := db.Answerer(engine.Native, core.Options{Parallelism: par})
		for _, s := range []core.Strategy{core.ECov, core.GCov} {
			qi := db.QueryIndex("Q28")
			b.Run(fmt.Sprintf("%s/p%d", s, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := a.ChooseCover(db.Encoded[qi], s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTraceOverhead measures the disabled-tracing hot path on a
// JUCQ evaluation. The `/off` variant never touches the trace API; the
// `/nil-span` variant answers through WithTrace(nil), so every
// instrumentation site runs its nil-receiver check. scripts/bench.sh's
// tracealloc step asserts the two report identical allocs/op — the
// zero-cost-when-disabled claim of DESIGN.md's Observability section.
func BenchmarkTraceOverhead(b *testing.B) {
	db := lubmDB(b)
	qi := db.QueryIndex("Q09")
	off := db.Answerer(engine.Native, core.Options{})
	variants := []struct {
		name string
		a    *core.Answerer
	}{
		{"off", off},
		{"nil-span", off.WithTrace(nil)},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := db.Run(v.a, qi, core.SCQ)
				if out.Failed() {
					b.Fatal(out.Err)
				}
			}
		})
	}
}

// BenchmarkCachedAnswer measures the plan cache on a cover-search-heavy
// query: `cold` answers through a fresh cache every iteration (one miss,
// install included), `warm` answers through a primed shared cache so every
// iteration skips the optimize and reformulate stages. The warm variant
// reports the cache's hit rate as a metric, which scripts/bench.sh embeds
// into the committed BENCH_*.json files.
func BenchmarkCachedAnswer(b *testing.B) {
	db := lubmDB(b)
	qi := db.QueryIndex("Q09")

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := db.Answerer(engine.Native, core.Options{PlanCache: plancache.New(0)})
			out := db.Run(a, qi, core.GCov)
			if out.Failed() {
				b.Fatal(out.Err)
			}
			if out.Report.Cached {
				b.Fatal("fresh cache reported a hit")
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		pc := plancache.New(0)
		a := db.Answerer(engine.Native, core.Options{PlanCache: pc})
		if out := db.Run(a, qi, core.GCov); out.Failed() {
			b.Fatal(out.Err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := db.Run(a, qi, core.GCov)
			if out.Failed() {
				b.Fatal(out.Err)
			}
			if !out.Report.Cached {
				b.Fatal("warm run missed the cache")
			}
		}
		b.ReportMetric(pc.Snapshot().HitRate(), "hit-rate")
	})
}

// BenchmarkSaturation measures building the saturated store, streamed
// straight off the raw store without materializing a triple slice.
func BenchmarkSaturation(b *testing.B) {
	db := lubmDB(b)
	n := db.Raw.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := saturate.StoreFrom(db.Raw.Each, db.Closed, storage.DefaultOrders...)
		if st.Len() < n {
			b.Fatal("saturation lost triples")
		}
	}
}

// BenchmarkSharedScanUCQ measures UCQ evaluation with the shared-scan
// layer (merged member scans, member families) on versus off. The shared
// variant reports the members evaluated under a merged scan, taken from
// one traced run outside the timed loop, as a metric — scripts/bench.sh
// embeds it into the committed BENCH_*.json files.
func BenchmarkSharedScanUCQ(b *testing.B) {
	db := lubmDB(b)
	for _, name := range []string{"Q01", "Q09"} {
		qi := db.QueryIndex(name)

		sp := trace.New("bench")
		traced := db.Answerer(engine.Native, core.Options{Parallelism: 1, Trace: sp})
		if out := db.Run(traced, qi, core.UCQ); out.Failed() {
			b.Fatal(out.Err)
		}
		sp.End()
		snap := sp.Registry().Snapshot()
		merged := float64(snap["merged_members"])

		variants := []struct {
			name string
			opts core.Options
		}{
			{"shared", core.Options{Parallelism: 1}},
			{"baseline", core.Options{Parallelism: 1, NoSharedScan: true}},
		}
		for _, v := range variants {
			a := db.Answerer(engine.Native, v.opts)
			shared := v.name == "shared"
			b.Run(name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out := db.Run(a, qi, core.UCQ)
					if out.Failed() {
						b.Fatal(out.Err)
					}
				}
				if shared {
					b.ReportMetric(merged, "merged-members")
				}
			})
		}
	}
}

// BenchmarkSnapshotScan isolates the storage layer: the locked
// Store.Scan versus the lock-free Snapshot.Scan versus the zero-copy
// Snapshot.Range on a bound-predicate pattern of the frozen LUBM store.
func BenchmarkSnapshotScan(b *testing.B) {
	db := lubmDB(b)
	st := db.Raw
	var p storage.Pattern
	st.Each(func(t storage.Triple) bool { p.P = t.P; return false })
	sn := st.Snapshot()
	count := 0
	sink := func(storage.Triple) bool { count++; return true }

	b.Run("store-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count = 0
			st.Scan(p, sink)
		}
	})
	b.Run("snapshot-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count = 0
			sn.Scan(p, sink)
		}
	})
	b.Run("snapshot-range", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ts, ok := sn.Range(p)
			if !ok {
				b.Fatal("Range not exact on a frozen store")
			}
			count = len(ts)
		}
	})
	_ = count
}

// BenchmarkBulkLoad measures building the triple store from the raw
// LUBM stream: the flat serial baseline against the compressed
// block-columnar parallel sort-merge loader. The compressed variant
// reports its resident bytes/triple as a metric — scripts/bench.sh
// embeds it into the committed BENCH_*.json files alongside the
// cross-scale sweep from `benchall -loadjson`.
func BenchmarkBulkLoad(b *testing.B) {
	db := lubmDB(b)
	n := db.Raw.Len()
	variants := []struct {
		name     string
		compress storage.Compression
		par      int
	}{
		{"flat-serial", storage.CompressionOff, 1},
		{"compressed-serial", storage.CompressionOn, 1},
		{"compressed-parallel", storage.CompressionOn, runtime.GOMAXPROCS(0)},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var st *storage.Store
			for i := 0; i < b.N; i++ {
				bl := storage.NewBuilder().WithCompression(v.compress).WithParallelism(v.par)
				db.Raw.Each(func(t storage.Triple) bool {
					bl.Add(t)
					return true
				})
				st = bl.Build()
				if st.Len() != n {
					b.Fatal("load lost triples")
				}
			}
			b.ReportMetric(st.Footprint().BytesPerTriple(), "bytes/triple")
		})
	}
}

// BenchmarkArmJoins measures the three arm-join algorithms on the SCQ
// reformulation of a join-heavy query — the isolated mechanism behind
// the MySQL-like profile's behaviour.
func BenchmarkArmJoins(b *testing.B) {
	db := lubmDB(b)
	qi := db.QueryIndex("Q22")
	for _, algo := range []engine.JoinAlgorithm{engine.HashJoin, engine.MergeJoin, engine.NestedLoopJoin} {
		prof := engine.Profile{Name: "bench-" + algo.String(), ArmJoin: algo}
		a := db.Answerer(prof, core.Options{})
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := db.Run(a, qi, core.SCQ)
				if out.Failed() {
					b.Fatal(out.Err)
				}
			}
		})
	}
}
