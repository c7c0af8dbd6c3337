package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/sparql"
)

// runTraced is the per-layer run. It spends the run's seconds on, in
// order: the workload's own load (counters under real traffic), one
// caller whose every operation is recorded as a span tree, the same
// caller with recording off (tracing overhead), one pass with nothing
// cached (exact optimizer and engine counts), and direct probes of the
// storage, dictionary, statistics, parser and reformulation layers.
func runTraced(rc runConfig) (*result, error) {
	w := rc.workload
	orc := rc.oracle
	ops, err := specsFor(w, orc)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tg := target{client: newHTTPClient(runtime.GOMAXPROCS(0))}
	if tg.store, tg.svc, err = setUp(w, rc.seed, rc.dataset, tg.client, rec.wrap); err != nil {
		return nil, err
	}
	defer tg.stop()
	vals := map[string]float64{
		"saturate.build_s":          orc.BuildS,
		"saturate.implicit_triples": float64(orc.Implicit),
	}

	warm := runLoad(w, tg, ops, rc.seed, 0, rc.warmup)
	ld, err := loadedWindow(w, tg, ops, rc.seed, rc.seconds*4/10, vals)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: warm.attempted() + ld.attempted(),
		Failed:    warm.failed() + ld.failed(),
	}
	firstErr := warm.firstErr()
	if firstErr == "" {
		firstErr = ld.firstErr()
	}

	tr := newTracer(w, tg)
	traced := tr.window(ops, rec, rc.seconds/4)
	untraced := tr.window(ops, nil, rc.seconds/10)
	for _, tw := range []tracedWindow{traced, untraced} {
		res.Attempted += tw.ops + tw.updates
		res.Failed += tw.failed + tw.updatesFailed
		if firstErr == "" {
			firstErr = tw.firstErr
		}
	}
	if traced.passes == 0 || untraced.ops == 0 {
		return nil, fmt.Errorf("traced window completed no pass (first error: %s)", firstErr)
	}
	if untraced.ops > untraced.failed {
		vals["trace.overhead_share"] = 1 - traced.opsPerSec()/untraced.opsPerSec()
	}
	traced.metrics(rec.spans, w, vals)

	if err := coldPass(tg.store, ops, vals); err != nil {
		return nil, err
	}
	if err := probeLayers(rc.seed, rc.dataset, ops, vals); err != nil {
		return nil, err
	}

	res.Correct = res.Failed == 0
	if firstErr != "" {
		fmt.Fprintf(rc.log, "%-12s FAILED operation: %s\n", w.Name, firstErr)
	}
	m := newMetricSet(perLayer, true)
	if err := m.setAll(vals); err != nil {
		return nil, err
	}
	res.Metrics = m.values
	printMetrics(rc.log, w.Name, m.values)
	if rc.outDir != "" {
		data, err := json.Marshal(rec.spans)
		if err != nil {
			return nil, err
		}
		if err := writeFile(rc.outDir, "trace_"+w.Name+".json", data); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// loadedWindow runs the workload's own load and reads the counters that
// only mean something under it: driver tail latency, the server's
// /statz, the Go runtime's allocation and collection figures.
func loadedWindow(w workload, tg target, ops []op, seed int64, dur time.Duration, vals map[string]float64) (load, error) {
	var before, after server.StatzResponse
	if tg.svc != nil {
		if err := getJSON(tg.client, tg.svc.base+"/statz", &before); err != nil {
			return load{}, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := cpuSeconds()
	stopPeak := make(chan struct{})
	var peak uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPeak:
				return
			case <-tick.C:
				peak = max(peak, heapInuse())
			}
		}
	}()

	ld := runLoad(w, tg, ops, seed, 2, dur)

	close(stopPeak)
	wg.Wait()
	gc1, cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if tg.svc != nil {
		if err := getJSON(tg.client, tg.svc.base+"/statz", &after); err != nil {
			return load{}, err
		}
	}

	lat := latencies(ld.queries.samples)
	vals["driver.samples"] = float64(len(lat))
	vals["driver.latency_ms_p99"] = ms(quantile(lat, 0.99))
	vals["driver.latency_ms_max"] = ms(quantile(lat, 1))
	if ld.mut != nil {
		vals["driver.late_ms_p95"] = ms(quantile(sorted(ld.mut.late), 0.95))
		vals["driver.update_ms_p50"] = ms(quantile(sorted(ld.mut.update), 0.50))
	}
	if n := float64(ld.attempted()); n > 0 {
		vals["runtime.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
		vals["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / n
	}
	if cpu1 > cpu0 {
		vals["runtime.gc_cpu_share"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	var pause uint64
	for i := m0.NumGC; i < m1.NumGC && i < m0.NumGC+uint32(len(m1.PauseNs)); i++ {
		pause = max(pause, m1.PauseNs[i%uint32(len(m1.PauseNs))])
	}
	vals["runtime.gc_pause_ms_max"] = float64(pause) / 1e6
	vals["runtime.heap_inuse_mb_peak"] = float64(max(peak, heapInuse())) / (1 << 20)

	if tg.svc != nil {
		hits := after.Cache.Hits - before.Cache.Hits
		stale := after.Cache.Invalidations - before.Cache.Invalidations
		if lookups := hits + stale + after.Cache.Misses - before.Cache.Misses; lookups > 0 {
			vals["plancache.hit_rate"] = float64(hits) / float64(lookups)
		}
		vals["plancache.invalidations"] = float64(stale)
		vals["plancache.reprices"] = float64(after.Cache.Reprices - before.Cache.Reprices)
		vals["plancache.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
		vals["server.rejected_429"] = float64(after.Rejected - before.Rejected)
		vals["server.status_5xx"] = float64(ld.queries.status5xx)
		fb := after.Feedback[repro.Native.Name]
		vals["feedback.observations"] = float64(fb.Observations - before.Feedback[repro.Native.Name].Observations)
		vals["feedback.drift_events"] = float64(fb.DriftEvents - before.Feedback[repro.Native.Name].DriftEvents)
		vals["feedback.mean_card_error"] = fb.MeanCardError
		vals["feedback.mean_cost_error"] = fb.MeanCostError
	}
	return ld, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	if derr := drain(resp); err == nil {
		err = derr
	}
	return err
}

// cpuSeconds returns the CPU seconds the collector and the whole process
// have used so far.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// heapInuse returns the bytes of heap spans in use, without stopping the
// world.
func heapInuse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	var n uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			n += x.Value.Uint64()
		}
	}
	return n
}

// tracer is the single caller of the traced window. For a served
// workload each operation runs the query twice: (a) over HTTP, with the
// handler's span recorded inside the round trip's, and (c) through the
// library directly, on an answerer configured like the server's. The
// handler's own cost is (b) its span minus (c); net/http's is (a) minus
// (b). An in-process workload runs (c) alone, with nothing cached.
type tracer struct {
	w      workload
	tg     target
	poster poster
	warm   *repro.Answerer // path (c) of served workloads
}

func newTracer(w workload, tg target) *tracer {
	t := &tracer{w: w, tg: tg, poster: poster{client: tg.client}}
	if !w.inProcess {
		t.warm = tg.store.NewAnswerer(repro.Native, repro.Options{
			PlanCache: repro.NewPlanCache(0),
			Feedback:  repro.NewFeedbackLoop(),
		})
	}
	return t
}

// tracedWindow is what the spans do not hold: counts, and the program's
// own report of each answer.
type tracedWindow struct {
	ops, failed            int // queries
	updates, updatesFailed int // the mutator's operations
	passes                 int
	firstErr               string
	elapsed                time.Duration

	rowsByOp   map[int]int
	respBytes  int64
	stored     int64 // Σ Result.StoredBytes
	factorized int
	evalTime   time.Duration
	cachedOpt  []time.Duration // Report.OptimizeTime of plan-cache hits
}

func (tw tracedWindow) opsPerSec() float64 { return float64(tw.ops-tw.failed) / tw.elapsed.Seconds() }

// maxTracedPasses bounds the span file; minTracedPasses is what the
// per-pass figures need however short the window.
const (
	minTracedPasses = 5
	maxTracedPasses = 200
)

// window runs the single caller for dur (and at least minTracedPasses);
// a mutating workload's mutator runs beside it, so its spans show what
// invalidation and a pending delta cost each layer.
func (t *tracer) window(ops []op, rec *recorder, dur time.Duration) tracedWindow {
	tw := tracedWindow{rowsByOp: make(map[int]int)}
	start := time.Now()
	until := start.Add(dur)
	var mut *mutStats
	var wg sync.WaitGroup
	if t.w.mutate {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mut = newMutator(t.tg.client, t.tg.svc.base).run(start, dur)
		}()
	}
	for tw.passes < maxTracedPasses && (tw.passes < minTracedPasses || time.Now().Before(until)) {
		for _, o := range ops {
			tw.ops++
			if err := t.op(&tw, rec, tw.ops, o); err != nil {
				tw.failed++
				if tw.firstErr == "" {
					tw.firstErr = err.Error()
				}
			}
		}
		tw.passes++
	}
	tw.elapsed = time.Since(start)
	wg.Wait()
	if mut != nil {
		tw.updates, tw.updatesFailed = mut.attempted, mut.failed
		if tw.firstErr == "" {
			tw.firstErr = mut.firstErr
		}
	}
	return tw
}

func (t *tracer) op(tw *tracedWindow, rec *recorder, id int, o op) error {
	root := rec.beginOp(id)
	defer rec.end(root)

	if !t.w.inProcess {
		rt := rec.begin(root, "net/http", "roundtrip")
		var hdr http.Header
		if rec != nil {
			hdr = http.Header{spanHeader: {strconv.Itoa(rt)}}
		}
		body, err := t.poster.post(t.tg.svc.base+"/query", hdr, o.body)
		rec.end(rt)
		if err != nil {
			return err
		}
		dec := rec.begin(root, "driver", "decode")
		var qr server.QueryResponse
		err = json.Unmarshal(body, &qr)
		rec.end(dec)
		if err != nil {
			return err
		}
		tw.respBytes += int64(len(body))
		if err := o.q.check(len(qr.Rows), true, hashRows(qr.Rows).Hash); err != nil {
			return err
		}
	}

	lib := rec.begin(root, "repro", "library")
	defer rec.end(lib)
	a := t.warm
	if a == nil {
		a = t.tg.store.NewAnswerer(repro.Native, repro.Options{})
	}
	ps := rec.begin(lib, "sparql", "parse")
	q, err := sparql.Parse(o.q.text)
	rec.end(ps)
	if err != nil {
		return err
	}
	as := rec.begin(lib, "repro", "answer")
	res, err := a.QueryParsedContext(context.Background(), q, o.strategy)
	answer := rec.end(as)
	if err != nil {
		return err
	}
	rep := res.Report
	planLayer := "core"
	if rep.Cached {
		planLayer = "plancache"
		tw.cachedOpt = append(tw.cachedOpt, rep.OptimizeTime)
	}
	rec.place(as, planLayer, "optimize", answer.StartNS, answer.StartNS+int64(rep.OptimizeTime))
	rec.place(as, "engine", "evaluate", answer.EndNS-int64(rep.EvalTime), answer.EndNS)

	es := rec.begin(lib, "repro", "each")
	rows := 0
	res.Each(func([]rdf.Term) bool { rows++; return true })
	rec.end(es)

	tw.rowsByOp[id] = rows
	tw.evalTime += rep.EvalTime
	tw.stored += res.StoredBytes()
	if flat := int64(rows) * int64(len(res.Vars)) * 4; rows > 0 && res.StoredBytes() < flat {
		tw.factorized++
	}
	if rows != o.q.ref.Rows {
		return fmt.Errorf("%s: library answered %d rows, oracle has %d", o.q.name, rows, o.q.ref.Rows)
	}
	return nil
}

// metrics turns the window's spans into the per-layer figures.
func (tw tracedWindow) metrics(spans []span, w workload, vals map[string]float64) {
	type opDur struct{ roundtrip, handler, library int64 }
	byOp := make(map[int]*opDur)
	self := selfTimes(spans)
	selfBy := make(map[string]int64)
	durBy := make(map[string]int64)
	for i, s := range spans {
		selfBy[s.Name] += self[i]
		durBy[s.Name] += s.dur()
		d := byOp[s.OpID]
		if d == nil {
			d = &opDur{}
			byOp[s.OpID] = d
		}
		switch s.Name {
		case "roundtrip":
			d.roundtrip = s.dur()
		case "handler":
			d.handler = s.dur()
		case "library":
			d.library = s.dur()
		}
	}
	passes, nops := float64(tw.passes), float64(tw.ops)
	var rows, bigRows, bigSelf int64
	for id, n := range tw.rowsByOp {
		rows += int64(n)
		if d := byOp[id]; n >= smallAnswer && d != nil {
			bigRows += int64(n)
			bigSelf += d.handler - d.library
		}
	}

	base := durBy["library"]
	if !w.inProcess {
		base = durBy["roundtrip"]
		vals["server.http_overhead_us"] = float64(selfBy["roundtrip"]) / 1e3 / nops
		vals["server.handler_self_us"] = float64(durBy["handler"]-durBy["library"]) / 1e3 / nops
		if bigRows > 0 {
			vals["server.encode_ns_per_row"] = float64(bigSelf) / float64(bigRows)
		}
		if rows > 0 {
			vals["server.resp_bytes_per_row"] = float64(tw.respBytes) / float64(rows)
		}
		vals["share.net_http"] = float64(selfBy["roundtrip"]) / float64(base)
		vals["share.server"] = float64(durBy["handler"]-durBy["library"]) / float64(base)
	}
	vals["share.sparql"] = float64(selfBy["parse"]) / float64(base)
	vals["share.optimize"] = float64(selfBy["optimize"]) / float64(base)
	vals["share.engine"] = float64(selfBy["evaluate"]) / float64(base)
	vals["share.result_iter"] = float64(selfBy["each"]) / float64(base)
	vals["share.glue"] = float64(selfBy["answer"]+selfBy["library"]) / float64(base)

	if len(tw.cachedOpt) > 0 {
		var sum time.Duration
		for _, d := range tw.cachedOpt {
			sum += d
		}
		vals["plancache.hit_path_us"] = us(sum) / float64(len(tw.cachedOpt))
	}
	if rows > 0 {
		vals["repro.each_ns_per_row"] = float64(durBy["each"]) / float64(rows)
	}
	vals["engine.eval_ms_per_pass"] = ms(tw.evalTime) / passes
	vals["engine.answer_stored_bytes"] = float64(tw.stored) / passes
	vals["engine.factorized_answers"] = float64(tw.factorized) / passes
}

// coldRounds is how often the timed parts of the cold pass repeat.
const coldRounds = 2

// coldPass answers each query of the workload under gcov and ecov
// through a fresh answerer with no plan cache and no feedback, one
// caller: the optimizer's effort and the engine's counters are then
// exact counts that repeat from run to run.
func coldPass(st *repro.Store, ops []op, vals map[string]float64) error {
	queries := distinctQueries(ops)
	answer := func(q *querySpec, strat repro.Strategy, par int) (repro.Report, int, error) {
		res, err := st.NewAnswerer(repro.Native, repro.Options{Parallelism: par}).Query(q.text, strat)
		if err != nil {
			return repro.Report{}, 0, fmt.Errorf("cold pass: %s: %w", q.name, err)
		}
		return res.Report, res.NumRows(), nil
	}

	var qerr []float64
	for _, strat := range []repro.Strategy{repro.GCov, repro.ECov} {
		var opt, eval time.Duration
		var covers, cqs, rows int64
		var em repro.Report
		for round := 0; round < coldRounds; round++ {
			for _, q := range queries {
				rep, n, err := answer(q, strat, 0)
				if err != nil {
					return err
				}
				opt += rep.OptimizeTime
				eval += rep.EvalTime
				if round > 0 {
					continue
				}
				covers += int64(rep.CoversExplored)
				cqs += rep.TotalCQs
				rows += int64(n)
				em.Metrics.TuplesScanned += rep.Metrics.TuplesScanned
				em.Metrics.RowsJoined += rep.Metrics.RowsJoined
				em.Metrics.RowsMaterialized += rep.Metrics.RowsMaterialized
				em.Metrics.RowsDeduped += rep.Metrics.RowsDeduped
				em.Metrics.UnionArms += rep.Metrics.UnionArms
				em.Metrics.Work += rep.Metrics.Work
				if strat == repro.GCov {
					qerr = append(qerr, math.Abs(math.Log((rep.EstimatedRows+1)/(float64(n)+1))))
				}
			}
		}
		n := float64(coldRounds * len(queries))
		vals["core.optimize_us."+string(strat)] = us(opt) / n
		vals["core.covers_explored."+string(strat)] = float64(covers)
		vals["core.optimize_share."+string(strat)] = float64(opt) / float64(opt+eval)
		if strat != repro.GCov {
			continue
		}
		vals["reformulate.total_cqs"] = float64(cqs)
		vals["engine.tuples_scanned"] = float64(em.Metrics.TuplesScanned)
		vals["engine.rows_joined"] = float64(em.Metrics.RowsJoined)
		vals["engine.rows_materialized"] = float64(em.Metrics.RowsMaterialized)
		vals["engine.rows_deduped"] = float64(em.Metrics.RowsDeduped)
		vals["engine.union_arms"] = float64(em.Metrics.UnionArms)
		vals["engine.work"] = float64(em.Metrics.Work)
		if em.Metrics.TuplesScanned > 0 {
			vals["engine.ns_per_tuple_scanned"] = float64(eval) / coldRounds / float64(em.Metrics.TuplesScanned)
		}
		if rows > 0 {
			vals["engine.tuples_per_result"] = float64(em.Metrics.TuplesScanned) / float64(rows)
		}
	}
	sort.Float64s(qerr)
	vals["cost.card_qerror_p50"] = qerr[len(qerr)/2]

	// Intra-query parallelism: evaluation time with one worker over
	// evaluation time with the default, rounds interleaved.
	var serial, parallel time.Duration
	for round := 0; round < coldRounds; round++ {
		for _, q := range queries {
			r1, _, err := answer(q, repro.GCov, 1)
			if err != nil {
				return err
			}
			r0, _, err := answer(q, repro.GCov, 0)
			if err != nil {
				return err
			}
			serial += r1.EvalTime
			parallel += r0.EvalTime
		}
	}
	if parallel > 0 {
		vals["engine.parallel_speedup"] = float64(serial) / float64(parallel)
	}
	return nil
}
