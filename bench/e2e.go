package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runEndToEnd measures what a user of the system sees: set-up time,
// verified answers per second, latency, resident space.
func runEndToEnd(rc runConfig) (*result, error) {
	w := rc.workload
	ops, err := specsFor(w, rc.oracle)
	if err != nil {
		return nil, err
	}
	tg := target{client: newHTTPClient(runtime.GOMAXPROCS(0))}

	// setup_s is the median of several set-ups; all but the last are
	// torn down again.
	var setupS []float64
	var baseHeap uint64
	for i := 0; i < rc.setups; i++ {
		tg.stop()
		tg.store, tg.svc = nil, nil
		baseHeap = liveHeap()
		start := time.Now()
		tg.store, tg.svc, err = setUp(w, rc.seed, rc.dataset, tg.client, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer tg.stop()

	warm := runLoad(w, tg, ops, rc.seed, 0, rc.warmup)
	ld := runLoad(w, tg, ops, rc.seed, 1, rc.seconds)

	parts := bySlice(ld.queries.samples, rc.seconds)
	fewest := parts[0].n
	for _, p := range parts {
		fewest = min(fewest, p.n)
	}
	if fewest == 0 {
		return nil, fmt.Errorf("a part of the window passed without one correct answer (first error: %s)", ld.firstErr())
	}
	m := newMetricSet(endToEnd, false)
	vals := map[string]float64{
		"setup_s":        median(setupS),
		"qps":            medianOf(parts, func(p sliceStats) float64 { return p.qps }),
		"latency_ms_p50": medianOf(parts, func(p sliceStats) float64 { return p.p50 }),
		"latency_ms_p95": medianOf(parts, func(p sliceStats) float64 { return p.p95 }),
	}
	res := &result{
		Attempted: warm.attempted() + ld.attempted(),
		Failed:    warm.failed() + ld.failed(),
	}
	res.Correct = res.Failed == 0
	for _, l := range []load{warm, ld} {
		if e := l.firstErr(); e != "" {
			fmt.Fprintf(rc.log, "%-12s FAILED operation: %s\n", w.Name, e)
			break
		}
	}
	fmt.Fprintf(rc.log, "%-12s samples %d in %d parts (fewest in a part %d, beyond its p95 %d), fail_share %.6f, triples %d\n",
		w.Name, len(ld.queries.samples), slices, fewest, fewest-int(0.95*float64(fewest)),
		float64(res.Failed)/float64(res.Attempted), tg.store.NumTriples())
	fmt.Fprintf(rc.log, "%-12s qps of each part:", w.Name)
	for _, p := range parts {
		fmt.Fprintf(rc.log, " %.1f", p.qps)
	}
	fmt.Fprintln(rc.log)
	if ld.mut != nil {
		fmt.Fprintf(rc.log, "%-12s updates %d, update_ms_p50 %.4f ms\n", w.Name, len(ld.mut.update), ms(quantile(sorted(ld.mut.update), 0.5)))
	}

	// Space: what the store keeps resident once the window's own buffers
	// are gone, and the process's high-water mark.
	warm, ld, parts = load{}, load{}, nil
	tg.client.CloseIdleConnections()
	vals["store_bytes_per_triple"] = float64(liveHeap()-baseHeap) / float64(tg.store.NumTriples())
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals["peak_rss_mb"] = rss

	if err := m.setAll(vals); err != nil {
		return nil, err
	}
	if err := m.complete(); err != nil {
		return nil, err
	}
	res.Metrics = m.values
	printMetrics(rc.log, w.Name, m.values)
	return res, nil
}

// liveHeap returns the bytes of reachable heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
