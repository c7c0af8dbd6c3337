package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/rdf"
	"repro/internal/server"
)

// The load is a closed loop: callers are programs that wait for a reply
// before they send the next request, so a slower system receives less
// load. Only the mutator of serve_mixed runs to a schedule.

// sample is one verified-correct answer: its latency and when, counted
// from the start of the window, it was complete.
type sample struct {
	lat, done time.Duration
}

// tally is what one query caller observed.
type tally struct {
	samples   []sample
	attempted int
	failed    int
	status5xx int
	firstErr  string
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.status5xx += o.status5xx
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// statusError is a reply other than 200.
type statusError struct {
	code int
	body string
}

func (e statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// drain reads a response to the end and closes it, so the connection is
// reused.
func drain(resp *http.Response) error {
	_, err := io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = statusError{code: resp.StatusCode}
	}
	return err
}

// newHTTPClient returns a keep-alive client that never holds more than
// conns connections to the server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// poster sends POST requests over one logical connection, reading every
// reply in full into a reused buffer.
type poster struct {
	client *http.Client
	buf    bytes.Buffer
}

// post returns the reply body, valid until the next post.
func (p *poster) post(url string, hdr http.Header, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	p.buf.Reset()
	_, err = p.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := p.buf.String()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, statusError{code: resp.StatusCode, body: msg}
	}
	return p.buf.Bytes(), nil
}

// hashRows hashes a served answer.
func hashRows(rows [][]string) reference {
	var h rowHasher
	for _, r := range rows {
		h.add(r)
	}
	return h.reference()
}

// check compares an answer against the oracle: always on row count, and
// on the row hash when the answer was hashed.
func (q *querySpec) check(rows int, hashed bool, hash uint64) error {
	if rows != q.ref.Rows {
		return fmt.Errorf("%s: %d rows, oracle has %d", q.name, rows, q.ref.Rows)
	}
	if hashed && hash != q.ref.Hash {
		return fmt.Errorf("%s: row hash %x, oracle has %x", q.name, hash, q.ref.Hash)
	}
	return nil
}

// caller performs one operation the way a user of the system would and
// verifies the answer; full asks for the hash check on top of the count.
type caller interface {
	call(o op, full bool) (time.Duration, error)
}

// httpCaller is a client program: request sent, full body read and
// parsed.
type httpCaller struct {
	poster
	url string
}

func (c *httpCaller) call(o op, full bool) (time.Duration, error) {
	start := time.Now()
	body, err := c.post(c.url, nil, o.body)
	if err != nil {
		return 0, err
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return 0, fmt.Errorf("%s: reply is not JSON: %w", o.q.name, err)
	}
	lat := time.Since(start)
	var hash uint64
	if full {
		hash = hashRows(qr.Rows).Hash
	}
	return lat, o.q.check(len(qr.Rows), full, hash)
}

// libCaller is a program linking the library, with nothing cached: a
// fresh answerer (no plan cache, no feedback) per query, every row
// iterated.
type libCaller struct {
	store *repro.Store
}

func (c *libCaller) call(o op, full bool) (time.Duration, error) {
	start := time.Now()
	a := c.store.NewAnswerer(repro.Native, repro.Options{})
	res, err := a.QueryContext(context.Background(), o.q.text, o.strategy)
	if err != nil {
		return 0, err
	}
	rows := 0
	var kept [][]rdf.Term
	res.Each(func(row []rdf.Term) bool {
		rows++
		if full {
			kept = append(kept, row)
		}
		return true
	})
	lat := time.Since(start)
	var h rowHasher
	var cells []string
	for _, row := range kept {
		cells = canonicalRow(row, cells)
		h.add(cells)
	}
	return lat, o.q.check(rows, full, h.sum)
}

// Every answer is checked on its row count; answers under smallAnswer
// rows and every hashEvery-th answer are checked on the row hash too.
const (
	smallAnswer = 1000
	hashEvery   = 16
)

// runLoop is one closed-loop caller: it walks the operations in a
// freshly shuffled order each pass, so the mix is exact and the order is
// the seed's, from start until the deadline.
func runLoop(c caller, ops []op, rng *rand.Rand, start, until time.Time) *tally {
	t := &tally{}
	var order []int
	for n := 0; time.Now().Before(until); n++ {
		if n%len(ops) == 0 {
			order = rng.Perm(len(ops))
		}
		o := ops[order[n%len(ops)]]
		full := o.q.ref.Rows < smallAnswer || n%hashEvery == 0
		t.attempted++
		lat, err := c.call(o, full)
		if err != nil {
			if se, ok := err.(statusError); ok && se.code >= 500 {
				t.status5xx++
			}
			t.fail(err)
			continue
		}
		t.samples = append(t.samples, sample{lat: lat, done: time.Since(start)})
	}
	return t
}

// mutator is the paced writer of serve_mixed. Every period it adds one
// batch of triples whose predicate is outside the ontology (so no
// query's answer changes), removes the batch added hold periods earlier,
// and every compactEvery periods asks for a compaction. It is an open
// loop: each add is timed from when it was due, not from when it was
// sent, so a stall is charged to every update it delays.
type mutator struct {
	poster
	base         string
	period       time.Duration
	batch        int
	hold         int
	compactEvery int
}

func newMutator(client *http.Client, base string) *mutator {
	return &mutator{
		poster: poster{client: client}, base: base,
		period: 100 * time.Millisecond, batch: 20, hold: 10, compactEvery: 40,
	}
}

// mutStats is what the mutator observed.
type mutStats struct {
	update    []time.Duration // add round trip, from due time
	late      []time.Duration // how late each add was sent
	attempted int
	failed    int
	firstErr  string
}

func (s *mutStats) fail(err error) {
	s.failed++
	if s.firstErr == "" {
		s.firstErr = err.Error()
	}
}

// batchBody is the N-Triples text of batch k.
func (m *mutator) batchBody(k int) []byte {
	var b bytes.Buffer
	for i := 0; i < m.batch; i++ {
		fmt.Fprintf(&b, "<http://bench.example/s/%d/%d> <http://bench.example/linkedTo> <http://bench.example/o/%d> .\n", k, i, i)
	}
	return b.Bytes()
}

// update posts one batch and checks the server's count.
func (m *mutator) update(opName string, k int) error {
	body, err := m.post(m.base+"/update?op="+opName, nil, m.batchBody(k))
	if err != nil {
		return err
	}
	var ur server.UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		return err
	}
	if n := ur.Added + ur.Removed; n != m.batch {
		return fmt.Errorf("update %s of batch %d touched %d triples, want %d", opName, k, n, m.batch)
	}
	return nil
}

// run paces updates from start for dur, then removes what it still
// holds, so the store ends as it began.
func (m *mutator) run(start time.Time, dur time.Duration) *mutStats {
	s := &mutStats{}
	do := func(err error) {
		s.attempted++
		if err != nil {
			s.fail(err)
		}
	}
	k := 0
	for ; ; k++ {
		due := start.Add(time.Duration(k) * m.period)
		if due.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		late := time.Since(due)
		err := m.update("add", k)
		do(err)
		if err == nil {
			s.update = append(s.update, time.Since(due))
			s.late = append(s.late, late)
		}
		if k >= m.hold {
			do(m.update("remove", k-m.hold))
		}
		if k%m.compactEvery == m.compactEvery-1 {
			_, err := m.post(m.base+"/compact", nil, nil)
			do(err)
		}
	}
	for j := max(0, k-m.hold); j < k; j++ {
		do(m.update("remove", j))
	}
	return s
}

// load is the outcome of one window of a workload.
type load struct {
	queries *tally
	mut     *mutStats // nil unless the workload mutates
	elapsed time.Duration
}

// target is the set-up system a window runs against.
type target struct {
	store  *repro.Store
	svc    *service // nil for in-process workloads
	client *http.Client
}

// stop shuts the service down, if there is one. A failed shutdown is not
// reported: the server has no state to lose and the measurements it
// could touch are already taken.
func (tg target) stop() {
	if tg.svc != nil {
		_ = tg.svc.stop() //lint:ignore droppederr see the comment above
	}
}

// runLoad drives the workload's callers for dur. phase separates the
// random streams of the windows of one run.
func runLoad(w workload, tg target, ops []op, seed int64, phase int, dur time.Duration) load {
	start := time.Now()
	until := start.Add(dur)
	tallies := make([]*tally, w.clients)
	var wg sync.WaitGroup
	for i := 0; i < w.clients; i++ {
		var c caller
		if w.inProcess {
			c = &libCaller{store: tg.store}
		} else {
			c = &httpCaller{poster: poster{client: tg.client}, url: tg.svc.base + "/query"}
		}
		rng := rand.New(rand.NewSource(seed<<16 + int64(phase)<<8 + int64(i)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tallies[i] = runLoop(c, ops, rng, start, until)
		}(i)
	}
	var ld load
	if w.mutate {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ld.mut = newMutator(tg.client, tg.svc.base).run(start, dur)
		}()
	}
	wg.Wait()
	ld.elapsed = time.Since(start)
	ld.queries = &tally{}
	for _, t := range tallies {
		ld.queries.merge(t)
	}
	return ld
}

// attempted and failed count queries and updates together.
func (l load) attempted() int {
	n := l.queries.attempted
	if l.mut != nil {
		n += l.mut.attempted
	}
	return n
}

func (l load) failed() int {
	n := l.queries.failed
	if l.mut != nil {
		n += l.mut.failed
	}
	return n
}

func (l load) firstErr() string {
	if l.queries.firstErr != "" || l.mut == nil {
		return l.queries.firstErr
	}
	return l.mut.firstErr
}

// latencies returns the sorted latencies of the samples.
func latencies(samples []sample) []time.Duration {
	d := make([]time.Duration, len(samples))
	for i, s := range samples {
		d[i] = s.lat
	}
	return sorted(d)
}

// sorted returns a sorted copy.
func sorted(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// slices is how many equal parts a window is cut into. Each end-to-end
// rate and latency is the median over the parts of the part's own
// figure, so a disturbance that hits one part of a run (a collection, a
// noisy neighbour) does not move the run's result.
const slices = 5

// sliceStats is one part's throughput and latency percentiles.
type sliceStats struct {
	n             int
	qps, p50, p95 float64 // 1/s, ms, ms
}

// bySlice cuts the window into parts by completion time. An answer that
// completed after the window's end (the one in flight at the deadline)
// belongs to no part.
func bySlice(samples []sample, window time.Duration) []sliceStats {
	part := window / slices
	parts := make([][]sample, slices)
	for _, s := range samples {
		if i := int(s.done / part); i < slices {
			parts[i] = append(parts[i], s)
		}
	}
	out := make([]sliceStats, slices)
	for i, p := range parts {
		lat := latencies(p)
		out[i] = sliceStats{
			n:   len(p),
			qps: float64(len(p)) / part.Seconds(),
			p50: ms(quantile(lat, 0.50)),
			p95: ms(quantile(lat, 0.95)),
		}
	}
	return out
}

// medianOf is the median over the parts of one figure.
func medianOf(parts []sliceStats, f func(sliceStats) float64) float64 {
	v := make([]float64, len(parts))
	for i, p := range parts {
		v[i] = f(p)
	}
	return median(v)
}

// quantile is the nearest-rank q-quantile of a sorted sample (0 when
// empty).
func quantile(s []time.Duration, q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
