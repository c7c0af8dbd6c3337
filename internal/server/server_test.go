package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/server"
)

func iri(local string) rdf.Term { return rdf.NewIRI("http://example.org/" + local) }

const (
	qPub = `PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ex:Publication }`
	qAuthors = `PREFIX ex: <http://example.org/>
		SELECT ?x ?name WHERE { ?x ex:hasAuthor ?a . ?a ex:hasName ?name }`
)

// bookStore builds the paper's book schema with `books` book instances;
// both qPub and qAuthors need reasoning over it (Book subclass-of
// Publication, writtenBy subproperty-of hasAuthor, domain of writtenBy).
func bookStore(t testing.TB, books int) *repro.Store {
	t.Helper()
	st := repro.NewStore()
	add := func(tr rdf.Triple) {
		t.Helper()
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	add(rdf.NewTriple(iri("Book"), rdf.SubClassOf, iri("Publication")))
	add(rdf.NewTriple(iri("writtenBy"), rdf.SubPropertyOf, iri("hasAuthor")))
	add(rdf.NewTriple(iri("writtenBy"), rdf.Domain, iri("Book")))
	add(rdf.NewTriple(iri("writtenBy"), rdf.Range, iri("Person")))
	for i := 0; i < books; i++ {
		b := iri(fmt.Sprintf("book%d", i))
		a := iri(fmt.Sprintf("author%d", i%7))
		if i%2 == 0 {
			add(rdf.NewTriple(b, rdf.Type, iri("Book")))
		}
		add(rdf.NewTriple(b, iri("writtenBy"), a))
		add(rdf.NewTriple(a, iri("hasName"), rdf.NewLiteral(fmt.Sprintf("name%d", i%7))))
	}
	st.Freeze()
	return st
}

// denseStore builds a complete directed p-graph over n nodes: a chained
// join over it is expensive enough to hold a request slot for a while.
func denseStore(t testing.TB, n int) *repro.Store {
	t.Helper()
	st := repro.NewStore()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := st.Add(rdf.NewTriple(iri(fmt.Sprintf("n%d", i)), iri("p"), iri(fmt.Sprintf("n%d", j)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Freeze()
	return st
}

const (
	// qChain over denseStore(90) runs for roughly a quarter second —
	// long enough that a millisecond deadline reliably interrupts it
	// even though a saturated scheduler delays the deadline timer by up
	// to ~10ms (the runtime's forced-preemption interval).
	qChain = `PREFIX ex: <http://example.org/>
	SELECT ?a WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?d }`
	qEdge = `PREFIX ex: <http://example.org/>
	SELECT ?a WHERE { ?a ex:p ?b }`
)

func newTestServer(t testing.TB, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSONE is the goroutine-safe request helper: errors are returned,
// not reported to t.
func postJSONE(url string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, out, err
}

func postJSON(t testing.TB, url string, body any) (int, []byte) {
	t.Helper()
	code, out, err := postJSONE(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// queryRowsE posts a query and returns its sorted answer set.
func queryRowsE(url, query, strategy string) ([]string, error) {
	code, body, err := postJSONE(url+"/query", server.QueryRequest{Query: query, Strategy: strategy})
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST /query = %d: %s", code, body)
	}
	var res server.QueryResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return sortedRows(res.Rows), nil
}

func queryRows(t testing.TB, url, query, strategy string) []string {
	t.Helper()
	rows, err := queryRowsE(url, query, strategy)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\t")
	}
	sort.Strings(out)
	return out
}

// directRows answers the query through the library (no HTTP) and
// canonicalizes the answer set the same way the server does.
func directRows(t testing.TB, a *repro.Answerer, query string, strategy repro.Strategy) []string {
	t.Helper()
	res, err := a.Query(query, strategy)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, res.NumRows())
	for i, row := range res.Rows() {
		out := make([]string, len(row))
		for j, term := range row {
			out[j] = term.Canonical()
		}
		rows[i] = out
	}
	return sortedRows(rows)
}

// The HTTP answer must be byte-identical (as a sorted answer set) to the
// direct library answer, for every strategy the server accepts.
func TestQueryMatchesDirectEvaluation(t *testing.T) {
	st := bookStore(t, 40)
	_, ts := newTestServer(t, server.Config{Store: st})
	direct := bookStore(t, 40).NewAnswerer(repro.Native, repro.Options{})
	for _, strat := range []string{"ucq", "scq", "ecov", "gcov"} {
		for _, q := range []string{qPub, qAuthors} {
			got := queryRows(t, ts.URL, q, strat)
			want := directRows(t, direct, q, repro.Strategy(strat))
			if len(want) == 0 {
				t.Fatalf("%s: empty direct answer — bad fixture", strat)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s: HTTP answer differs from direct evaluation\n got: %v\nwant: %v", strat, got, want)
			}
		}
	}
}

// Concurrent queries racing /update (add and remove of noise triples
// that no query matches) and /compact must still answer byte-identically
// to direct evaluation over the unmutated data.
func TestConcurrentQueriesRaceMutations(t *testing.T) {
	st := bookStore(t, 60)
	_, ts := newTestServer(t, server.Config{Store: st, MaxInflight: 64})
	direct := bookStore(t, 60).NewAnswerer(repro.Native, repro.Options{})
	want := map[string]string{
		qPub:     strings.Join(directRows(t, direct, qPub, repro.GCov), "\n"),
		qAuthors: strings.Join(directRows(t, direct, qAuthors, repro.GCov), "\n"),
	}

	const (
		readers   = 8
		mutators  = 3
		perWorker = 25
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+mutators)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := qPub
				if (r+i)%2 == 0 {
					q = qAuthors
				}
				rows, err := queryRowsE(ts.URL, q, "gcov")
				if err != nil {
					errc <- fmt.Errorf("reader %d iter %d: %w", r, i, err)
					return
				}
				if got := strings.Join(rows, "\n"); got != want[q] {
					errc <- fmt.Errorf("reader %d iter %d: answer diverged under mutation", r, i)
					return
				}
			}
		}(r)
	}
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				nt := fmt.Sprintf("<http://example.org/junk%d-%d> <http://example.org/noise> <http://example.org/x> .\n", m, i)
				resp, err := http.Post(ts.URL+"/update?op=add", "application/n-triples", strings.NewReader(nt))
				if err != nil {
					errc <- err
					return
				}
				if err := resp.Body.Close(); err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("mutator %d: add = %d", m, resp.StatusCode)
					return
				}
				op := "remove"
				if i%5 == 4 {
					op = "add" // leave some noise behind
				}
				if i%7 == 6 {
					resp, err := http.Post(ts.URL+"/compact", "application/json", nil)
					if err != nil {
						errc <- err
						return
					}
					if err := resp.Body.Close(); err != nil {
						errc <- err
						return
					}
				}
				resp, err = http.Post(ts.URL+"/update?op="+op, "application/n-triples", strings.NewReader(nt))
				if err != nil {
					errc <- err
					return
				}
				if err := resp.Body.Close(); err != nil {
					errc <- err
					return
				}
			}
		}(m)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// Updates must be visible to subsequent queries: adding a book grows the
// publication answer, removing it shrinks it back.
func TestUpdateChangesAnswers(t *testing.T) {
	st := bookStore(t, 10)
	_, ts := newTestServer(t, server.Config{Store: st})
	before := queryRows(t, ts.URL, qPub, "gcov")

	nt := "<http://example.org/newbook> <http://example.org/writtenBy> <http://example.org/author0> .\n"
	resp, err := http.Post(ts.URL+"/update?op=add", "application/n-triples", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	after := queryRows(t, ts.URL, qPub, "gcov")
	if len(after) != len(before)+1 {
		t.Fatalf("after add: %d publications, want %d", len(after), len(before)+1)
	}

	resp, err = http.Post(ts.URL+"/update?op=remove", "application/n-triples", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	final := queryRows(t, ts.URL, qPub, "gcov")
	if len(final) != len(before) {
		t.Fatalf("after remove: %d publications, want %d", len(final), len(before))
	}
}

// A request whose deadline has expired must be answered 504 with the
// typed "canceled" error name, leave no goroutines behind, and leave the
// server fully able to answer the next query.
func TestDeadlineReturns504AndLeaksNothing(t *testing.T) {
	st := denseStore(t, 90)
	_, ts := newTestServer(t, server.Config{Store: st})

	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		code, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Query: qChain, TimeoutMS: 1})
		if code != http.StatusGatewayTimeout {
			t.Fatalf("iter %d: status = %d (%s), want 504", i, code, body)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Error != "canceled" {
			t.Fatalf("iter %d: error name = %q, want \"canceled\"", i, er.Error)
		}
	}

	// The server must still answer an uncanceled query afterwards.
	if rows := queryRows(t, ts.URL, qEdge, "gcov"); len(rows) == 0 {
		t.Error("no rows from the edge query after cancellations")
	}

	// Canceled evaluations must not leave goroutines behind. Allow the
	// HTTP client/server keep-alive machinery a moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+5 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline = %d: canceled evaluations leaked", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Repeating the same queries must climb the shared plan cache's hit
// rate, visible through /statz.
func TestPlanCacheHitRateClimbs(t *testing.T) {
	st := bookStore(t, 30)
	s, ts := newTestServer(t, server.Config{Store: st, MaxInflight: 32})

	const workers, iters = 6, 20
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := qPub
				if (w+i)%2 == 0 {
					q = qAuthors
				}
				if _, err := queryRowsE(ts.URL, q, "gcov"); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	stats := s.CacheStats()
	if stats.Hits == 0 {
		t.Fatalf("no plan cache hits after %d repeated queries: %+v", workers*iters, stats)
	}
	if rate := stats.HitRate(); rate < 0.5 {
		t.Errorf("hit rate = %.2f after heavy repetition, want >= 0.5 (%+v)", rate, stats)
	}

	var statz server.StatzResponse
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if statz.Cache.Hits != stats.Hits || statz.Cache.HitRate == 0 {
		t.Errorf("statz cache section %+v does not reflect cache stats %+v", statz.Cache, stats)
	}
	if statz.Served == 0 || statz.Triples == 0 {
		t.Errorf("statz = %+v: served and triples must be non-zero", statz)
	}
}

// Budget errors must surface as typed names and distinct statuses, and
// the underlying library errors must stay errors.Is-matchable.
func TestBudgetErrorStatusMapping(t *testing.T) {
	st := bookStore(t, 40)
	profiles := map[string]repro.Profile{
		"tinywork": {Name: "tinywork", WorkBudget: 2, ArmJoin: engine.HashJoin},
		"tinymem":  {Name: "tinymem", MaxMaterializedRows: 1, ArmJoin: engine.HashJoin},
		"tinyplan": {Name: "tinyplan", MaxPlanLeaves: 1, ArmJoin: engine.HashJoin},
	}
	_, ts := newTestServer(t, server.Config{Store: st, Profiles: profiles})

	cases := []struct {
		profile  string
		status   int
		name     string
		sentinel error
	}{
		{"tinywork", http.StatusServiceUnavailable, "work_budget", repro.ErrWorkBudget},
		{"tinymem", http.StatusRequestEntityTooLarge, "memory_budget", repro.ErrMemoryBudget},
		{"tinyplan", http.StatusRequestEntityTooLarge, "plan_too_complex", repro.ErrPlanTooComplex},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Query: qPub, Strategy: "ucq", Profile: tc.profile})
		if code != tc.status {
			t.Errorf("%s: status = %d (%s), want %d", tc.profile, code, body, tc.status)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Error != tc.name {
			t.Errorf("%s: error name = %q, want %q", tc.profile, er.Error, tc.name)
		}

		// The same failure through the library must match the sentinel.
		a := bookStore(t, 40).NewAnswerer(profiles[tc.profile], repro.Options{})
		if _, err := a.Query(qPub, repro.UCQ); !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: library err = %v, want errors.Is %v", tc.profile, err, tc.sentinel)
		}
	}
}

// Unknown strategy and profile names must be rejected with 400 and a
// message listing the valid names; malformed queries with 400.
func TestBadRequestsRejected(t *testing.T) {
	st := bookStore(t, 5)
	_, ts := newTestServer(t, server.Config{Store: st})

	code, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Query: qPub, Strategy: "bogus"})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "gcov") {
		t.Errorf("unknown strategy: %d %s — want 400 listing valid strategies", code, body)
	}
	code, body = postJSON(t, ts.URL+"/query", server.QueryRequest{Query: qPub, Profile: "bogus"})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "native") {
		t.Errorf("unknown profile: %d %s — want 400 listing valid profiles", code, body)
	}
	code, body = postJSON(t, ts.URL+"/query", server.QueryRequest{Query: "NOT SPARQL"})
	if code != http.StatusBadRequest {
		t.Errorf("malformed query: %d %s — want 400", code, body)
	}
}

// With MaxInflight 1, a query arriving while the single slot is held
// must be rejected 429 with the typed "overloaded" error, and the slot
// holder must still complete with 200.
func TestOverloadSheds429(t *testing.T) {
	st := denseStore(t, 90)
	_, ts := newTestServer(t, server.Config{Store: st, MaxInflight: 1})

	type result struct {
		code int
		body []byte
		err  error
	}
	slow := make(chan result, 1)
	go func() {
		code, body, err := postJSONE(ts.URL+"/query", server.QueryRequest{Query: qChain, TimeoutMS: 30_000})
		slow <- result{code, body, err}
	}()

	// Wait until the slow query holds the slot (statz bypasses admission).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		var statz server.StatzResponse
		err = json.NewDecoder(resp.Body).Decode(&statz)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if statz.Inflight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	code, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Query: qEdge})
	if code != http.StatusTooManyRequests {
		t.Errorf("second query while slot held: %d (%s), want 429", code, body)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error != "overloaded" {
		t.Errorf("error name = %q, want \"overloaded\"", er.Error)
	}

	res := <-slow
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.code != http.StatusOK {
		t.Errorf("slot-holding query: %d (%s), want 200", res.code, res.body)
	}
}

// Graceful shutdown must drain: a query in flight when Shutdown is
// called completes with 200.
func TestGracefulShutdownDrains(t *testing.T) {
	st := denseStore(t, 90)
	s, err := server.New(server.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		code, body, err := postJSONE(hs.URL+"/query", server.QueryRequest{Query: qChain, TimeoutMS: 30_000})
		if err != nil {
			done <- result{0, []byte(err.Error())}
			return
		}
		done <- result{code, body}
	}()
	time.Sleep(30 * time.Millisecond) // let the query get in flight
	closed := make(chan struct{})
	go func() {
		hs.Close() // blocks until in-flight requests finish
		close(closed)
	}()

	select {
	case res := <-done:
		if res.code != http.StatusOK {
			t.Fatalf("in-flight query during shutdown: %d %s", res.code, res.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight query did not complete under shutdown")
	}
	<-closed
}

// Every profile's feedback loop observes served queries and surfaces its
// drift counters through /statz; answers are unchanged by the loop, and
// NoFeedback removes the section entirely.
func TestFeedbackStatzReportsObservations(t *testing.T) {
	st := bookStore(t, 30)
	s, ts := newTestServer(t, server.Config{Store: st})
	stOff := bookStore(t, 30)
	_, tsOff := newTestServer(t, server.Config{Store: stOff, NoFeedback: true})

	var want []string
	for i := 0; i < 5; i++ {
		rows := queryRows(t, ts.URL, qAuthors, "gcov")
		offRows := queryRows(t, tsOff.URL, qAuthors, "gcov")
		if i == 0 {
			want = rows
		}
		for _, got := range [][]string{rows, offRows} {
			if len(got) != len(want) {
				t.Fatalf("answer drifted across feedback modes: %d rows, want %d", len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("answer drifted across feedback modes at row %d: %q vs %q", j, got[j], want[j])
				}
			}
		}
	}

	fs := s.FeedbackStats("native")
	if fs.Observations == 0 {
		t.Errorf("native loop observed nothing after %d queries", 5)
	}

	var statz server.StatzResponse
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	fb, ok := statz.Feedback["native"]
	if !ok {
		t.Fatalf("statz feedback section missing the native profile: %+v", statz.Feedback)
	}
	if fb.Observations == 0 {
		t.Errorf("statz native loop shows zero observations: %+v", fb)
	}

	resp, err = http.Get(tsOff.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statzOff server.StatzResponse
	if err := json.NewDecoder(resp.Body).Decode(&statzOff); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if statzOff.Feedback != nil {
		t.Errorf("NoFeedback server still reports a feedback section: %+v", statzOff.Feedback)
	}
	if s.FeedbackStats("no-such-profile") != (repro.FeedbackStats{}) {
		t.Error("unknown profile must snapshot to zero")
	}
}

// A response-byte cap must reject oversized answers with 413 and the
// stable response_too_large code, before any partial body reaches the
// client; a generous cap must stream the exact same answer a capless
// server returns, complete with every response field.
func TestMaxResponseBytesCaps(t *testing.T) {
	st := bookStore(t, 40)
	_, capped := newTestServer(t, server.Config{Store: st, MaxResponseBytes: 128})
	code, body := postJSON(t, capped.URL+"/query", server.QueryRequest{Query: qAuthors, Strategy: "ucq"})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("capped POST /query = %d, want 413: %s", code, body)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("413 body is not an ErrorResponse: %v: %s", err, body)
	}
	if er.Error != "response_too_large" {
		t.Fatalf("413 error code = %q, want response_too_large", er.Error)
	}

	// The capped server is not wedged: the rejection released its slot.
	code, body = postJSON(t, capped.URL+"/query", server.QueryRequest{Query: qAuthors, Strategy: "ucq"})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("second capped POST /query = %d, want 413: %s", code, body)
	}

	_, roomy := newTestServer(t, server.Config{Store: st, MaxResponseBytes: 1 << 20})
	code, body = postJSON(t, roomy.URL+"/query", server.QueryRequest{Query: qAuthors, Strategy: "ucq"})
	if code != http.StatusOK {
		t.Fatalf("roomy POST /query = %d: %s", code, body)
	}
	var res server.QueryResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("streamed response is not a QueryResponse: %v", err)
	}
	if len(res.Vars) != 2 || res.Strategy != "ucq" || res.Profile == "" || res.ElapsedMS < 0 {
		t.Fatalf("streamed response lost fields: %+v", res)
	}
	got := sortedRows(res.Rows)
	want := directRows(t, bookStore(t, 40).NewAnswerer(repro.Native, repro.Options{}), qAuthors, "ucq")
	if len(want) == 0 {
		t.Fatal("empty direct answer — bad fixture")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("streamed answer differs from direct evaluation\n got: %v\nwant: %v", got, want)
	}
}

func getStatz(t testing.TB, url string) server.StatzResponse {
	t.Helper()
	resp, err := http.Get(url + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statz server.StatzResponse
	err = json.NewDecoder(resp.Body).Decode(&statz)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return statz
}

// crossStore holds n instances each of two classes; qCross over it
// answers their n x n cross product, about 75 bytes a row on the wire.
func crossStore(t testing.TB, n int) *repro.Store {
	t.Helper()
	st := repro.NewStore()
	for i := 0; i < n; i++ {
		for _, class := range []string{"Left", "Right"} {
			if err := st.Add(rdf.NewTriple(iri(fmt.Sprintf("%s%d", class, i)), rdf.Type, iri(class))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Freeze()
	return st
}

const qCross = `PREFIX ex: <http://example.org/>
	SELECT ?x ?y WHERE { ?x a ex:Left . ?y a ex:Right }`

// /statz counts an answer as served once its 200 is committed: once for
// a streamed (chunked) answer, not at all for one refused at the cap.
func TestServedCountsCommittedAnswers(t *testing.T) {
	st := crossStore(t, 60) // 3,600 rows, ~270 kB: several chunks
	_, capped := newTestServer(t, server.Config{Store: st, MaxResponseBytes: 100 << 10})
	if code, body := postJSON(t, capped.URL+"/query", server.QueryRequest{Query: qCross}); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("capped POST /query = %d, want 413: %.200s", code, body)
	}
	if got := getStatz(t, capped.URL).Served; got != 0 {
		t.Errorf("served = %d after a 413 response_too_large, want 0", got)
	}

	_, open := newTestServer(t, server.Config{Store: st})
	resp, err := http.Post(open.URL+"/query", "application/json", strings.NewReader(`{"query":`+jsonString(qCross)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	// Read to the end of the body: net/http ends it once the handler has
	// returned, so the count below is not racing the handler.
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var res server.QueryResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(res.Rows) != 3600 {
		t.Fatalf("POST /query = %d with %d rows, want 200 with 3600", resp.StatusCode, len(res.Rows))
	}
	if resp.ContentLength != -1 || len(resp.TransferEncoding) == 0 {
		t.Errorf("a multi-chunk answer must stream: Content-Length %d, Transfer-Encoding %v", resp.ContentLength, resp.TransferEncoding)
	}
	if got := getStatz(t, open.URL).Served; got != 1 {
		t.Errorf("served = %d after one streamed answer, want 1", got)
	}
}

func jsonString(s string) string {
	data, _ := json.Marshal(s)
	return string(data)
}

// rawPost sends one request verbatim, half-closes the connection and
// returns the reply's status and body.
func rawPost(t testing.TB, ts *httptest.Server, request string) (int, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, request); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// Request bodies are bounded: past the limit both endpoints answer 413
// request_too_large; a body cut short of its Content-Length is a 400, not
// a hang or a 5xx; and the server answers normally afterwards.
func TestRequestBodyLimits(t *testing.T) {
	st := bookStore(t, 10)
	_, ts := newTestServer(t, server.Config{Store: st})
	wantError := func(what string, code int, body []byte, wantCode int, wantName string) {
		t.Helper()
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || code != wantCode || er.Error != wantName {
			t.Errorf("%s: %d %.200s — want %d %s", what, code, body, wantCode, wantName)
		}
	}

	huge := `{"query":"` + strings.Repeat("x", 1<<20) + `"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantError("oversized /query", resp.StatusCode, body, http.StatusRequestEntityTooLarge, "request_too_large")

	// 64 MiB of valid N-Triples and one line more, generated as it is sent.
	line := "<http://example.org/junk> <http://example.org/noise> <http://example.org/x> .\n"
	lines := (64<<20)/len(line) + 1
	before := getStatz(t, ts.URL).Triples
	resp, err = http.Post(ts.URL+"/update?op=remove", "application/n-triples", io.LimitReader(repeatReader(line), int64(lines*len(line))))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	wantError("oversized /update", resp.StatusCode, body, http.StatusRequestEntityTooLarge, "request_too_large")

	code, body := rawPost(t, ts, "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n"+`{"query":"SELECT`)
	wantError("truncated /query", code, body, http.StatusBadRequest, "bad_request")
	code, body = rawPost(t, ts, "POST /update HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\n"+line+line[:40])
	wantError("truncated /update", code, body, http.StatusBadRequest, "bad_update")

	if after := getStatz(t, ts.URL).Triples; after != before+1 {
		t.Errorf("triples = %d, want %d: the complete line of the truncated add, nothing else", after, before+1)
	}
	if rows := queryRows(t, ts.URL, qPub, "gcov"); len(rows) == 0 {
		t.Error("no rows from a plain query after the rejected bodies")
	}
}

// repeatReader reads s over and over.
type repeatReader string

func (r repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n+len(r) <= len(p) {
		n += copy(p[n:], r)
	}
	if n == 0 {
		n = copy(p, r[:len(p)]) // only ever the first read of a tiny buffer
	}
	return n, nil
}

// A client that walks away from a streaming answer must not keep its
// admission slot, a goroutine or anything else: the failed write ends
// the encoding and the handler.
func TestClientDisconnectMidStream(t *testing.T) {
	st := crossStore(t, 500) // 250,000 rows, ~19 MB: more than the socket buffers hold
	_, ts := newTestServer(t, server.Config{Store: st, MaxInflight: 1})
	reqBody := `{"query":` + jsonString(qCross) + `}`

	baseline := runtime.NumGoroutine()
	deadline := time.Now().Add(10 * time.Second)
	for left := 3; left > 0; {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(reqBody), reqBody); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		// With MaxInflight 1, a 200 means the stream abandoned before
		// this one has already given its slot back.
		if resp.StatusCode == http.StatusOK {
			left--
			head := make([]byte, 4096)
			if _, err := io.ReadFull(resp.Body, head); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(head, []byte(`{"vars":["x","y"],"rows":[["<http://example.org/Left0>"`)) {
				t.Fatalf("unexpected start of the streamed answer: %.300s", head)
			}
		} else if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("streaming query: status %d", resp.StatusCode)
		}
		if err := conn.Close(); err != nil { // unread data pending: the server's next writes fail
			t.Fatal(err)
		}
	}

	for {
		code, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Query: `PREFIX ex: <http://example.org/>
			SELECT ?x WHERE { ?x a ex:Left }`})
		if code == http.StatusOK {
			break
		}
		if code != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("query after the disconnects: %d %.200s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if statz := getStatz(t, ts.URL); statz.Inflight != 0 {
		t.Errorf("inflight = %d after every client left, want 0", statz.Inflight)
	}
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+5 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline = %d: abandoned streams leaked", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A client that reads the start of a streamed answer and then stalls —
// connection open, nothing read — must not pin its admission slot: body
// writes fail at the request's own deadline, the handler returns, the
// slot comes back and /statz counts the abort.
func TestStalledClientReleasesItsSlot(t *testing.T) {
	st := crossStore(t, 500) // 250,000 rows, ~19 MB: more than the socket buffers hold
	_, ts := newTestServer(t, server.Config{Store: st, MaxInflight: 1})
	reqBody := `{"timeout_ms":1500,"query":` + jsonString(qCross) + `}`

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(reqBody), reqBody); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming query: status %d", resp.StatusCode)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	// From here the client reads nothing and keeps the connection open.

	for {
		code, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Query: `PREFIX ex: <http://example.org/>
			SELECT ?x WHERE { ?x a ex:Left }`})
		if code == http.StatusOK {
			break
		}
		if code != http.StatusTooManyRequests || time.Since(start) > 10*time.Second {
			t.Fatalf("query beside the stalled client: %d %.200s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("the stalled client held its slot for %v, request deadline 1.5s", waited)
	}
	statz := getStatz(t, ts.URL)
	if statz.Inflight != 0 || statz.Aborted != 1 || statz.Served != 1 {
		t.Errorf("inflight %d aborted %d served %d after the stall, want 0, 1, 1", statz.Inflight, statz.Aborted, statz.Served)
	}
}
