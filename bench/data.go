package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro"
	"repro/internal/benchkit"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/server"
)

// workload is one traffic mix. Query names are lubm.Queries() names,
// plus FX1 from benchkit.FactorizedSpecs.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	queries    []string
	strategies []repro.Strategy // each query is asked once per strategy per pass
	clients    int              // closed-loop query callers
	mutate     bool             // a paced mutator runs beside the query callers
	inProcess  bool             // library calls with nothing cached, no server
}

var allLUBM = func() []string {
	var names []string
	for _, q := range lubm.Queries() {
		names = append(names, q.Name)
	}
	return names
}()

var workloads = []workload{
	{
		Name:    "serve_point",
		Why:     "sub-millisecond queries over HTTP: fixed per-request cost (admission, JSON, parse, plan-cache hit, net/http) dominates, the engine does little",
		queries: []string{"Q03", "Q10", "Q11", "Q12", "Q17", "Q20", "Q26", "Q27"}, strategies: []repro.Strategy{repro.GCov}, clients: 2,
	},
	{
		Name:    "serve_join",
		Why:     "20-50 ms join queries over HTTP with small answers: engine scan, bind-join and dedup over storage block decode dominate, parse and plan are noise",
		queries: []string{"Q01", "Q08", "Q09", "Q13", "Q18", "Q23"}, strategies: []repro.Strategy{repro.GCov}, clients: 2,
	},
	{
		Name:    "serve_bulk",
		Why:     "5k-17k-row answers over HTTP: answer output dominates (cursor expansion, dictionary decode, JSON encode and write, client read), evaluation is short",
		queries: []string{"Q06", "Q14", "FX1", "FX2"}, strategies: []repro.Strategy{repro.GCov}, clients: 2,
	},
	{
		Name:    "serve_mixed",
		Why:     "one query caller beside a paced mutator (add, remove, compact): version bumps invalidate plans and the statistics memo, scans merge a delta, compaction swaps blocks under pinned snapshots",
		queries: []string{"Q03", "Q10", "Q12", "Q17", "Q01", "Q13"}, strategies: []repro.Strategy{repro.GCov}, clients: 1, mutate: true,
	},
	{
		Name:    "lib_cold",
		Why:     "the paper's experiment: all 28 LUBM queries under ecov and gcov through a fresh answerer with no plan cache or feedback, no HTTP: cover search and reformulation run on every operation",
		queries: allLUBM, strategies: []repro.Strategy{repro.ECov, repro.GCov}, clients: 1, inProcess: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// datasetConfig returns the LUBM generator profile. The full shape is
// benchkit's `small` (lubm.Default, one university) with every count
// range pinned: 15 departments (the value at seed 42) and the midpoint of
// each other range. Left free, the ranges swing the dataset between 81k
// and 143k triples and the answers to the Department0 queries several
// times over from seed to seed, which no bound would survive; pinned,
// every seed gives the same shape (about 84k triples) with different
// people, courses and degrees.
func datasetConfig() lubm.Config {
	c := lubm.Default()
	pin := func(lo, hi *int, v int) { *lo, *hi = v, v }
	mid := func(lo, hi *int) { pin(lo, hi, (*lo+*hi)/2) }
	pin(&c.DeptsMin, &c.DeptsMax, 15)
	mid(&c.FullProfMin, &c.FullProfMax)
	mid(&c.AssocProfMin, &c.AssocProfMax)
	mid(&c.AssistProfMin, &c.AssistProfMax)
	mid(&c.LecturerMin, &c.LecturerMax)
	mid(&c.UndergradRatioMin, &c.UndergradRatioMax)
	mid(&c.GradRatioMin, &c.GradRatioMax)
	mid(&c.UndergradCoursesMin, &c.UndergradCoursesMax)
	mid(&c.GradCoursesMin, &c.GradCoursesMax)
	mid(&c.PubsFullMin, &c.PubsFullMax)
	mid(&c.PubsOtherMin, &c.PubsOtherMax)
	mid(&c.GroupsMin, &c.GroupsMax)
	return c
}

// loadStore generates the seed's dataset into a frozen store.
func loadStore(seed int64, cfg lubm.Config) (*repro.Store, error) {
	st := repro.NewStore()
	if err := st.AddAll(lubm.Ontology()); err != nil {
		return nil, fmt.Errorf("loading ontology: %w", err)
	}
	var addErr error
	lubm.Generate(1, seed, cfg, func(t rdf.Triple) {
		if err := st.Add(t); err != nil && addErr == nil {
			addErr = err
		}
	})
	if addErr != nil {
		return nil, fmt.Errorf("loading data: %w", addErr)
	}
	st.Freeze()
	return st, nil
}

// service is the program under test as a user runs it: the query server
// on a loopback listener in this process.
type service struct {
	base string // http://127.0.0.1:port

	hs     *http.Server
	served chan error // Serve's return value
}

// startService serves st with the configuration server.New ships. wrap,
// when non-nil, wraps the handler (the traced run records a span there).
func startService(st *repro.Store, wrap func(http.Handler) http.Handler) (*service, error) {
	srv, err := server.New(server.Config{Store: st})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &service{
		base:   "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its goroutine.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// setUp is what setup_s times: generate, load, freeze, and either a
// server that answers /healthz or (in-process workloads) a first
// answerer.
func setUp(w workload, seed int64, cfg lubm.Config, client *http.Client, wrap func(http.Handler) http.Handler) (*repro.Store, *service, error) {
	st, err := loadStore(seed, cfg)
	if err != nil {
		return nil, nil, err
	}
	if w.inProcess {
		st.NewAnswerer(repro.Native, repro.Options{})
		return st, nil, nil
	}
	svc, err := startService(st, wrap)
	if err != nil {
		return nil, nil, err
	}
	resp, err := client.Get(svc.base + "/healthz")
	if err == nil {
		err = drain(resp)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("healthz: %w (stop: %v)", err, svc.stop())
	}
	return st, svc, nil
}

// querySpec is one query of a workload with its verified reference.
type querySpec struct {
	name string
	text string
	ref  reference
}

// op is one operation of a pass: a query under a strategy.
type op struct {
	q        *querySpec
	strategy repro.Strategy
	body     []byte // POST /query request
}

// specsFor resolves the workload's query names and builds one pass of
// operations, attaching the oracle's references.
func specsFor(w workload, orc *oracle) ([]op, error) {
	texts := queryTexts()
	var ops []op
	for _, name := range w.queries {
		text, ok := texts[name]
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown query %s", w.Name, name)
		}
		ref, ok := orc.Refs[name]
		if !ok {
			return nil, fmt.Errorf("workload %s: oracle has no reference for %s", w.Name, name)
		}
		q := &querySpec{name: name, text: text, ref: ref}
		for _, strat := range w.strategies {
			body, err := json.Marshal(server.QueryRequest{Query: text, Strategy: string(strat), Profile: repro.Native.Name})
			if err != nil {
				return nil, err
			}
			ops = append(ops, op{q: q, strategy: strat, body: body})
		}
	}
	return ops, nil
}

// distinctQueries returns the queries of a pass, each once.
func distinctQueries(ops []op) []*querySpec {
	var queries []*querySpec
	seen := make(map[*querySpec]bool)
	for _, o := range ops {
		if !seen[o.q] {
			seen[o.q] = true
			queries = append(queries, o.q)
		}
	}
	return queries
}

// queryTexts maps every query any workload may name to its SPARQL text.
func queryTexts() map[string]string {
	texts := make(map[string]string)
	for _, q := range lubm.Queries() {
		texts[q.Name] = q.Text
	}
	for _, s := range benchkit.FactorizedSpecs() {
		texts[s.Name] = s.Text
	}
	return texts
}
