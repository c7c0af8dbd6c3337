// Rdfserver serves a repro.Store as an HTTP/JSON query service: each
// request pins a storage snapshot, shares one global plan cache, runs
// under a per-request deadline and is admission-controlled (429 beyond
// -maxinflight concurrently evaluating queries).
//
// Usage:
//
//	rdfserver -data lubm.nt                         # serve N-Triples files
//	rdfserver -lubm 1 -addr :9090 -cache 512        # self-generate LUBM(1)
//	rdfserver -lubm 1 -addr 127.0.0.1:0             # ephemeral port, printed
//
// The server announces "rdfserver listening on <host:port>" on stdout
// once ready, so scripts can bind :0 and parse the assigned port. SIGINT
// or SIGTERM drains in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	data := flag.String("data", "", "comma-separated N-Triples files to load")
	lubmUnivs := flag.Int("lubm", 0, "instead of -data, self-generate an LUBM dataset with N universities")
	saturate := flag.Bool("saturate", false, "saturate the store at startup (required for strategy=saturation requests)")
	cacheCap := flag.Int("cache", 256, "shared plan-cache capacity in entries")
	maxInflight := flag.Int("maxinflight", 0, "max concurrently evaluating queries, 429 beyond (0 = 4 x GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("maxtimeout", 0, "cap on the deadline a request may ask for (0 = 4 x -timeout)")
	profile := flag.String("profile", "", "default engine profile for requests that name none (default native)")
	strategy := flag.String("strategy", "", "default strategy for requests that name none (default gcov)")
	maxResponse := flag.Int64("maxresponse", 0, "max encoded response size in bytes, 413 beyond (0 = unlimited)")
	flag.Parse()

	if (*data == "") == (*lubmUnivs <= 0) {
		fmt.Fprintln(os.Stderr, "rdfserver: provide exactly one of -data or -lubm N")
		os.Exit(2)
	}
	if *profile != "" {
		if _, ok := repro.ProfileByName(*profile); !ok {
			fmt.Fprintf(os.Stderr, "rdfserver: unknown profile %q (valid: %s)\n", *profile, strings.Join(repro.ProfileNames(), ", "))
			os.Exit(2)
		}
	}
	if *strategy != "" {
		if _, ok := repro.StrategyByName(*strategy); !ok {
			fmt.Fprintf(os.Stderr, "rdfserver: unknown strategy %q (valid: %s)\n", *strategy, strings.Join(repro.StrategyNames(), ", "))
			os.Exit(2)
		}
	}

	st := repro.NewStore()
	start := time.Now()
	if *data != "" {
		total := 0
		for _, path := range strings.Split(*data, ",") {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			n, err := st.LoadNTriples(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
			total += n
		}
		fmt.Fprintf(os.Stderr, "loaded %d triples in %v (store: %d)\n", total, time.Since(start).Round(time.Millisecond), st.NumTriples())
	} else {
		emit := func(t rdf.Triple) { st.MustAdd(t) }
		for _, t := range lubm.Ontology() {
			emit(t)
		}
		lubm.Generate(*lubmUnivs, 42, lubm.Default(), emit)
		fmt.Fprintf(os.Stderr, "generated LUBM(%d): %d triples in %v\n", *lubmUnivs, st.NumTriples(), time.Since(start).Round(time.Millisecond))
	}
	st.Freeze()
	if *saturate {
		start = time.Now()
		added := st.Saturate()
		fmt.Fprintf(os.Stderr, "saturated: +%d implicit triples in %v\n", added, time.Since(start).Round(time.Millisecond))
	}

	s, err := server.New(server.Config{
		Store:            st,
		CacheCap:         *cacheCap,
		MaxInflight:      *maxInflight,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		DefaultProfile:   *profile,
		DefaultStrategy:  *strategy,
		MaxResponseBytes: *maxResponse,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Announced on stdout (everything else reports on stderr) so scripts
	// can bind :0 and parse the kernel-assigned port from this line.
	fmt.Printf("rdfserver listening on %s\n", ln.Addr())

	// A connection that never finishes its request headers is dropped, not
	// held: admission control only starts once a request has been read.
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "rdfserver: draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdfserver:", err)
	os.Exit(1)
}
