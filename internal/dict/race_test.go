package dict

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// Concurrent encoders racing on overlapping term sets must agree on the
// assigned IDs, and readers must always see a consistent dictionary.
// Run with -race; the test is about the schedule, not the assertions.
func TestDictConcurrentEncode(t *testing.T) {
	d := New()
	const workers = 8
	const terms = 200

	var wg sync.WaitGroup
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]ID, terms)
			for i := 0; i < terms; i++ {
				// Half the terms are shared across workers, half private.
				var term rdf.Term
				if i%2 == 0 {
					term = rdf.NewIRI(fmt.Sprintf("http://x/shared/%d", i))
				} else {
					term = rdf.NewIRI(fmt.Sprintf("http://x/w%d/%d", w, i))
				}
				ids[w][i] = d.Encode(term)
			}
		}(w)
	}
	wg.Wait()

	for i := 0; i < terms; i += 2 {
		want := ids[0][i]
		for w := 1; w < workers; w++ {
			if ids[w][i] != want {
				t.Fatalf("shared term %d: worker %d got ID %d, worker 0 got %d", i, w, ids[w][i], want)
			}
		}
	}
}

// Readers (Term, Lookup, Len) racing with writers (Encode) must never
// observe torn state.
func TestDictConcurrentReadWrite(t *testing.T) {
	d := New()
	seed := make([]ID, 50)
	for i := range seed {
		seed[i] = d.Encode(rdf.NewIRI(fmt.Sprintf("http://x/seed/%d", i)))
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % len(seed)
				if got := d.Term(seed[k]); got.Value == "" {
					t.Errorf("Term(%d) returned empty term", seed[k])
					return
				}
				if _, ok := d.Lookup(rdf.NewIRI(fmt.Sprintf("http://x/seed/%d", k))); !ok {
					t.Errorf("Lookup lost seed term %d", k)
					return
				}
				if d.Len() < len(seed) {
					t.Error("Len shrank below the seed set")
					return
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				d.Encode(rdf.NewIRI(fmt.Sprintf("http://x/new/w%d/%d", w, i)))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if want := len(seed) + 4*500; d.Len() != want {
		t.Errorf("Len = %d, want %d", d.Len(), want)
	}
}

// A View taken once keeps resolving its IDs, with no lock, while writers
// append past it — including across the reallocations of the term table.
// Run with -race: the view's reads and Encode's writes must not overlap.
func TestViewReadsBesideEncode(t *testing.T) {
	d := New()
	seed := make([]rdf.Term, 50)
	for i := range seed {
		seed[i] = rdf.NewIRI(fmt.Sprintf("http://x/seed/%d", i))
		d.Encode(seed[i])
	}
	v := d.View()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			d.Encode(rdf.NewIRI(fmt.Sprintf("http://x/new/%d", i)))
		}
	}()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		for i, want := range seed {
			if got := v.Term(ID(i + 1)); got != want {
				t.Fatalf("view Term(%d) = %v, want %v", i+1, got, want)
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("an ID assigned after the view was taken must be unassigned in it")
		}
	}()
	v.Term(ID(len(seed) + 1))
}
