package dict_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/lubm"
	"repro/internal/rdf"
)

// smallTerms loads the LUBM small dataset (one university, seed 42, with
// its ontology) into a fresh dictionary, returning it with the bytes its
// load left live on the heap.
func smallTerms() (*dict.Dict, uint64) {
	base := liveHeap()
	d := dict.New()
	for _, t := range lubm.Ontology() {
		d.EncodeTriple(t)
	}
	lubm.Generate(1, 42, lubm.Default(), func(t rdf.Triple) { d.EncodeTriple(t) })
	return d, liveHeap() - base
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

var sinkID dict.ID
var sinkTerm rdf.Term

// BenchmarkDictionary measures the dictionary over the LUBM small terms:
// its resident bytes per term, measured (B/term: live heap after GC ÷
// terms) and as Dict.Bytes counts them (counted-B/term), and the time of
// one operation of each kind. The dictionary copies each value into its
// arena, so the generator's strings are garbage once encoded and the two
// measures agree.
func BenchmarkDictionary(b *testing.B) {
	d, heap := smallTerms()
	n := d.Len()
	v := d.View()
	terms := make([]rdf.Term, n)
	for i := range terms {
		terms[i] = v.Term(dict.ID(i + 1))
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(heap)/float64(n), "B/term")
		b.ReportMetric(float64(d.Bytes())/float64(n), "counted-B/term")
	}
	b.Run("EncodeKnown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkID = d.Encode(terms[i%n])
		}
		report(b)
	})
	b.Run("EncodeNew", func(b *testing.B) {
		var fresh *dict.Dict
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				b.StopTimer()
				fresh = dict.New()
				b.StartTimer()
			}
			sinkID = fresh.Encode(terms[i%n])
		}
		report(b)
	})
	b.Run("Lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkID, _ = d.Lookup(terms[i%n])
		}
		report(b)
	})
	b.Run("ViewTerm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkTerm = v.Term(dict.ID(i%n + 1))
		}
		report(b)
	})
	runtime.KeepAlive(d)
}

// The dictionary copies what it keeps: terms cut from 4 KiB strings keep
// none of them alive, so the heap the dictionary holds is what Bytes
// counts.
func TestDictRetainsNoCallerBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector skews heap measurements")
	}
	const terms = 2048
	base := liveHeap()
	d := dict.New()
	for i := 0; i < terms; i++ {
		src := fmt.Sprintf("http://x/%06d/", i) + strings.Repeat("s", 4096)
		d.Encode(rdf.NewLangLiteral(src[:40], src[:2]))
	}
	held := liveHeap() - base
	if counted := uint64(d.Bytes()); float64(held) > 1.1*float64(counted) {
		t.Errorf("the dictionary holds %d B of heap for %d terms; Bytes counts %d", held, terms, counted)
	}
	runtime.KeepAlive(d)
}
