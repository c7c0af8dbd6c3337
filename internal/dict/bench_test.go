package dict_test

import (
	"runtime"
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
// one operation of each kind. The value strings are the generator's own,
// allocated once per term, so the measured bytes include them.
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
