// Package dict implements the dictionary encoding used by the storage
// layer: every distinct RDF value (URI or literal, in its canonical
// N-Triples spelling) is mapped to a unique integer ID, and triples are
// stored over IDs. The paper stores the same dictionary as a separate
// relational table indexed both by code and by value (Section 5.1); here
// it is an in-memory two-way map.
//
// ID 0 is reserved and never assigned; encoded query patterns use it as
// the wildcard ("any value") marker.
package dict

import (
	"fmt"
	"sync"

	"repro/internal/rdf"
)

// ID is a dictionary code for one RDF value. The zero ID is never
// assigned to a value; it denotes "no value" (a wildcard in patterns).
type ID uint32

// None is the reserved, never-assigned ID.
const None ID = 0

// Dict is a two-way dictionary between RDF terms and IDs. It is safe for
// concurrent use: lookups take a read lock and encoding takes a write
// lock only when a new value must be assigned.
type Dict struct {
	mu      sync.RWMutex
	byValue map[string]ID
	terms   []rdf.Term // terms[i] is the term with ID i+1; append-only, see View
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{byValue: make(map[string]ID)}
}

// NewWithCapacity returns an empty dictionary sized for about n values.
func NewWithCapacity(n int) *Dict {
	return &Dict{
		byValue: make(map[string]ID, n),
		terms:   make([]rdf.Term, 0, n),
	}
}

// Encode returns the ID for the term, assigning a fresh one if the term
// has not been seen before.
func (d *Dict) Encode(t rdf.Term) ID {
	key := t.Canonical()
	d.mu.RLock()
	id, ok := d.byValue[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byValue[key]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id = ID(len(d.terms)) // IDs start at 1
	d.byValue[key] = id
	return id
}

// Lookup returns the ID for the term if it is already in the dictionary.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byValue[t.Canonical()]
	return id, ok
}

// Term returns the term for a previously assigned ID. It panics on an
// ID that was never assigned (including None), since that always
// indicates a bug in the caller.
func (d *Dict) Term(id ID) rdf.Term { return d.View().Term(id) }

// View is a lock-free read view of the IDs assigned before it was taken.
// The dictionary only ever appends to its term table, so a view stays
// valid, and safe to read beside concurrent Encodes, for as long as it is
// held: take one per answer rather than locking once per cell.
type View struct {
	terms []rdf.Term
}

// View returns a view of every ID assigned so far.
func (d *Dict) View() View {
	d.mu.RLock()
	terms := d.terms
	d.mu.RUnlock()
	return View{terms: terms}
}

// Term is Dict.Term over the view's IDs.
func (v View) Term(id ID) rdf.Term {
	if id == None || int(id) > len(v.terms) {
		v.unassigned(id)
	}
	return v.terms[id-1]
}

// unassigned is Term's failure, kept out of line so that Term inlines.
//
//go:noinline
func (v View) unassigned(id ID) {
	//lint:ignore panicfree documented invariant accessor: an unassigned ID is a caller bug, not a recoverable condition
	panic(fmt.Sprintf("dict: Term called with unassigned ID %d (dictionary size %d)", id, len(v.terms)))
}

// Len returns the number of distinct values in the dictionary.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// EncodeTriple encodes the three terms of t.
func (d *Dict) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	return d.Encode(t.S), d.Encode(t.P), d.Encode(t.O)
}

// DecodeTriple rebuilds a surface triple from encoded IDs.
func (d *Dict) DecodeTriple(s, p, o ID) rdf.Triple {
	return rdf.Triple{S: d.Term(s), P: d.Term(p), O: d.Term(o)}
}
