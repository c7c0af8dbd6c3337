// Package dict implements the dictionary encoding used by the storage
// layer: every distinct RDF value (URI or literal, in its canonical
// N-Triples spelling) is mapped to a unique integer ID, and triples are
// stored over IDs. The paper stores the same dictionary as a separate
// relational table indexed both by code and by value (Section 5.1); here
// it is one in-memory term table, indexed by code through its position
// and by value through an open-addressing hash index of IDs into it. No
// term's bytes are stored twice.
//
// ID 0 is reserved and never assigned; encoded query patterns use it as
// the wildcard ("any value") marker.
package dict

import (
	"hash/maphash"
	"sync"
	"unicode/utf8"
	"unsafe"

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
//
// Two terms share an ID exactly when their canonical N-Triples spellings
// coincide (rdf.Term.Canonical), and Term returns the first term encoded
// under an ID. The spelling itself is never built: hashing and equality
// work on the term's fields, normalized as Canonical would render them.
type Dict struct {
	mu   sync.RWMutex
	seed maphash.Seed
	// entries[i] is the term with ID i+1; append-only, see View.
	entries []entry
	// index is an open-addressing table of IDs into entries, probed
	// linearly from a term's hash; None marks an empty slot. Its length
	// is a power of two, at least twice len(entries).
	index []ID
	// shapes[i] is an interned term shape: a kind, datatype IRI and
	// language tag, as given, with an empty value; entries refer to it by
	// position. Append-only, like entries; shapeIDs finds a shape's
	// position.
	shapes     []rdf.Term
	shapeIDs   map[rdf.Term]uint32
	valueBytes int // sum of len(entry.value)
}

// entry is one term of the table: its value and the position of its
// shape.
type entry struct {
	value string
	shape uint32
}

// New returns an empty dictionary.
func New() *Dict { return NewWithCapacity(0) }

// NewWithCapacity returns an empty dictionary sized for about n values.
func NewWithCapacity(n int) *Dict {
	return &Dict{
		seed:     maphash.MakeSeed(),
		entries:  make([]entry, 0, n),
		index:    make([]ID, indexSize(n)),
		shapeIDs: make(map[rdf.Term]uint32),
	}
}

// indexSize is the smallest power of two of at least 8 slots that holds n
// IDs at a load of one half.
func indexSize(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// Encode returns the ID for the term, assigning a fresh one if the term
// has not been seen before. Encoding a known term allocates nothing.
func (d *Dict) Encode(t rdf.Term) ID {
	h := d.hash(t)
	d.mu.RLock()
	id := d.findLocked(h, t)
	d.mu.RUnlock()
	if id != None {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id := d.findLocked(h, t); id != None {
		return id
	}
	return d.insertLocked(h, t)
}

// Lookup returns the ID for the term if it is already in the dictionary.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	h := d.hash(t)
	d.mu.RLock()
	defer d.mu.RUnlock()
	id := d.findLocked(h, t)
	return id, id != None
}

// findLocked returns the ID of the term hashing to h, or None. The caller
// holds the lock, for reading at least.
func (d *Dict) findLocked(h uint64, t rdf.Term) ID {
	mask := uint64(len(d.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := d.index[i]
		if id == None || d.sameLocked(d.entries[id-1], t) {
			return id
		}
	}
}

// insertLocked appends the term, which is absent, under the next ID. The
// caller holds the write lock.
func (d *Dict) insertLocked(h uint64, t rdf.Term) ID {
	if 2*(len(d.entries)+1) > len(d.index) {
		d.growLocked()
	}
	d.entries = append(d.entries, entry{value: t.Value, shape: d.internLocked(t)})
	d.valueBytes += len(t.Value)
	id := ID(len(d.entries)) // IDs start at 1
	d.placeLocked(h, id)
	return id
}

// placeLocked puts id in the first empty slot of h's probe sequence.
func (d *Dict) placeLocked(h uint64, id ID) {
	mask := uint64(len(d.index) - 1)
	i := h & mask
	for d.index[i] != None {
		i = (i + 1) & mask
	}
	d.index[i] = id
}

// growLocked doubles the index and re-places every ID in it.
func (d *Dict) growLocked() {
	d.index = make([]ID, 2*len(d.index))
	for i, e := range d.entries {
		t := d.shapes[e.shape]
		t.Value = e.value
		d.placeLocked(d.hash(t), ID(i+1))
	}
}

// internLocked returns the position of t's shape, appending it if it is
// new.
func (d *Dict) internLocked(t rdf.Term) uint32 {
	t.Value = ""
	if i, ok := d.shapeIDs[t]; ok {
		return i
	}
	i := uint32(len(d.shapes))
	d.shapes = append(d.shapes, t)
	d.shapeIDs[t] = i
	return i
}

// Kind tags mixed into a term's hash, so that an IRI, a blank node and a
// literal with one value, and a literal's language tag and datatype with
// one spelling, hash apart.
const (
	mixKind = 0x9E3779B97F4A7C15
	mixLang = 0xC2B2AE3D27D4EB4F
	mixType = 0x165667B19E3779F9
)

// hash hashes the part of a term its canonical spelling shows: nothing
// but the kind for a kind Canonical does not know, the value for an IRI
// or a blank node, and for a literal its value as rendered (each invalid
// UTF-8 byte reads as U+FFFD) and either its language tag or, without
// one, its datatype.
func (d *Dict) hash(t rdf.Term) uint64 {
	k := (uint64(t.Kind) + 1) * mixKind
	switch t.Kind {
	case rdf.IRI, rdf.Blank:
		return maphash.String(d.seed, t.Value) ^ k
	case rdf.Literal:
		h := maphash.String(d.seed, rendered(t.Value)) ^ k
		if t.Lang != "" {
			return h ^ (maphash.String(d.seed, t.Lang) * mixLang)
		}
		if t.Datatype != "" {
			return h ^ (maphash.String(d.seed, t.Datatype) * mixType)
		}
		return h
	default:
		return k
	}
}

// sameLocked reports whether the stored entry and the term have one
// canonical spelling; hash names the parts that spelling shows.
func (d *Dict) sameLocked(e entry, t rdf.Term) bool {
	sh := d.shapes[e.shape]
	if sh.Kind != t.Kind {
		return false
	}
	switch t.Kind {
	case rdf.IRI, rdf.Blank:
		return e.value == t.Value
	case rdf.Literal:
		if sh.Lang != "" || t.Lang != "" {
			if sh.Lang != t.Lang {
				return false
			}
		} else if sh.Datatype != t.Datatype {
			return false
		}
		return e.value == t.Value || rendered(e.value) == rendered(t.Value)
	default:
		return true
	}
}

// rendered is a literal's lexical form as its canonical spelling renders
// it: each byte of invalid UTF-8 replaced by U+FFFD, as converting to
// runes does. Valid UTF-8, the usual case, is returned as is.
func rendered(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// Term returns the term for a previously assigned ID. It panics on an
// ID that was never assigned (including None), since that always
// indicates a bug in the caller.
func (d *Dict) Term(id ID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return View{entries: d.entries, shapes: d.shapes}.Term(id)
}

// View is a lock-free read view of the IDs assigned before it was taken.
// The dictionary only ever appends to its term and shape tables, so a
// view stays valid, and safe to read beside concurrent Encodes, for as
// long as it is held: take one per answer rather than locking once per
// cell.
type View struct {
	entries []entry
	shapes  []rdf.Term
}

// View returns a view of every ID assigned so far.
func (d *Dict) View() View {
	d.mu.RLock()
	v := View{entries: d.entries, shapes: d.shapes}
	d.mu.RUnlock()
	return v
}

// Term is Dict.Term over the view's IDs; an ID assigned after the view
// was taken is unassigned in it.
func (v View) Term(id ID) rdf.Term {
	e := v.entries[int(id)-1] // None indexes -1: every unassigned ID panics here
	t := v.shapes[e.shape]
	t.Value = e.value
	return t
}

// Len returns the number of distinct values in the dictionary.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Bytes returns the bytes the dictionary keeps resident: the term table
// at its capacity, the value bytes, the index, and the shape table with
// its map (counted as one key and one position per shape, without the
// map's own overhead).
func (d *Dict) Bytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	const shape = int(unsafe.Sizeof(rdf.Term{}))
	n := cap(d.entries)*int(unsafe.Sizeof(entry{})) + d.valueBytes +
		len(d.index)*int(unsafe.Sizeof(None)) +
		cap(d.shapes)*shape + len(d.shapes)*(shape+4)
	for _, sh := range d.shapes {
		n += len(sh.Datatype) + len(sh.Lang)
	}
	return n
}

// EncodeTriple encodes the three terms of t.
func (d *Dict) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	return d.Encode(t.S), d.Encode(t.P), d.Encode(t.O)
}

// DecodeTriple rebuilds a surface triple from encoded IDs.
func (d *Dict) DecodeTriple(s, p, o ID) rdf.Triple {
	return rdf.Triple{S: d.Term(s), P: d.Term(p), O: d.Term(o)}
}
