// Package dict implements the dictionary encoding used by the storage
// layer: every distinct RDF value (URI or literal, in its canonical
// N-Triples spelling) is mapped to a unique integer ID, and triples are
// stored over IDs. The paper stores the same dictionary as a separate
// relational table indexed both by code and by value (Section 5.1); here
// it is one in-memory term table, indexed by code through its position
// and by value through an open-addressing hash index of IDs into it,
// tagged with a byte of each term's hash.
// Values are copied once into an arena of fixed-size chunks the
// dictionary owns, so no term pins the buffer its value was cut from, and
// no term's bytes are stored twice.
//
// ID 0 is reserved and never assigned; encoded query patterns use it as
// the wildcard ("any value") marker.
package dict

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"strings"
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
	// entries[id] is the term with that ID; entries[0] stands for None,
	// with a value ending at 0. Append-only, see View.
	entries []entry
	// chunks is the value arena: chunks[k] holds the values whose
	// positions lie in slot k, the k-th 64 KiB of positions (a value over
	// 64 KiB takes the slots after its own too, which stay nil). Each
	// value is copied in once and never moves, and a chunk, once in the
	// slice, is never replaced, so a view's copy of the slice stays valid
	// beside Encode. open is the unused rest of the chunk small values go
	// to; aside reports that a large value set it aside, so that it is not
	// in chunks yet. arenaBytes sums the capacities of the chunks made.
	chunks     [][]byte
	open       []byte
	aside      bool
	arenaBytes int
	// index is the value index, an open-addressing table of IDs into
	// entries in groups of eight, probed group by group from a term's
	// home group (see home). Each ID sits beside a one-byte tag cut from
	// its term's hash, so a probe reads a stored value only where the
	// tags match. The table is at most 7/8 full, and any number of groups
	// long. growth is the factor it grows by: 4 while a load fills it, 2
	// once Trim has sized it to its terms.
	index  []group
	growth int
	// shapes[i] is an interned term shape: a kind, datatype IRI and
	// language tag, as given, with an empty value; entries refer to it by
	// position. Append-only, like entries; shapeIDs finds a shape's
	// position.
	shapes   []rdf.Term
	shapeIDs map[rdf.Term]uint32
}

const (
	// chunkBits sizes the arena's slots and chunks: a value's position
	// names its slot by the bits above chunkBits and its byte in the
	// slot's chunk by the bits below.
	chunkBits = 16
	chunkSize = 1 << chunkBits

	// largeValue is the length above which a value that does not fit the
	// open chunk gets a chunk of its own, exactly sized, and the open
	// chunk's rest is kept for the values after it. A shorter one starts
	// a new open chunk, so a closed chunk leaves under 1/64 of itself
	// unused.
	largeValue = chunkSize / 64

	// shapeBits is the width of an entry's shape position; the bits above
	// hold the end of its value.
	shapeBits = 24
)

// entry is one term of the table, packed into 8 pointer-free bytes: the
// arena position where its value ends, above the position of its shape.
// Values are laid out in ID order, so a value starts where the one
// before it ends or, if it would not lie in that end's slot, at the next
// slot's start (see View.Term). The widths allow 1<<24 shapes and 1<<40
// arena positions.
type entry uint64

// New returns an empty dictionary.
func New() *Dict { return NewWithCapacity(0) }

// NewWithCapacity returns an empty dictionary sized for about n values.
func NewWithCapacity(n int) *Dict {
	return &Dict{
		seed:     maphash.MakeSeed(),
		entries:  make([]entry, 1, n+1),
		index:    make([]group, indexGroups(n)),
		growth:   4,
		shapeIDs: make(map[rdf.Term]uint32),
	}
}

// group is eight slots of the value index. A slot is empty if its tag
// is 0; otherwise ids holds an ID and tags a tag of its term's hash (see
// tagOf). Within a group the slots fill in order. A group is 40 bytes: 5
// a slot, under 6 an ID at a load of 7/8.
type group struct {
	tags [groupSlots]uint8
	ids  [groupSlots]ID
}

const (
	groupSlots = 8

	// Byte lanes of a group's tags read as one word.
	lanesLow  = 0x0101010101010101
	lanesHigh = 0x8080808080808080
)

// indexGroups is the least number of groups, at least one, that holds n
// IDs at a load of at most 7/8.
func indexGroups(n int) int {
	return max(1, (n+6)/7)
}

// Trim sizes the dictionary's tables to the terms it holds: the value
// index to the least size at a load of 7/8, and the term table to its
// length. A load calls it once it has encoded its terms; after it, an
// insert that fills the index doubles it instead of quadrupling it.
// Views taken before keep reading the tables they hold.
func (d *Dict) Trim() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries = append(make([]entry, 0, len(d.entries)), d.entries...)
	d.rebuildLocked(indexGroups(len(d.entries) - 1))
	d.growth = 2
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
	return d.encodeLocked(h, t)
}

// EncodeTriple encodes the three terms of t, assigning exactly the IDs
// Encode(t.S), Encode(t.P) and Encode(t.O) in turn would. Each term is
// hashed once, all three are looked up under one read lock, and the
// write lock is taken at most once, to insert the new ones in S, P, O
// order. Encoding a known triple allocates nothing.
func (d *Dict) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	hs, hp, ho := d.hash(t.S), d.hash(t.P), d.hash(t.O)
	d.mu.RLock()
	s, p, o = d.findLocked(hs, t.S), d.findLocked(hp, t.P), d.findLocked(ho, t.O)
	d.mu.RUnlock()
	if s != None && p != None && o != None {
		return s, p, o
	}
	// An ID once assigned never changes, so only the terms the read pass
	// missed are looked up again; one of them may be another's twin, or
	// have been inserted since.
	d.mu.Lock()
	defer d.mu.Unlock()
	if s == None {
		s = d.encodeLocked(hs, t.S)
	}
	if p == None {
		p = d.encodeLocked(hp, t.P)
	}
	if o == None {
		o = d.encodeLocked(ho, t.O)
	}
	return s, p, o
}

// encodeLocked returns the ID of the term hashing to h, inserting it if
// it is absent. The caller holds the write lock.
func (d *Dict) encodeLocked(h uint64, t rdf.Term) ID {
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
// holds the lock, for reading at least. A term lies in the first group,
// from its home on, that had an empty slot when it was placed, and slots
// are never emptied, so the probe ends at the first group with one.
func (d *Dict) findLocked(h uint64, t rdf.Term) ID {
	tag := tagOf(h)
	for g := home(h, len(d.index)); ; {
		grp := &d.index[g]
		w := binary.LittleEndian.Uint64(grp.tags[:])
		for m := lanes(w, tag); m != 0; m &= m - 1 {
			if id := grp.ids[bits.TrailingZeros64(m)/8]; d.sameLocked(id, t) {
				return id
			}
		}
		if empties(w) != 0 {
			return None
		}
		if g++; g == len(d.index) {
			g = 0
		}
	}
}

// lanes flags the high bit of each byte of a group's tags w that equals
// tag, at least. A byte above a flagged one may be flagged falsely (when
// it differs from tag in its low bit only): a tag, never an empty slot's
// 0, since tags have their high bit set. A probe compares the value under
// every flagged tag, so a false flag costs a compare and nothing else.
func lanes(w uint64, tag uint8) uint64 {
	x := w ^ lanesLow*uint64(tag)
	return (x - lanesLow) &^ x & lanesHigh
}

// empties flags the high bit of each byte of a group's tags w that is an
// empty slot's.
func empties(w uint64) uint64 {
	return lanesHigh &^ w
}

// home is the group a probe for hash h starts at in an index of size
// groups: the high word of h × size, which is uniform over [0, size) for
// a uniform h, whether or not size is a power of two.
func home(h uint64, size int) int {
	hi, _ := bits.Mul64(h, uint64(size))
	return int(hi)
}

// tagOf is the tag of hash h: its low seven bits, which home reads
// hardly at all, under a high bit set, which tells a tag from an empty
// slot's 0.
func tagOf(h uint64) uint8 {
	return uint8(h) | 0x80
}

// insertLocked appends the term, which is absent, under the next ID. The
// caller holds the write lock.
func (d *Dict) insertLocked(h uint64, t rdf.Term) ID {
	if 8*len(d.entries) > 7*groupSlots*len(d.index) {
		d.rebuildLocked(d.growth * len(d.index))
	}
	end := d.storeLocked(t.Value)
	d.entries = append(d.entries, entry(end<<shapeBits|uint64(d.internLocked(t))))
	id := ID(len(d.entries) - 1)
	d.placeLocked(h, id)
	return id
}

// placeLocked puts id, whose term hashes to h, in the first empty slot
// of the first group, from h's home on, that has one.
func (d *Dict) placeLocked(h uint64, id ID) {
	for g := home(h, len(d.index)); ; {
		grp := &d.index[g]
		if m := empties(binary.LittleEndian.Uint64(grp.tags[:])); m != 0 {
			i := bits.TrailingZeros64(m) / 8
			grp.tags[i], grp.ids[i] = tagOf(h), id
			return
		}
		if g++; g == len(d.index) {
			g = 0
		}
	}
}

// rebuildLocked replaces the index by one of size groups and re-places
// every ID in it.
func (d *Dict) rebuildLocked(size int) {
	d.index = make([]group, size)
	v := d.viewLocked()
	for id := ID(1); int(id) < len(d.entries); id++ {
		d.placeLocked(d.hash(v.Term(id)), id)
	}
}

// storeLocked copies v into the arena after the last value stored and
// returns where it ends: in the open chunk if it fits, else, if it is
// large, in a chunk of its own, else at the start of a fresh open chunk.
// Whatever starts a chunk starts a slot. An empty value takes no bytes.
func (d *Dict) storeLocked(v string) uint64 {
	last := uint64(d.entries[len(d.entries)-1] >> shapeBits)
	n := uint64(len(v))
	switch {
	case n == 0:
		return last
	case n <= uint64(len(d.open)):
		if d.aside {
			last = d.slotLocked(last, d.open)
			d.aside = false
		}
		copy(d.open, v)
		d.open = d.open[n:]
		return last + n
	case n > largeValue:
		c := d.chunkLocked(int(n))
		copy(c, v)
		d.aside = len(d.open) > 0
		return d.slotLocked(last, c) + n
	default:
		c := d.chunkLocked(chunkSize)
		copy(c, v)
		d.open, d.aside = c[n:], false
		return d.slotLocked(last, c) + n
	}
}

// chunkLocked allocates an arena chunk of n bytes.
func (d *Dict) chunkLocked(n int) []byte {
	d.arenaBytes += n
	return make([]byte, n)
}

// slotLocked puts c in the first slot past position last and returns the
// slot's start.
func (d *Dict) slotLocked(last uint64, c []byte) uint64 {
	slot := (last + chunkSize - 1) >> chunkBits
	for uint64(len(d.chunks)) < slot { // a large value's further slots
		d.chunks = append(d.chunks, nil)
	}
	d.chunks = append(d.chunks, c)
	return slot << chunkBits
}

// internLocked returns the position of t's shape, appending it if it is
// new. The shape's datatype and language tag are copied, like values, so
// they pin nothing of the caller's.
func (d *Dict) internLocked(t rdf.Term) uint32 {
	t.Value = ""
	if i, ok := d.shapeIDs[t]; ok {
		return i
	}
	t.Datatype, t.Lang = strings.Clone(t.Datatype), strings.Clone(t.Lang)
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

// sameLocked reports whether the term under id and t have one canonical
// spelling; hash names the parts that spelling shows. It reads the
// stored shape and value bytes where they lie.
func (d *Dict) sameLocked(id ID, t rdf.Term) bool {
	e := d.entries[id]
	u := &d.shapes[e&(1<<shapeBits-1)]
	if u.Kind != t.Kind {
		return false
	}
	switch t.Kind {
	case rdf.IRI, rdf.Blank:
		return d.valueLocked(id) == t.Value
	case rdf.Literal:
		if u.Lang != "" || t.Lang != "" {
			if u.Lang != t.Lang {
				return false
			}
		} else if u.Datatype != t.Datatype {
			return false
		}
		v := d.valueLocked(id)
		return v == t.Value || rendered(v) == rendered(t.Value)
	default:
		return true
	}
}

// valueLocked returns the value of the term under id over the arena's
// bytes, laid out as View.Term reads it (which inlines the same rule).
func (d *Dict) valueLocked(id ID) string {
	start, end := d.entries[id-1]>>shapeBits, d.entries[id]>>shapeBits
	if start == end {
		return ""
	}
	if (end-1)^start >= chunkSize { // not in one slot
		start = (start + chunkSize - 1) &^ (chunkSize - 1)
	}
	return unsafe.String(&d.chunks[start>>chunkBits][start&(chunkSize-1)], end-start)
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
	return d.viewLocked().Term(id)
}

// View is a lock-free read view of the IDs assigned before it was taken.
// The dictionary only ever appends to its term and shape tables and its
// value arena, so a view stays valid, and safe to read beside concurrent
// Encodes, for as long as it is held: take one per answer rather than
// locking once per cell.
type View struct {
	entries []entry
	shapes  []rdf.Term
	chunks  [][]byte
}

// View returns a view of every ID assigned so far.
func (d *Dict) View() View {
	d.mu.RLock()
	v := d.viewLocked()
	d.mu.RUnlock()
	return v
}

func (d *Dict) viewLocked() View {
	return View{entries: d.entries, shapes: d.shapes, chunks: d.chunks}
}

// Term is Dict.Term over the view's IDs; an ID assigned after the view
// was taken is unassigned in it. The value is a string over the arena's
// bytes, which never change, so it stays valid for good. It ends at the
// ID's end and starts at the end before it, unless it would then span two
// slots: storeLocked started it at the next slot. (Kept within the
// inliner's budget: a call would cost each decoded cell more than the
// lookup does.)
func (v View) Term(id ID) rdf.Term {
	e := v.entries[id] // past the view: every unassigned ID panics here
	t := v.shapes[e&(1<<shapeBits-1)]
	if start, end := v.entries[id-1]>>shapeBits, e>>shapeBits; start != end { // None indexes -1
		if (end-1)^start >= chunkSize { // not in one slot
			start = (start + chunkSize - 1) &^ (chunkSize - 1)
		}
		t.Value = unsafe.String(&v.chunks[start>>chunkBits][start&(chunkSize-1)], end-start)
	}
	return t
}

// Len returns the number of distinct values in the dictionary.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries) - 1
}

// Bytes returns the bytes the dictionary keeps resident: the term table,
// the value arena's chunks and their directory and the value index, all
// at their capacities, and the shape table with its map (counted as one
// key and one position per shape, without the map's own overhead).
func (d *Dict) Bytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.footprintLocked().total()
}

// footprint is what Bytes counts, part by part.
type footprint struct {
	index  int // the groups
	table  int // entries
	arena  int // the chunks and their directory
	shapes int // the shape table and its map
}

func (f footprint) total() int { return f.index + f.table + f.arena + f.shapes }

func (d *Dict) footprintLocked() footprint {
	const shape = int(unsafe.Sizeof(rdf.Term{}))
	f := footprint{
		index:  cap(d.index) * int(unsafe.Sizeof(group{})),
		table:  cap(d.entries) * int(unsafe.Sizeof(entry(0))),
		arena:  d.arenaBytes + cap(d.chunks)*int(unsafe.Sizeof([]byte(nil))),
		shapes: cap(d.shapes)*shape + len(d.shapes)*(shape+4),
	}
	for _, sh := range d.shapes {
		f.shapes += len(sh.Datatype) + len(sh.Lang)
	}
	return f
}

// DecodeTriple rebuilds a surface triple from encoded IDs.
func (d *Dict) DecodeTriple(s, p, o ID) rdf.Triple {
	return rdf.Triple{S: d.Term(s), P: d.Term(p), O: d.Term(o)}
}
