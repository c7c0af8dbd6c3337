package dict

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/rdf"
)

// arenaValues is a sequence that walks the arena's edge cases: empty
// values at its start and after slot boundaries, small values that fill
// a chunk to its last byte or close it, large values that set the open
// chunk aside (one of them spanning several slots, one ending on a slot
// boundary), and the small values that then fill the set-aside rest.
func arenaValues() []string {
	var vs []string
	add := func(n int, c byte) { // n bytes in all, unique by their prefix
		p := fmt.Sprintf("%d:", len(vs))
		vs = append(vs, p+strings.Repeat(string(c), n-len(p)))
	}
	vs = append(vs, "")
	for i := 0; i < 3000; i++ {
		add(5+i%97, 'a')
		if i%500 == 0 {
			vs = append(vs, "")
		}
	}
	add(largeValue+1, 'L')      // set the open chunk aside
	add(10, 'b')                // into the set-aside rest
	add(3*chunkSize+17, 'H')    // several slots
	vs = append(vs, "")         // empty after a large value
	add(largeValue, 'm')        // the largest small value
	add(2*chunkSize-6, 'E')     // 6 bytes of prefix: ends on a slot boundary
	vs = append(vs, "", "")     // empty on a boundary
	for i := 0; i < 2000; i++ { // fill chunks to their ends
		add(1000+i%40, 'c')
	}
	return vs
}

// Every value comes back as stored, and the arena holds each value once:
// what it keeps beyond the value bytes is under one chunk plus 1/64 of
// them. An entry is 8 pointer-free bytes, and Bytes, part by part, is
// the capacity of the tables the dictionary holds, before Trim and
// after.
func TestArenaLayout(t *testing.T) {
	if size, kind := unsafe.Sizeof(entry(0)), reflect.TypeOf(entry(0)).Kind(); size > 8 || kind != reflect.Uint64 {
		t.Fatalf("entry is %d bytes of kind %v, want at most 8 pointer-free bytes", size, kind)
	}
	d := New()
	vs := arenaValues()
	ids := make([]ID, len(vs))
	valueBytes := 0
	for i, v := range vs {
		ids[i] = d.Encode(rdf.NewLiteral(v))
		valueBytes += len(v)
	}
	view := d.View()
	for i, v := range vs {
		if got := view.Term(ids[i]).Value; got != v {
			t.Fatalf("value %d (ID %d, %d bytes) came back as %d bytes %.20q", i, ids[i], len(v), len(got), got)
		}
	}
	// A set-aside rest sits in the chunks as a slice of the chunk it
	// came from: count each allocation once, by where it ends.
	allocs := make(map[*byte]int)
	for _, c := range d.chunks {
		if cap(c) > 0 {
			end := &c[:cap(c)][cap(c)-1]
			allocs[end] = max(allocs[end], cap(c))
		}
	}
	arena := 0
	for _, n := range allocs {
		arena += n
	}
	if arena != d.arenaBytes {
		t.Errorf("arenaBytes %d, chunks hold %d", d.arenaBytes, arena)
	}
	if slack := arena - valueBytes; slack > chunkSize+valueBytes/64 {
		t.Errorf("arena %d B for %d B of values: %d B of slack, want at most %d", arena, valueBytes, slack, chunkSize+valueBytes/64)
	}
	shapes := 0
	for _, sh := range d.shapes {
		shapes += int(unsafe.Sizeof(sh)) + 4 + len(sh.Datatype) + len(sh.Lang)
	}
	check := func(when string) {
		t.Helper()
		want := footprint{
			index:  40 * cap(d.index),
			table:  8 * cap(d.entries),
			arena:  arena + cap(d.chunks)*int(unsafe.Sizeof([]byte(nil))),
			shapes: cap(d.shapes)*int(unsafe.Sizeof(rdf.Term{})) + shapes,
		}
		if got := d.footprintLocked(); got != want {
			t.Errorf("%s: footprint %+v, the tables hold %+v", when, got, want)
		}
		if got := d.Bytes(); got != want.total() {
			t.Errorf("%s: Bytes = %d, the tables hold %d", when, got, want.total())
		}
	}
	check("loaded")
	// Trim leaves the term table at its length and the index at the
	// least size that holds the terms at a load of 7/8, and every value
	// where it was.
	d.Trim()
	n := len(d.entries) - 1
	if cap(d.entries) != n+1 || cap(d.index) != len(d.index) || n > 7*len(d.index) || n <= 7*(len(d.index)-1) {
		t.Errorf("trimmed: %d terms in a table of capacity %d and an index of %d groups of 8 (capacity %d)", n, cap(d.entries), len(d.index), cap(d.index))
	}
	check("trimmed")
	for i, v := range vs {
		if got, ok := d.Lookup(rdf.NewLiteral(v)); !ok || got != ids[i] {
			t.Fatalf("trimmed: Lookup of value %d = %d, %v; want %d", i, got, ok, ids[i])
		}
	}
}
