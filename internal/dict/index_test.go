package dict

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// slots is the number of slots in d's value index.
func slots(d *Dict) int { return groupSlots * len(d.index) }

// Terms whose hashes share a home group and a tag in an index of size
// groups: the first three of the IRIs http://x/0, http://x/1, … that do.
func collidingTerms(t *testing.T, d *Dict, size int) []rdf.Term {
	t.Helper()
	type key struct {
		group int
		tag   uint8
	}
	groups := make(map[key][]rdf.Term)
	for i := 0; i < 1_000_000; i++ {
		term := rdf.NewIRI(fmt.Sprintf("http://x/%d", i))
		h := d.hash(term)
		k := key{home(h, size), tagOf(h)}
		if groups[k] = append(groups[k], term); len(groups[k]) == 3 {
			return groups[k]
		}
	}
	t.Fatal("no three terms share a home group and a tag")
	return nil
}

// Two terms with one home group and one tag keep their own IDs: a probe
// that meets the other's tag compares the stored value and walks on, and
// a third, absent term with the same group and tag is not found.
func TestTagCollision(t *testing.T) {
	d := NewWithCapacity(70)
	terms := collidingTerms(t, d, len(d.index))
	a, b := d.Encode(terms[0]), d.Encode(terms[1])
	if a == b || d.Len() != 2 {
		t.Fatalf("colliding terms got IDs %d and %d, Len %d", a, b, d.Len())
	}
	tagged := 0
	for _, g := range d.index {
		for _, tag := range g.tags {
			if tag == tagOf(d.hash(terms[0])) {
				tagged++
			}
		}
	}
	if tagged != 2 {
		t.Fatalf("%d slots carry the shared tag, want 2", tagged)
	}
	for _, c := range []struct {
		term rdf.Term
		id   ID
		ok   bool
	}{{terms[0], a, true}, {terms[1], b, true}, {terms[2], None, false}} {
		if got, ok := d.Lookup(c.term); got != c.id || ok != c.ok {
			t.Errorf("Lookup(%s) = %d, %v; want %d, %v", c.term.Value, got, ok, c.id, c.ok)
		}
	}
	if got := d.Encode(terms[2]); got != 3 {
		t.Errorf("the third colliding term got ID %d, want 3", got)
	}
}

// At a load of exactly 7/8, after Trim and on a full index before it,
// every present term is found and no absent one is: a probe for an
// absent term reaches an empty slot, wrapping around the table's end.
func TestLookupAbsentAtFullLoad(t *testing.T) {
	term := func(i int) rdf.Term { return rdf.NewLiteral(fmt.Sprintf("v%d", i)) }
	for _, c := range []struct {
		name    string
		n, size int
		trim    bool
	}{
		{"trimmed", 7000, 8000, true},
		{"loading", 1792, 2048, false}, // 8 → 32 → 128 → 512 → 2048 slots
	} {
		t.Run(c.name, func(t *testing.T) {
			d := New()
			for i := 0; i < c.n; i++ {
				d.Encode(term(i))
			}
			if c.trim {
				d.Trim()
			}
			if slots(d) != c.size {
				t.Fatalf("%d terms in an index of %d slots, want %d", c.n, slots(d), c.size)
			}
			for i := 0; i < c.n; i++ {
				if got, ok := d.Lookup(term(i)); !ok || got != ID(i+1) {
					t.Fatalf("Lookup(%d) = %d, %v; want %d", i, got, ok, i+1)
				}
			}
			for i := c.n; i < 10*c.n; i++ {
				if got, ok := d.Lookup(term(i)); ok {
					t.Fatalf("Lookup of absent term %d = %d", i, got)
				}
			}
			if d.Len() != c.n || slots(d) != c.size {
				t.Fatalf("lookups changed the dictionary: Len %d, %d slots", d.Len(), slots(d))
			}
		})
	}
}

// Inserts after Trim grow the exactly sized index by doubling, while
// views taken before and during the growth keep reading their terms and
// lookups keep finding them. Run with -race: a growth replaces the index
// under the write lock only, and views never read it.
func TestGrowthAfterTrimBesideViews(t *testing.T) {
	term := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://x/%d", i)) }
	const loaded, added = 1000, 3000
	d := New()
	for i := 0; i < loaded; i++ {
		d.Encode(term(i))
	}
	d.Trim()
	size := slots(d)
	before := d.View()

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for k := r; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				v := d.View()
				i := k % loaded
				if got := before.Term(ID(i + 1)); got != term(i) {
					t.Errorf("view before: Term(%d) = %v", i+1, got)
					return
				}
				if got := v.Term(ID(i + 1)); got != term(i) {
					t.Errorf("view during: Term(%d) = %v", i+1, got)
					return
				}
				if got, ok := d.Lookup(term(i)); !ok || got != ID(i+1) {
					t.Errorf("Lookup(%d) = %d, %v", i, got, ok)
					return
				}
			}
		}(r)
	}
	for i := loaded; i < loaded+added; i++ {
		if got := d.Encode(term(i)); got != ID(i+1) {
			t.Errorf("Encode(%d) = %d, want %d", i, got, i+1)
		}
	}
	close(done)
	readers.Wait()

	grown := slots(d)
	for grown > size && grown%2 == 0 {
		grown /= 2
	}
	if grown != size || slots(d) == size {
		t.Errorf("the index went from %d to %d slots, want a doubling of it", size, slots(d))
	}
	v := d.View()
	for i := 0; i < loaded+added; i++ {
		if got := v.Term(ID(i + 1)); got != term(i) {
			t.Fatalf("Term(%d) = %v, want %v", i+1, got, term(i))
		}
	}
}

// lanes flags every byte of a group's tags that equals the tag, and the
// lowest flag is always such a byte; empties flags exactly the empty
// slots.
func TestLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 100_000; n++ {
		var g [groupSlots]uint8
		for i := range g { // few distinct tags, so that they repeat
			if rng.Intn(4) > 0 {
				g[i] = tagOf(uint64(rng.Intn(4)))
			}
		}
		tag := tagOf(uint64(rng.Intn(4)))
		w := binary.LittleEndian.Uint64(g[:])
		m, e := lanes(w, tag), empties(w)
		for i, b := range g {
			flag := m>>(8*i+7)&1 == 1
			if b == tag && !flag {
				t.Fatalf("tags %x: lane %d holds tag %x unflagged", g, i, tag)
			}
			if b == 0 && flag {
				t.Fatalf("tags %x, tag %x: empty lane %d flagged", g, tag, i)
			}
			if (b == 0) != (e>>(8*i+7)&1 == 1) {
				t.Fatalf("tags %x: empties %x wrong at lane %d", g, e, i)
			}
		}
		if m != 0 && g[bits.TrailingZeros64(m)/8] != tag {
			t.Fatalf("tags %x, tag %x: lowest flag at a lane that differs", g, tag)
		}
	}
}
