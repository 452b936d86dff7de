package slab

import "testing"

// TestCarver pins the carver's contract: carves are zeroed and clipped,
// so appending to one never writes into the next; slabs start at the
// first request and double up to max; a request longer than max is
// allocated on its own; and Drop starts a slab as long as the last.
func TestCarver(t *testing.T) {
	c := New[int](8)
	a := c.Take(1)
	if len(c.Current()) != 1 || len(a) != 1 || cap(a) != 1 {
		t.Fatalf("first carve: len %d cap %d from a slab of %d, want 1, 1, 1", len(a), cap(a), len(c.Current()))
	}
	c.Take(2)
	b, d := c.Take(2), c.Take(2) // a third slab, of 4, holds both
	if len(c.Current()) != 4 || &c.Current()[2] != &d[0] {
		t.Fatalf("third slab holds %d, want 4 with both carves", len(c.Current()))
	}
	b = append(b, 7) // clipped: must reallocate, not write into d
	if d[0] != 0 || b[2] != 7 {
		t.Fatalf("appending to one carve wrote into the next: %v", d)
	}
	for i := 0; i < 4; i++ {
		c.Take(3)
	}
	if len(c.Current()) != 8 {
		t.Fatalf("slabs grew to %d, want max 8", len(c.Current()))
	}
	slab := &c.Current()[0]
	if big := c.Take(9); len(big) != 9 || &c.Current()[0] != slab {
		t.Fatalf("a request longer than max got %d elements or a new slab", len(big))
	}
	c.Drop()
	if c.Current() != nil {
		t.Fatal("Drop kept the current slab")
	}
	if e := c.Take(1); len(c.Current()) != 8 || e[0] != 0 {
		t.Fatalf("after Drop the slab holds %d, want 8", len(c.Current()))
	}
}
