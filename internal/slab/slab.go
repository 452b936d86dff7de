// Package slab carves many small slices out of few large allocations: a
// slab allocator in Bonwick's sense (The Slab Allocator, 1994) for values
// that are written once and then only read or appended past, such as a
// snapshot's captured nodes and the address arrays they share.
package slab

// Carver hands out slices cut from its current slab, each clipped to its
// own length (slab[i:i+n:i+n]), so an append to one can never grow into
// the next. Slabs start at the first request's size and double up to max
// elements, so a structure that carves once pays for about what it takes,
// and one that carves often allocates once per max elements. Elements are
// never handed out twice, so every carve starts zeroed. A request longer
// than max gets an allocation of its own.
//
// Retention: the garbage collector frees a slab only once nothing carved
// from it is reachable, so one live carve keeps up to max elements alive,
// max·s bytes for elements of s bytes; an owner sizes max to keep that a
// few tens of KiB. A request that does not fit abandons the current
// slab's rest, which is shorter than the request the next slab then
// holds, so a carver that has handed out k elements has allocated less
// than 2k + max, plus one slab's uncarved rest per Drop. Elements that hold pointers keep what they point to
// alive for as long as their slab lives, even once the carve itself is
// dead: an owner whose carves point to older carves bounds that chain
// itself, with Drop.
type Carver[T any] struct {
	max  int
	slab []T // the current slab
	used int // its carved prefix
	size int // the length of the last slab allocated
}

// New returns a Carver whose slabs grow to max elements.
func New[T any](max int) Carver[T] { return Carver[T]{max: max} }

// Take returns n zeroed elements with capacity n.
func (c *Carver[T]) Take(n int) []T {
	if c.used+n > len(c.slab) {
		if n > c.max {
			return make([]T, n)
		}
		c.size = min(max(2*c.size, n), c.max)
		c.slab, c.used = make([]T, c.size), 0
	}
	s := c.slab[c.used : c.used+n : c.used+n]
	c.used += n
	return s
}

// Drop lets go of the current slab: the next Take starts a new one, as
// long as the last would have been. Carves made after a Drop never share
// a slab with carves made before it.
func (c *Carver[T]) Drop() { c.slab, c.used = nil, 0 }

// Current returns the slab the next Take cuts from, if it fits.
func (c *Carver[T]) Current() []T { return c.slab }
