package aem

import "math/bits"

// Every RAM-side block table in the engines — the slice engine's block
// table, the counting and file engines' length tables — is a segment
// directory: segment 0 holds segFirst blocks and segment i ≥ 1 the
// segFirst·2^(i−1) blocks after them, so the first k+1 segments hold
// exactly segFirst·2^k. Growing allocates only the new
// segment and never copies an old one, which is what makes "a block never
// moves once allocated" part of the Storage contract: a reader may copy
// out of a block while the owner allocates more. The directory is a
// fixed-size array, so there is no table to grow or to publish either.

const (
	segShift = 6
	segFirst = 1 << segShift // blocks in segment 0
	// numSegs covers every non-negative Addr: block a lives in segment
	// bits.Len(a >> segShift) ≤ 63 − segShift.
	numSegs = 64 - segShift
)

// locate maps block a to its segment and its index within the segment.
// Segment i ≥ 1 is exactly the addresses whose top set bit is bit
// segShift+i−1, so the offset is a with that bit cleared; the mask keeps
// segment 0's start at zero.
func locate(a Addr) (seg, off int) {
	seg = bits.Len(uint(a) >> segShift)
	start := (segFirst << seg >> 1) &^ (segFirst >> 1)
	return seg, int(a) &^ start
}

// segBlocks returns how many blocks segment seg holds.
func segBlocks(seg int) int { return max(segFirst, segFirst<<seg>>1) }

// segDir is a segment directory with one element per block: segment i is
// one []T of segBlocks(i) elements, allocated on first use and kept across
// resets. Segments are only ever added, so a goroutine may index segment
// i while another covers segment j > i.
type segDir[T any] [numSegs][]T

// cover allocates every missing segment holding a block below n. Segments
// are allocated in order, so the first present one ends the scan.
func (d *segDir[T]) cover(n int) {
	last, _ := locate(Addr(n - 1))
	for i := last; i >= 0 && d[i] == nil; i-- {
		d[i] = make([]T, segBlocks(i))
	}
}

// clear zeroes the elements of blocks [0, n), keeping the segments.
func (d *segDir[T]) clear(n int) {
	for i := 0; n > 0; i++ {
		k := min(n, segBlocks(i))
		clear(d[i][:k])
		n -= k
	}
}

// fill sets blocks [a, a+n) to v, segment by segment.
func (d *segDir[T]) fill(a Addr, n int, v T) {
	for n > 0 {
		seg, off := locate(a)
		run := d[seg][off:min(len(d[seg]), off+n)]
		for i := range run {
			run[i] = v
		}
		a += Addr(len(run))
		n -= len(run)
	}
}
