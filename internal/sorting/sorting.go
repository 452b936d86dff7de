// Package sorting implements the AEM sorting algorithms studied by the
// paper:
//
//   - SmallSort — the base-case sort of Blelloch et al. [7, Lemma 4.2]:
//     N′ ≤ ωM items in O(ω·n′) read and O(n′) write I/Os via ω
//     selection passes;
//   - MergeRuns — the ωm-way merge of Section 3, with the next-block
//     pointers b[i] maintained in external memory so that the algorithm
//     works for every ω (in particular ω > B, where the pointers do not
//     fit in internal memory);
//   - MergeSort — the full Section 3 mergesort,
//     O(ω·n·log_{ωm} n) reads and O(n·log_{ωm} n) writes;
//   - EMMergeSort — the classic symmetric-EM m-way mergesort run
//     unchanged on the AEM machine, the baseline whose cost
//     (1+ω)·n·log_m n the paper's algorithm improves on;
//   - MergeRunsInMemoryPointers — the merge in the style of the earlier
//     AEM mergesort of [7], which keeps one pointer per run in internal
//     memory and therefore requires ω·m ≲ M (equivalently ω ≲ B). It
//     exists to demonstrate the assumption the paper removes: on machines
//     with ω > B it fails by design with a memory-overflow panic.
//
// All algorithms run on the metered aem.Machine, reserve every word of
// internal memory they use, and are verified by the test suite both for
// correctness (output sorted, multiset preserved) and for their paper
// cost bounds (measured I/O counts within constant factors of the stated
// formulas, with the constants pinned by regression tests).
package sorting

import (
	"fmt"

	"repro/internal/aem"
)

// maxItem is a sentinel greater than every real item in the (Key, Aux)
// total order.
var maxItem = aem.Item{Key: 1<<63 - 1, Aux: 1<<63 - 1}

// minItem is a sentinel smaller than every real item.
var minItem = aem.Item{Key: -(1<<63 - 1), Aux: -(1<<63 - 1)}

// SmallSort sorts v into a fresh vector using the multi-pass selection
// algorithm of Blelloch et al. [7, Lemma 4.2]. Each pass scans the whole
// input and retains the M/2 smallest items above the previous pass's
// watermark, then writes them out; ⌈N′/(M/2)⌉ passes suffice. For
// N′ ≤ ωM this is O(ω·n′) reads and O(n′) writes, total cost O(ω·n′).
//
// The input vector is left untouched. SmallSort requires M ≥ 4B (half the
// memory for the selection buffer, one block frame for scanning, one for
// writing).
func SmallSort(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	out := aem.NewVector(ma, v.Len())
	SmallSortInto(ma, v, out)
	return out
}

// SmallSortInto is SmallSort writing into out, a vector of v.Len() items
// that the caller allocated and that does not overlap v — scratch blocks
// it reuses across sorts, say. Its I/O is SmallSort's.
func SmallSortInto(ma *aem.Machine, v, out *aem.Vector) {
	cfg := ma.Config()
	if cfg.M < 4*cfg.B {
		panic(fmt.Sprintf("sorting: SmallSort needs M ≥ 4B, got M=%d B=%d", cfg.M, cfg.B))
	}
	if out.Len() != v.Len() {
		panic(fmt.Sprintf("sorting: SmallSortInto of %d items into a vector of %d", v.Len(), out.Len()))
	}
	defer ma.SetPhase(ma.SetPhase("base"))

	if v.Len() == 0 {
		return
	}

	capS := cfg.M / 2
	ma.Reserve(capS)
	defer ma.Release(capS)

	w := out.NewWriter()
	defer w.Close()

	// watermark is the largest item emitted so far and dupSkip the number
	// of its emitted copies, so inputs with duplicate (Key, Aux) items —
	// e.g. data read back from the zero-filled counting engine — sort
	// correctly too: each pass skips exactly the copies already written.
	// For all-distinct inputs the schedule is unchanged.
	watermark := minItem
	dupSkip := 0
	buf := make([]aem.Item, 0, capS)
	for w.Written() < v.Len() {
		buf = buf[:0]
		eqSeen := 0
		sc := v.NewScanner()
		for {
			it, ok := sc.Next()
			if !ok {
				break
			}
			if aem.Less(it, watermark) {
				continue // already emitted in an earlier pass
			}
			if it == watermark {
				eqSeen++
				if eqSeen <= dupSkip {
					continue // this copy was already emitted
				}
			}
			buf = insertCapped(buf, it, capS)
		}
		sc.Close()
		if len(buf) == 0 {
			panic("sorting: SmallSort made no progress; input mutated during sort?")
		}
		for _, it := range buf {
			w.Append(it)
		}
		newMark := buf[len(buf)-1]
		emittedAtMark := 0
		for i := len(buf) - 1; i >= 0 && buf[i] == newMark; i-- {
			emittedAtMark++
		}
		if newMark == watermark {
			dupSkip += emittedAtMark
		} else {
			dupSkip = emittedAtMark
		}
		watermark = newMark
	}
}

// insertCapped inserts it into the ascending-sorted buf, keeping at most
// cap items by discarding the largest. It returns the updated slice.
func insertCapped(buf []aem.Item, it aem.Item, capacity int) []aem.Item {
	if len(buf) == capacity {
		if !aem.Less(it, buf[len(buf)-1]) {
			return buf // larger than everything retained
		}
		buf = buf[:len(buf)-1]
	}
	// Binary search for the insertion point.
	lo, hi := 0, len(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if aem.Less(buf[mid], it) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	buf = append(buf, aem.Item{})
	copy(buf[lo+1:], buf[lo:])
	buf[lo] = it
	return buf
}

// IsSorted reports whether items is ascending in the (Key, Aux) total
// order.
func IsSorted(items []aem.Item) bool {
	for i := 1; i < len(items); i++ {
		if aem.Less(items[i], items[i-1]) {
			return false
		}
	}
	return true
}

// SameMultiset reports whether a and b contain the same items with the
// same multiplicities. Used by tests and the harness to verify that sorts
// and merges neither lose nor invent data.
func SameMultiset(a, b []aem.Item) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[aem.Item]int, len(a))
	for _, it := range a {
		counts[it]++
	}
	for _, it := range b {
		counts[it]--
		if counts[it] < 0 {
			return false
		}
	}
	return true
}
