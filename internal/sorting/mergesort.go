package sorting

import (
	"fmt"
	"slices"

	"repro/internal/aem"
)

// MergeSort sorts v into a fresh vector with the AEM mergesort of
// Section 3: the input is divided into d = ωm subarrays, each is sorted
// recursively (with the SmallSort base case once subarrays fit in ωM
// items), and the sorted subarrays are merged with MergeRuns. Total cost:
// O(ω·n·log_{ωm} n) reads and O(n·log_{ωm} n) writes, for any ω.
//
// The input vector is left untouched. Requires M ≥ 8B.
func MergeSort(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	return mergeSortWith(ma, v, MergeRuns)
}

// MergeSortInMemoryPointers is MergeSort built on the in-memory-pointer
// merge of [7]; it panics by design when the ωm merge fanout does not fit
// in internal memory (ω ≳ B).
func MergeSortInMemoryPointers(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	return mergeSortWith(ma, v, MergeRunsInMemoryPointers)
}

type mergeFunc func(*aem.Machine, []*aem.Vector, MergeOptions) *aem.Vector

func mergeSortWith(ma *aem.Machine, v *aem.Vector, merge mergeFunc) *aem.Vector {
	cfg := ma.Config()
	baseCase := cfg.Omega * cfg.M
	if v.Len() <= baseCase {
		return SmallSort(ma, v)
	}

	// Split into at most d = ωm block-aligned subarrays. Because
	// N > ωM = ω·m·B, there are more than ωm blocks, so every subarray
	// gets at least one block.
	d := cfg.MergeFanout()
	blocks := cfg.BlocksOf(v.Len())
	per := (blocks + d - 1) / d // blocks per subarray, ≥ 1

	var sorted []*aem.Vector
	for lo := 0; lo < blocks; lo += per {
		hi := lo + per
		if hi > blocks {
			hi = blocks
		}
		itemLo := lo * cfg.B
		itemHi := hi * cfg.B
		if itemHi > v.Len() {
			itemHi = v.Len()
		}
		sub := v.Slice(itemLo, itemHi)
		sorted = append(sorted, mergeSortWith(ma, sub, merge))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	return merge(ma, sorted, MergeOptions{})
}

// EMMergeSort sorts v with the classic symmetric-EM multiway mergesort,
// oblivious to ω: in-memory sorted base runs of ~M items, then repeated
// (m−2)-way merging holding one block per run in internal memory. It
// performs Θ(n·log_m n) reads and equally many writes, so its AEM cost is
// (1+ω)·n·log_m n — the baseline the Section 3 algorithm improves to
// ω·n·log_{ωm} n. Requires M ≥ 4B.
func EMMergeSort(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	cfg := ma.Config()
	if cfg.M < 4*cfg.B {
		panic(fmt.Sprintf("sorting: EMMergeSort needs M ≥ 4B, got M=%d B=%d", cfg.M, cfg.B))
	}
	if v.Len() == 0 {
		return aem.NewVector(ma, 0)
	}

	// Base runs: load ~M items (one block of slack left for the output
	// frame), sort in memory, write out.
	var runs []*aem.Vector
	blocks := cfg.BlocksOf(v.Len())
	m := cfg.BlocksInMemory()
	chunk := cfg.M/cfg.B - 1 // floor, minus the writer's frame
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < blocks; lo += chunk {
		hi := lo + chunk
		if hi > blocks {
			hi = blocks
		}
		itemLo := lo * cfg.B
		itemHi := hi * cfg.B
		if itemHi > v.Len() {
			itemHi = v.Len()
		}
		runs = append(runs, emSortChunk(ma, v.Slice(itemLo, itemHi)))
	}

	// Merge levels: fanout f leaves one output frame spare.
	fanout := m - 2
	if fanout < 2 {
		fanout = 2
	}
	for len(runs) > 1 {
		var next []*aem.Vector
		for lo := 0; lo < len(runs); lo += fanout {
			hi := lo + fanout
			if hi > len(runs) {
				hi = len(runs)
			}
			next = append(next, emMerge(ma, runs[lo:hi]))
		}
		runs = next
	}
	return runs[0]
}

// emSortChunk reads a ≤ M-item chunk into memory, sorts it, and writes it
// back out: one read and one write per block.
func emSortChunk(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	cfg := ma.Config()
	ma.Reserve(v.Len())
	// Each block is read straight into the chunk buffer's spare capacity:
	// no per-block allocation.
	buf := make([]aem.Item, 0, v.Len())
	for b := 0; b < cfg.BlocksOf(v.Len()); b++ {
		items, _ := v.ReadBlockInto(b*cfg.B, buf[len(buf):len(buf):cap(buf)])
		buf = buf[:len(buf)+len(items)]
	}
	slices.SortFunc(buf, aem.Compare)
	out := aem.NewVector(ma, v.Len())
	w := out.NewWriter()
	for _, it := range buf {
		w.Append(it)
	}
	w.Close()
	ma.Release(v.Len())
	return out
}

// emMerge is the textbook EM multiway merge: one block frame per run plus
// an output frame, all resident in internal memory.
func emMerge(ma *aem.Machine, runs []*aem.Vector) *aem.Vector {
	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	out := aem.NewVector(ma, total)
	w := out.NewWriter()

	scanners := make([]*aem.Scanner, len(runs))
	for i, r := range runs {
		scanners[i] = r.NewScanner()
	}
	heads := make([]aem.Item, len(runs))
	alive := make([]bool, len(runs))
	for i, sc := range scanners {
		heads[i], alive[i] = sc.Next()
	}
	for {
		j := -1
		for i := range heads {
			if alive[i] && (j < 0 || aem.Less(heads[i], heads[j])) {
				j = i
			}
		}
		if j < 0 {
			break
		}
		w.Append(heads[j])
		heads[j], alive[j] = scanners[j].Next()
	}
	for _, sc := range scanners {
		sc.Close()
	}
	w.Close()
	return out
}
