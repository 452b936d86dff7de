package sorting

import (
	"fmt"
	"slices"

	"repro/internal/aem"
	"repro/internal/rng"
)

// EMSampleSort is a distribution (sample) sort baseline in the classic
// external-memory style: sample splitters, partition the input into
// f = Θ(m) buckets with one in-memory buffer block per bucket, and
// recurse. Cost Θ((1+ω)·n·log_m n) — like the symmetric mergesort, it
// pays full writes on every level, so it is a second independent baseline
// for the Section 3 comparison.
//
// The paper's §1.1 notes that the *write-efficient* sample sort of
// Blelloch et al. [7] achieves O(ω·n·log_{ωm} n) unconditionally; that
// construction's details are not in this paper and are out of scope here
// (see README.md, "Scope") — the ω-optimal sorter in this repository is the §3
// mergesort. This baseline's fanout is memory-bound (one block buffer per
// bucket), which is precisely why a distribution sort cannot reach ωm-way
// fanout naively: ωm bucket buffers would need ωM > M memory.
//
// Requires M ≥ 8B. The sort is deterministic given seed.
func EMSampleSort(ma *aem.Machine, v *aem.Vector, seed uint64) *aem.Vector {
	cfg := ma.Config()
	if cfg.M < 8*cfg.B {
		panic(fmt.Sprintf("sorting: EMSampleSort needs M ≥ 8B, got M=%d B=%d", cfg.M, cfg.B))
	}
	rng := rng.New(seed)
	return sampleSortRec(ma, v, rng, 0)
}

// maxSampleDepth guards against adversarial samples; beyond it the
// recursion falls back to the mergesort (never triggered on random data,
// verified by tests).
const maxSampleDepth = 64

func sampleSortRec(ma *aem.Machine, v *aem.Vector, rng *rng.RNG, depth int) *aem.Vector {
	cfg := ma.Config()
	if v.Len() <= cfg.M/2 {
		return emSortChunk(ma, v, 0, v.Len(), make([]aem.Item, 0, v.Len()))
	}
	if depth > maxSampleDepth {
		return MergeSort(ma, v)
	}

	// Fanout: one buffer block per bucket plus scan/writer frames, and a
	// sample of 4f items in half the memory.
	f := cfg.BlocksInMemory() - 4
	if f > cfg.M/8 {
		f = cfg.M / 8
	}
	if f < 2 {
		f = 2
	}

	splitters := pickSplitters(ma, v, rng, f)

	// Pass 1: count bucket sizes (one scan).
	counts := make([]int, f)
	ma.Reserve(f) // counts + splitters live in memory during the passes
	sc := v.NewScanner()
	for {
		it, ok := sc.Next()
		if !ok {
			break
		}
		counts[bucketOf(splitters, it)]++
	}
	sc.Close()

	// Pass 2: distribute into per-bucket vectors (one scan, one buffered
	// writer per non-empty bucket — at most f·B ≤ M − 4B memory).
	buckets := make([]*aem.Vector, f)
	writers := make([]*aem.Writer, f)
	for j, c := range counts {
		buckets[j] = aem.NewVector(ma, c)
		if c > 0 {
			writers[j] = buckets[j].NewWriter()
		}
	}
	sc = v.NewScanner()
	for {
		it, ok := sc.Next()
		if !ok {
			break
		}
		writers[bucketOf(splitters, it)].Append(it)
	}
	sc.Close()
	for _, w := range writers {
		if w != nil {
			w.Close()
		}
	}
	ma.Release(f)

	// Recurse with no reservations held (a writer kept open across the
	// recursion would stack one block frame per depth level), then
	// concatenate the sorted buckets with a single scan. The buckets and
	// their sorted copies are the sort's own: each is discarded once it
	// has been read for the last time.
	sorted := make([]*aem.Vector, 0, f)
	for j, bucket := range buckets {
		if counts[j] > 0 {
			sorted = append(sorted, sampleSortRec(ma, bucket, rng, depth+1))
			bucket.Discard(0, bucket.Blocks())
		}
	}
	out := aem.NewVector(ma, v.Len())
	ow := out.NewWriter()
	for _, sv := range sorted {
		bs := sv.NewScanner()
		for {
			it, ok := bs.Next()
			if !ok {
				break
			}
			ow.Append(it)
		}
		bs.Close()
		sv.Discard(0, sv.Blocks())
	}
	ow.Close()
	return out
}

// pickSplitters samples 4f items (4f block reads, 4f ≤ M/2 memory), sorts
// them in memory, and returns f−1 evenly spaced splitters.
func pickSplitters(ma *aem.Machine, v *aem.Vector, rng *rng.RNG, f int) []aem.Item {
	s := 4 * f
	if s > v.Len() {
		s = v.Len()
	}
	ma.Reserve(s)
	sample := make([]aem.Item, 0, s)
	frame := make([]aem.Item, 0, ma.Config().B)
	for i := 0; i < s; i++ {
		blk, _ := v.ReadBlockInto(rng.Intn(v.Len()), frame)
		sample = append(sample, blk[rng.Intn(len(blk))])
	}
	slices.SortFunc(sample, aem.Compare)
	splitters := make([]aem.Item, 0, f-1)
	for j := 1; j < f; j++ {
		splitters = append(splitters, sample[j*len(sample)/f])
	}
	ma.Release(s)
	return splitters
}

// bucketOf returns the index of the first splitter greater than it (items
// equal to a splitter go left), via binary search.
func bucketOf(splitters []aem.Item, it aem.Item) int {
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if aem.Less(splitters[mid], it) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
