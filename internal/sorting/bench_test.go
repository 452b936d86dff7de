package sorting_test

import (
	"testing"

	"repro/internal/aem"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// sortShape is the repository benchmark's machine (perfbench's sort-aem
// workload sorts 2^20 keys on it): N ≤ ωM·ωm, so a MergeSort is ωm base
// cases and one ωm-way §3 merge.
var sortShape = aem.Config{M: 1024, B: 32, Omega: 16}

// BenchmarkMergeSort times one MergeSort of 2^17 random keys at
// sortShape. Machine set-up and the input's Load are outside the timer,
// so allocs/op counts the sort's own heap objects; Q/item is its model
// cost per key.
func BenchmarkMergeSort(b *testing.B) {
	const n = 1 << 17
	in := workload.Keys(workload.NewRNG(1), workload.Random, n)
	b.ReportAllocs()
	var q int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ma := aem.New(sortShape)
		v := aem.Load(ma, in)
		b.StartTimer()
		sorting.MergeSort(ma, v)
		b.StopTimer()
		q = ma.Cost()
		ma.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(q)/n, "Q/item")
}

// TestMergeSortAllocs pins a MergeSort's heap objects at sortShape: its
// output vectors (one per base case, the merge's and the merge's pointer
// vector), the slice engine's slabs for the blocks it writes, and a
// constant working set — one base-case sorter for the whole recursion
// and one round buffer, frame and writer per merge. Nothing is allocated
// per round, per selection pass or per base case beyond its output.
func TestMergeSortAllocs(t *testing.T) {
	const (
		n          = 1 << 16
		slabItems  = 8192 // the slice engine's 128 KiB slab
		workingSet = 11
	)
	in := workload.Keys(workload.NewRNG(1), workload.Random, n)
	ma := aem.New(sortShape)
	defer ma.Close()
	v := aem.Load(ma, in)
	before := ma.NumBlocks()
	sorting.MergeSort(ma, v)
	blocks := ma.NumBlocks() - before

	baseCases := sortShape.MergeFanout()
	vectors := baseCases + 2
	slabs := (blocks*sortShape.B + slabItems - 1) / slabItems
	got := testing.AllocsPerRun(4, func() { sorting.MergeSort(ma, v) })
	t.Logf("%v objects: %d vectors, %d slabs", got, vectors, slabs)
	if limit := float64(vectors + slabs + workingSet); got > limit {
		t.Errorf("MergeSort of %d keys allocated %.0f objects, want ≤ %.0f (%d output vectors, %d slabs, %d working set)",
			n, got, limit, vectors, slabs, workingSet)
	}
}

// TestMergeRunsAllocs pins one §3 merge's heap objects at sortShape, for
// few short runs (a priority queue's batch merge, MergeAll's upper levels)
// and for many long ones: its output vector and pointer vector, the slice
// engine's slabs for the blocks it writes, and a constant working set —
// the merge state, its round buffer, active list, block frames, pointer
// updates, writers and reducer. The passes are methods on the merge
// state, so nothing is allocated per run or per round.
func TestMergeRunsAllocs(t *testing.T) {
	const (
		slabItems  = 8192 // the slice engine's 128 KiB slab
		workingSet = 8
	)
	for _, tc := range []struct {
		name      string
		runs, per int
	}{
		{"2 runs of 40", 2, 40},
		{"64 runs of 1024", 64, 1024},
	} {
		ma := aem.New(sortShape)
		r := workload.NewRNG(1)
		runs := make([]*aem.Vector, tc.runs)
		for i := range runs {
			runs[i] = aem.Load(ma, sorting.SmallSort(ma, aem.Load(ma, workload.Keys(r, workload.Random, tc.per))).Materialize())
		}
		before := ma.NumBlocks()
		sorting.MergeRuns(ma, runs, sorting.MergeOptions{})
		blocks := ma.NumBlocks() - before
		slabs := (blocks*sortShape.B + slabItems - 1) / slabItems
		got := testing.AllocsPerRun(4, func() { sorting.MergeRuns(ma, runs, sorting.MergeOptions{}) })
		t.Logf("%s: %v objects, %d slabs", tc.name, got, slabs)
		if limit := float64(2 + slabs + workingSet); got > limit {
			t.Errorf("%s: MergeRuns allocated %.0f objects, want ≤ %.0f (2 vectors, %d slabs, %d working set)",
				tc.name, got, limit, slabs, workingSet)
		}
		ma.Close()
	}
}
