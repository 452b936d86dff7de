package sorting_test

import (
	"runtime"
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

// TestMergeSortAllocs pins a MergeSort's heap at sortShape: its output
// vectors (one per base case, the merge's and the merge's pointer
// vector), the slice engine's slabs for the base cases' blocks, and a
// constant working set — one base-case sorter for the whole recursion
// and one round buffer, frame and writer per merge. The merge's output
// takes no slab of its own beyond the one its first round and pointer
// vector start: it reuses the blocks the merge discards behind each
// run's pointer. Nothing is allocated per round, per selection pass or
// per base case beyond its output. In bytes, a sort allocates at most
// 1.25 times its keys (the base cases' copy and the block table's
// growth) plus the working set; one that kept its runs would take two.
func TestMergeSortAllocs(t *testing.T) {
	const (
		n          = 1 << 16
		slabItems  = 8192 // the slice engine's 128 KiB slab
		workingSet = 11
		itemBytes  = 16
		setBytes   = 64 << 10
	)
	in := workload.Keys(workload.NewRNG(1), workload.Random, n)
	ma := aem.New(sortShape)
	defer ma.Close()
	v := aem.Load(ma, in)
	sorting.MergeSort(ma, v)

	baseCases := sortShape.MergeFanout()
	vectors := baseCases + 2
	slabs := (sortShape.BlocksOf(n)*sortShape.B+slabItems-1)/slabItems + 1
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(runs, func() { sorting.MergeSort(ma, v) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides its runs.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%v objects: %d vectors, %d slabs; %.0f bytes, %.2f per key byte", got, vectors, slabs, bytes, bytes/(n*itemBytes))
	if limit := float64(vectors + slabs + workingSet); got > limit {
		t.Errorf("MergeSort of %d keys allocated %.0f objects, want ≤ %.0f (%d output vectors, %d slabs, %d working set)",
			n, got, limit, vectors, slabs, workingSet)
	}
	if limit := 1.25*n*itemBytes + setBytes; bytes > limit {
		t.Errorf("MergeSort of %d keys allocated %.0f bytes, want ≤ %.0f (1.25 × %d B of keys + %d B)",
			n, bytes, limit, n*itemBytes, setBytes)
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
