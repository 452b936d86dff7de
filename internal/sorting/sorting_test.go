package sorting_test

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/aem"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// it is shorthand for constructing test items.
func it(key, aux int64) aem.Item { return aem.Item{Key: key, Aux: aux} }

func sortedCopy(items []aem.Item) []aem.Item {
	out := make([]aem.Item, len(items))
	copy(out, items)
	sort.Slice(out, func(i, j int) bool { return aem.Less(out[i], out[j]) })
	return out
}

func checkSortResult(t *testing.T, in []aem.Item, out *aem.Vector) {
	t.Helper()
	got := out.Materialize()
	if !sorting.IsSorted(got) {
		t.Fatal("output not sorted")
	}
	if !sorting.SameMultiset(in, got) {
		t.Fatal("output is not a permutation of the input")
	}
}

func TestSmallSortCorrectness(t *testing.T) {
	cfg := aem.Config{M: 32, B: 4, Omega: 4}
	for _, dist := range workload.Dists() {
		for _, n := range []int{0, 1, 5, 16, 32, 100, 128} {
			ma := aem.New(cfg)
			in := workload.Keys(workload.NewRNG(uint64(n)), dist, n)
			out := sorting.SmallSort(ma, aem.Load(ma, in))
			checkSortResult(t, in, out)
			if ma.MemInUse() != 0 {
				t.Fatalf("dist=%v n=%d: leaked %d memory slots", dist, n, ma.MemInUse())
			}
		}
	}
}

func TestSmallSortCostBound(t *testing.T) {
	// [7, Lemma 4.2]: N′ ≤ ωM items in O(ω·n′) reads and O(n′) writes.
	// With the M/2 selection buffer the pass count is ⌈N′/(M/2)⌉ ≤ 2ω, so
	// reads ≤ 2ω·n′ + n′ and writes = n′ exactly.
	cfg := aem.Config{M: 64, B: 8, Omega: 4}
	n := cfg.Omega * cfg.M // the largest base case, N′ = ωM
	ma := aem.New(cfg)
	in := workload.Keys(workload.NewRNG(1), workload.Random, n)
	sorting.SmallSort(ma, aem.Load(ma, in))

	nBlocks := int64(cfg.BlocksOf(n))
	st := ma.Stats()
	if st.Writes != nBlocks {
		t.Errorf("writes = %d, want exactly n′ = %d", st.Writes, nBlocks)
	}
	maxReads := int64(2*cfg.Omega+1) * nBlocks
	if st.Reads > maxReads {
		t.Errorf("reads = %d > bound %d", st.Reads, maxReads)
	}
}

func TestSmallSortWriteOptimality(t *testing.T) {
	// The whole point of the base case: writes stay at n′ even as ω (and
	// hence the read count) grows.
	for _, w := range []int{1, 4, 16} {
		cfg := aem.Config{M: 64, B: 8, Omega: w}
		n := 512
		ma := aem.New(cfg)
		in := workload.Keys(workload.NewRNG(2), workload.Random, n)
		sorting.SmallSort(ma, aem.Load(ma, in))
		if got := ma.Stats().Writes; got != int64(cfg.BlocksOf(n)) {
			t.Errorf("ω=%d: writes = %d, want %d", w, got, cfg.BlocksOf(n))
		}
	}
}

func loadRuns(ma *aem.Machine, groups [][]aem.Item) []*aem.Vector {
	runs := make([]*aem.Vector, len(groups))
	for i, g := range groups {
		runs[i] = aem.Load(ma, g)
	}
	return runs
}

func TestMergeRunsBasic(t *testing.T) {
	cfg := aem.Config{M: 64, B: 4, Omega: 2}
	ma := aem.New(cfg)
	groups := [][]aem.Item{
		{it(1, 0), it(4, 0), it(9, 0)},
		{it(2, 0), it(3, 0), it(5, 0), it(6, 0), it(7, 0), it(8, 0)},
		{},
		{it(0, 0)},
	}
	var all []aem.Item
	for _, g := range groups {
		all = append(all, g...)
	}
	out := sorting.MergeRuns(ma, loadRuns(ma, groups), sorting.MergeOptions{})
	checkSortResult(t, all, out)
	if ma.MemInUse() != 0 {
		t.Fatalf("leaked %d memory slots", ma.MemInUse())
	}
}

func TestMergeRunsEmpty(t *testing.T) {
	ma := aem.New(aem.Config{M: 64, B: 4, Omega: 2})
	out := sorting.MergeRuns(ma, nil, sorting.MergeOptions{})
	if out.Len() != 0 {
		t.Errorf("empty merge produced %d items", out.Len())
	}
}

// makeRuns cuts a random input into k sorted runs of roughly equal length.
func makeRuns(r *workload.RNG, n, k int) (groups [][]aem.Item, all []aem.Item) {
	all = workload.Keys(r, workload.Random, n)
	per := (n + k - 1) / k
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		g := sortedCopy(all[lo:hi])
		groups = append(groups, g)
	}
	return groups, all
}

func TestMergeRunsManyConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  aem.Config
		n, k int
	}{
		{"small", aem.Config{M: 64, B: 4, Omega: 2}, 200, 7},
		{"omega1", aem.Config{M: 64, B: 8, Omega: 1}, 300, 4},
		{"omega>B", aem.Config{M: 64, B: 4, Omega: 16}, 500, 64},
		{"omega>>B full fanout", aem.Config{M: 64, B: 4, Omega: 32}, 2048, 512},
		{"single run", aem.Config{M: 64, B: 4, Omega: 2}, 100, 1},
		{"runs of one", aem.Config{M: 64, B: 4, Omega: 4}, 60, 60},
		{"B1 aram", aem.Config{M: 16, B: 1, Omega: 8}, 128, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ma := aem.New(tc.cfg)
			groups, all := makeRuns(workload.NewRNG(99), tc.n, tc.k)
			out := sorting.MergeRuns(ma, loadRuns(ma, groups), sorting.MergeOptions{})
			checkSortResult(t, all, out)
			if ma.MemInUse() != 0 {
				t.Fatalf("leaked %d memory slots", ma.MemInUse())
			}
		})
	}
}

func TestMergeRunsTheorem32CostBound(t *testing.T) {
	// Theorem 3.2: merging ωm sorted arrays of N total items takes
	// O(ω(n+m)) reads and O(n+m) writes. The constants below are pinned by
	// measurement; what matters is that they are constants — EXP-M1 checks
	// flatness across the sweep.
	const readC, writeC = 16, 6
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		for _, w := range []int{1, 4, 16} {
			cfg := aem.Config{M: 128, B: 8, Omega: w}
			k := cfg.MergeFanout()
			ma := aem.New(cfg)
			groups, _ := makeRuns(workload.NewRNG(7), n, k)
			sorting.MergeRuns(ma, loadRuns(ma, groups), sorting.MergeOptions{})

			nb := float64(cfg.BlocksOf(n))
			mb := float64(cfg.BlocksInMemory())
			st := ma.Stats()
			if got, bound := float64(st.Reads), readC*float64(w)*(nb+mb); got > bound {
				t.Errorf("N=%d ω=%d: reads %v > %v = %d·ω(n+m)", n, w, got, bound, readC)
			}
			if got, bound := float64(st.Writes), writeC*(nb+mb); got > bound {
				t.Errorf("N=%d ω=%d: writes %v > %v = %d·(n+m)", n, w, got, bound, writeC)
			}
		}
	}
}

func TestMergeRunsReduce(t *testing.T) {
	cfg := aem.Config{M: 64, B: 4, Omega: 2}
	ma := aem.New(cfg)
	groups := [][]aem.Item{
		{it(1, 10), it(3, 30), it(5, 50)},
		{it(1, 1), it(3, 3), it(7, 7)},
		{it(3, 300)},
	}
	out := sorting.MergeRuns(ma, loadRuns(ma, groups), sorting.MergeOptions{Reduce: true})
	got := out.Materialize()
	want := []aem.Item{it(1, 11), it(3, 333), it(5, 50), it(7, 7)}
	if len(got) != len(want) {
		t.Fatalf("reduced output = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reduced output = %v, want %v", got, want)
		}
	}
}

func TestMergeRunsReduceAcrossRounds(t *testing.T) {
	// A key group that spans a round boundary must still be combined into
	// one output item: all runs contain only key 42, so the entire merge
	// reduces to a single item regardless of how many rounds it takes.
	cfg := aem.Config{M: 64, B: 4, Omega: 2}
	ma := aem.New(cfg)
	const n = 500
	groups := make([][]aem.Item, 5)
	var wantSum int64
	for g := range groups {
		for i := 0; i < n/5; i++ {
			v := int64(g*1000 + i)
			groups[g] = append(groups[g], aem.Item{Key: 42, Aux: v})
			wantSum += v
		}
	}
	out := sorting.MergeRuns(ma, loadRuns(ma, groups), sorting.MergeOptions{Reduce: true})
	got := out.Materialize()
	if len(got) != 1 || got[0].Key != 42 || got[0].Aux != wantSum {
		t.Fatalf("reduced output = %v, want [{42 %d}]", got, wantSum)
	}
}

func TestInMemoryPointersMatchExternal(t *testing.T) {
	// Where both apply (ωm pointers fit in memory), the two merges must
	// produce identical output.
	cfg := aem.Config{M: 128, B: 16, Omega: 2}
	groups, all := makeRuns(workload.NewRNG(5), 600, 10)

	ma1 := aem.New(cfg)
	out1 := sorting.MergeRuns(ma1, loadRuns(ma1, groups), sorting.MergeOptions{})
	checkSortResult(t, all, out1)

	ma2 := aem.New(cfg)
	out2 := sorting.MergeRunsInMemoryPointers(ma2, loadRuns(ma2, groups), sorting.MergeOptions{})
	checkSortResult(t, all, out2)

	a, b := out1.Materialize(), out2.Materialize()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The external store pays pointer I/O; the in-memory store must not
	// pay more I/O than it.
	if ma2.Stats().IOs() > ma1.Stats().IOs() {
		t.Errorf("in-memory pointers cost %d I/Os > external %d", ma2.Stats().IOs(), ma1.Stats().IOs())
	}
}

func TestInMemoryPointersFailForLargeOmega(t *testing.T) {
	// ω ≫ B: the ωm run pointers exceed M and the [7]-style merge must
	// die with a memory overflow. This is the assumption the paper's §3
	// algorithm removes.
	cfg := aem.Config{M: 64, B: 4, Omega: 64} // fanout ωm = 1024 ≫ M
	ma := aem.New(cfg)
	groups, _ := makeRuns(workload.NewRNG(5), 4096, cfg.MergeFanout())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected memory-overflow panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "memory capacity exceeded") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	sorting.MergeRunsInMemoryPointers(ma, loadRuns(ma, groups), sorting.MergeOptions{})
}

func TestMergeSortCorrectness(t *testing.T) {
	cases := []struct {
		name string
		cfg  aem.Config
		n    int
	}{
		{"one level", aem.Config{M: 64, B: 4, Omega: 2}, 512},
		{"two levels", aem.Config{M: 64, B: 4, Omega: 2}, 4096},
		{"omega>B", aem.Config{M: 64, B: 4, Omega: 16}, 8192},
		{"base case only", aem.Config{M: 64, B: 4, Omega: 4}, 200},
		{"B1", aem.Config{M: 16, B: 1, Omega: 4}, 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, dist := range workload.Dists() {
				ma := aem.New(tc.cfg)
				in := workload.Keys(workload.NewRNG(3), dist, tc.n)
				out := sorting.MergeSort(ma, aem.Load(ma, in))
				checkSortResult(t, in, out)
				if ma.MemInUse() != 0 {
					t.Fatalf("dist %v: leaked %d memory slots", dist, ma.MemInUse())
				}
			}
		})
	}
}

func TestMergeSortWritesBeatReadsByOmega(t *testing.T) {
	// The headline property of the §3 mergesort: the write count is about
	// a 1/ω fraction of the read count (reads O(ωn log), writes O(n log)).
	cfg := aem.Config{M: 128, B: 8, Omega: 16}
	ma := aem.New(cfg)
	in := workload.Keys(workload.NewRNG(4), workload.Random, 1<<14)
	sorting.MergeSort(ma, aem.Load(ma, in))
	st := ma.Stats()
	ratio := float64(st.Reads) / float64(st.Writes)
	if ratio < float64(cfg.Omega)/4 {
		t.Errorf("read/write ratio %.2f; want ≳ ω/4 = %d", ratio, cfg.Omega/4)
	}
}

func TestEMMergeSortCorrectness(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1000, 5000} {
		cfg := aem.Config{M: 64, B: 4, Omega: 4}
		ma := aem.New(cfg)
		in := workload.Keys(workload.NewRNG(uint64(n)), workload.Random, n)
		out := sorting.EMMergeSort(ma, aem.Load(ma, in))
		checkSortResult(t, in, out)
		if ma.MemInUse() != 0 {
			t.Fatalf("n=%d: leaked %d memory slots", n, ma.MemInUse())
		}
	}
}

func TestAEMvsEMMergeSortTrend(t *testing.T) {
	// §3's motivation, measured honestly: the AEM mergesort's advantage
	// over the symmetric mergesort is asymptotic (the log base improves
	// from m to ωm), so at simulator scales the measurable claim is the
	// trend — the cost ratio AEM/EM must fall monotonically as ω grows,
	// and the EM algorithm's write count must exceed the AEM one's by at
	// least the merge-depth ratio.
	in := workload.Keys(workload.NewRNG(6), workload.Random, 1<<14)
	first, last := 0.0, 0.0
	prev := 0.0
	for i, w := range []int{1, 4, 16, 64} {
		cfg := aem.Config{M: 128, B: 8, Omega: w}
		ma1 := aem.New(cfg)
		sorting.MergeSort(ma1, aem.Load(ma1, in))
		ma2 := aem.New(cfg)
		sorting.EMMergeSort(ma2, aem.Load(ma2, in))

		ratio := float64(ma1.Cost()) / float64(ma2.Cost())
		if i == 0 {
			first = ratio
		} else if ratio > 1.15*prev {
			t.Errorf("ω=%d: cost ratio AEM/EM = %.3f jumped from %.3f", w, ratio, prev)
		}
		prev, last = ratio, ratio
	}
	if last > 0.85*first {
		t.Errorf("ratio did not improve with ω: %.3f at ω=1 vs %.3f at ω=64", first, last)
	}
}

func TestAEMWriteSavingsAtDepth(t *testing.T) {
	// Once the symmetric sort needs several merge levels while the AEM
	// sort needs one (ωm ≫ m), the AEM write count must be strictly
	// smaller — writes are what an asymmetric memory makes precious.
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	cfg := aem.Config{M: 64, B: 4, Omega: 64}
	in := workload.Keys(workload.NewRNG(8), workload.Random, 1<<16)

	ma1 := aem.New(cfg)
	sorting.MergeSort(ma1, aem.Load(ma1, in))
	ma2 := aem.New(cfg)
	sorting.EMMergeSort(ma2, aem.Load(ma2, in))

	if w1, w2 := ma1.Stats().Writes, ma2.Stats().Writes; w1 >= w2 {
		t.Errorf("AEM writes %d ≥ EM writes %d at ω=64 with deep EM recursion", w1, w2)
	}
}

func TestMergeSortQuick(t *testing.T) {
	// Property: sorting.MergeSort sorts any input on any (small) legal machine.
	f := func(keys []int64, mSel, bSel, wSel uint8) bool {
		b := 1 + int(bSel%8)
		m := 8*b + int(mSel)
		w := 1 + int(wSel%32)
		cfg := aem.Config{M: m, B: b, Omega: w}
		ma := aem.New(cfg)
		in := make([]aem.Item, len(keys))
		for i, k := range keys {
			in[i] = aem.Item{Key: k, Aux: int64(i)}
		}
		out := sorting.MergeSort(ma, aem.Load(ma, in)).Materialize()
		return sorting.IsSorted(out) && sorting.SameMultiset(in, out) && ma.MemInUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestIsSortedAndSameMultiset(t *testing.T) {
	sorted := []aem.Item{it(1, 0), it(1, 1), it(2, 0)}
	if !sorting.IsSorted(sorted) {
		t.Error("sorting.IsSorted(sorted) = false")
	}
	if sorting.IsSorted([]aem.Item{it(2, 0), it(1, 0)}) {
		t.Error("sorting.IsSorted(unsorted) = true")
	}
	if !sorting.IsSorted(nil) {
		t.Error("sorting.IsSorted(nil) = false")
	}
	if !sorting.SameMultiset([]aem.Item{it(1, 0), it(1, 0)}, []aem.Item{it(1, 0), it(1, 0)}) {
		t.Error("sorting.SameMultiset equal = false")
	}
	if sorting.SameMultiset([]aem.Item{it(1, 0), it(1, 0)}, []aem.Item{it(1, 0), it(2, 0)}) {
		t.Error("sorting.SameMultiset different = true")
	}
	if sorting.SameMultiset([]aem.Item{it(1, 0)}, []aem.Item{}) {
		t.Error("sorting.SameMultiset different lengths = true")
	}
}

func TestMergeSortPhaseAccounting(t *testing.T) {
	// Per-phase I/O must partition the total, and pointer-maintenance
	// writes must stay O(n) — the §3.1 argument that external pointers
	// are affordable.
	cfg := aem.Config{M: 128, B: 8, Omega: 8}
	ma := aem.New(cfg)
	in := workload.Keys(workload.NewRNG(21), workload.Random, 1<<14)
	sorting.MergeSort(ma, aem.Load(ma, in))

	ph := ma.Phases()
	if total := ph.Total(); total != ma.Stats() {
		t.Errorf("phase total %+v != stats %+v", total, ma.Stats())
	}
	for _, name := range []string{"base", "merge", "pointers"} {
		if ph.Phase(name) == (aem.Stats{}) {
			t.Errorf("phase %q recorded no I/O", name)
		}
	}
	nb := int64(cfg.BlocksOf(1 << 14))
	if pw := ph.Phase("pointers").Writes; pw > 2*nb {
		t.Errorf("pointer writes %d > 2n = %d; §3.1 accounting broken", pw, 2*nb)
	}
}

func TestMergeRunsMaxBufferAblation(t *testing.T) {
	// Shrinking the round buffer must not change the output and must not
	// make the merge cheaper (the EXP-A1 ablation's direction).
	cfg := aem.Config{M: 128, B: 8, Omega: 8}
	groups, all := makeRuns(workload.NewRNG(22), 4096, cfg.MergeFanout())

	ma1 := aem.New(cfg)
	out1 := sorting.MergeRuns(ma1, loadRuns(ma1, groups), sorting.MergeOptions{})
	checkSortResult(t, all, out1)

	ma2 := aem.New(cfg)
	out2 := sorting.MergeRuns(ma2, loadRuns(ma2, groups), sorting.MergeOptions{MaxBuffer: 16})
	checkSortResult(t, all, out2)

	if ma2.Cost() < ma1.Cost() {
		t.Errorf("capped buffer cost %d < full buffer cost %d", ma2.Cost(), ma1.Cost())
	}
	a, b := out1.Materialize(), out2.Materialize()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MaxBuffer changed the output")
		}
	}
}

// TestSortsLeaveInputsReadable: the sorts discard only the vectors they
// make themselves. A MergeSort's, EMMergeSort's or EMSampleSort's input,
// and the runs a caller hands MergeRuns and MergeAll (with enough runs
// for MergeAll to merge its own vectors at a second level), read back
// unchanged after the call, and every output is the sorted input.
func TestSortsLeaveInputsReadable(t *testing.T) {
	cfg := aem.Config{M: 64, B: 8, Omega: 2}
	keys := workload.Keys(workload.NewRNG(7), workload.Random, 40*cfg.Omega*cfg.M)
	groups := evenRuns(keys, 3*cfg.MergeFanout()+1)
	one := func(sort func(*aem.Machine, *aem.Vector) *aem.Vector) func(*aem.Machine, []*aem.Vector) *aem.Vector {
		return func(ma *aem.Machine, in []*aem.Vector) *aem.Vector { return sort(ma, in[0]) }
	}
	for _, tc := range []struct {
		name string
		sort func(*aem.Machine, []*aem.Vector) *aem.Vector
		runs int // how many of groups the input is, one vector each; 0: keys in one vector
	}{
		{"MergeSort", one(sorting.MergeSort), 0},
		{"MergeSortInMemoryPointers", one(sorting.MergeSortInMemoryPointers), 0},
		{"EMMergeSort", one(sorting.EMMergeSort), 0},
		{"EMSampleSort", one(func(ma *aem.Machine, v *aem.Vector) *aem.Vector { return sorting.EMSampleSort(ma, v, 3) }), 0},
		{"MergeRuns", func(ma *aem.Machine, in []*aem.Vector) *aem.Vector {
			return sorting.MergeRuns(ma, in, sorting.MergeOptions{})
		}, cfg.MergeFanout()},
		{"MergeAll", func(ma *aem.Machine, in []*aem.Vector) *aem.Vector {
			return sorting.MergeAll(ma, in, sorting.MergeOptions{})
		}, len(groups)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ma := aem.New(cfg)
			in, want := []*aem.Vector{aem.Load(ma, keys)}, [][]aem.Item{keys}
			if tc.runs > 0 {
				in, want = loadRuns(ma, groups[:tc.runs]), groups[:tc.runs]
			}
			out := tc.sort(ma, in)
			var all []aem.Item
			for i, v := range in {
				// Block by block: Materialize panics on a short vector.
				var got []aem.Item
				for b := 0; b < v.Blocks(); b++ {
					got = append(got, ma.PeekInto(v.Base()+aem.Addr(b), nil)...)
				}
				if !slices.Equal(got, want[i]) {
					t.Fatalf("input %d changed: %d of its %d items read back", i, len(got), len(want[i]))
				}
				all = append(all, want[i]...)
			}
			checkSortResult(t, all, out)
		})
	}
}
