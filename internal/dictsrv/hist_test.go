package dictsrv

import (
	"sort"
	"testing"

	"repro/internal/workload"
)

// nearestRank is the sorted reference: the ⌈num/den·N⌉-th smallest of
// sorted, in integer arithmetic.
func nearestRank(sorted []int64, num, den int64) int64 {
	n := int64(len(sorted))
	return sorted[(num*n+den-1)/den-1]
}

// TestHistAgainstSortedReference holds Hist to the exact nearest-rank
// quantiles of a sorted copy: Quantile never understates and overstates
// by at most 1/8, MaxNS is exact, and merging a split population equals
// recording it whole.
func TestHistAgainstSortedReference(t *testing.T) {
	r := workload.NewRNG(5)
	mixed := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = r.Int63() >> r.Intn(64) // every magnitude, 0 included
		}
		return xs
	}
	same := make([]int64, 1000)
	for i := range same {
		same[i] = 12345
	}
	pops := []struct {
		name string
		xs   []int64
	}{
		{"zero", []int64{0}},
		{"single", []int64{987654321}},
		{"all-equal", same},
		{"zeros", make([]int64, 300)},
		{"mixed-7", mixed(7)},
		{"mixed-100", mixed(100)},
		{"mixed-1600", mixed(1600)},
		{"mixed-20k", mixed(20000)},
	}
	qs := []struct {
		q        float64
		num, den int64
	}{{0.5, 1, 2}, {0.99, 99, 100}, {0.999, 999, 1000}, {1, 1, 1}}

	for _, p := range pops {
		name, xs := p.name, p.xs
		var whole, a, b Hist
		for i, x := range xs {
			whole.Record(x)
			if r.Intn(3) == 0 || i == 0 {
				a.Record(x)
			} else {
				b.Record(x)
			}
		}
		a.Merge(&b)
		if a != whole {
			t.Errorf("%s: merging a split population differs from recording it whole", name)
		}
		sorted := append([]int64(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if whole.N != int64(len(xs)) || whole.MaxNS != sorted[len(sorted)-1] {
			t.Errorf("%s: N %d MaxNS %d, want %d and %d", name, whole.N, whole.MaxNS, len(xs), sorted[len(sorted)-1])
		}
		for _, c := range qs {
			exact, got := nearestRank(sorted, c.num, c.den), whole.Quantile(c.q)
			// got ≤ 9/8·exact, computed without overflowing near 2^63.
			if got < exact || got-exact > exact/8 {
				t.Errorf("%s: Quantile(%g) = %d, exact %d: outside [exact, 9/8·exact]", name, c.q, got, exact)
			}
		}
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 || empty.MaxNS != 0 {
		t.Error("an empty histogram reports a nonzero quantile")
	}
}

// TestHistQuantileRank pins the rank ⌈q·N⌉: at N = 1600, q = 0.999 the
// 1599th smallest, not the 1598th that rounding q·N picks; and at
// N = 100, q = 0.07 the 7th, though 0.07·100 evaluates just above 7.
func TestHistQuantileRank(t *testing.T) {
	for _, c := range []struct {
		n, below int // n samples, all 0 except the top n-below, which are 1
		q        float64
		want     int64
	}{
		{1600, 1598, 0.999, 1},
		{100, 7, 0.07, 0},
		{100, 7, 0.08, 1},
	} {
		var h Hist
		for i := 0; i < c.n; i++ {
			h.Record(int64(min(i/c.below, 1)))
		}
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("N=%d with %d zeros: Quantile(%g) = %d, want %d", c.n, c.below, c.q, got, c.want)
		}
	}
}
