package main

import "testing"

func seq(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int64
	}{
		{100, 50, 50},   // rank ⌈50⌉
		{101, 50, 51},   // rank ⌈50.5⌉
		{1000, 99, 990}, // exactly 10 beyond
		{20, 50, 10},
		{11, 1, 1}, // rank clamps up to 1
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %d, %v; want %d", c.p, c.n, got, err, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{999, 99}, // rank 990, 9 beyond
		{100, 99},
		{19, 50}, // rank 10, 9 beyond
		{0, 50},
	} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d samples = %d, want an error", c.p, c.n, v)
		}
	}
}

func TestMedianF(t *testing.T) {
	if m := medianF([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %g", m)
	}
	if m := medianF([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", m)
	}
}
