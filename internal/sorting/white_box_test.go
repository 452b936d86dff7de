// White-box tests of unexported helpers. They live in the package itself
// (the exported surface is tested from the external test package, which
// can import the workload generators without a cycle).
package sorting

import (
	"testing"

	"repro/internal/aem"
)

func TestInsertCapped(t *testing.T) {
	var buf []aem.Item
	for _, k := range []int64{5, 3, 9, 1, 7} {
		buf = insertCapped(buf, aem.Item{Key: k}, 3)
	}
	if len(buf) != 3 {
		t.Fatalf("len = %d, want 3", len(buf))
	}
	want := []int64{1, 3, 5}
	for i, k := range want {
		if buf[i].Key != k {
			t.Errorf("buf[%d].Key = %d, want %d", i, buf[i].Key, k)
		}
	}
}

func TestBucketOf(t *testing.T) {
	sp := []aem.Item{{Key: 10}, {Key: 20}, {Key: 30}}
	cases := []struct {
		key  int64
		want int
	}{
		{5, 0}, {10, 0}, {15, 1}, {20, 1}, {25, 2}, {30, 2}, {35, 3},
	}
	for _, tc := range cases {
		if got := bucketOf(sp, aem.Item{Key: tc.key}); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	if got := bucketOf(nil, aem.Item{Key: 1}); got != 0 {
		t.Errorf("bucketOf with no splitters = %d, want 0", got)
	}
}

// TestSmallSortDuplicateItems: inputs with repeated (Key, Aux) items must
// sort correctly — the counting storage engine hands every algorithm
// zero-filled (hence massively duplicated) blocks, and the selection
// passes must still make progress. Regression test for the watermark
// duplicate-skip logic.
func TestSmallSortDuplicateItems(t *testing.T) {
	cfg := aem.Config{M: 64, B: 8, Omega: 8}
	cases := [][]aem.Item{
		make([]aem.Item, 300), // all zero
		func() []aem.Item {
			items := make([]aem.Item, 300)
			for i := range items {
				items[i] = aem.Item{Key: int64(i % 3), Aux: int64(i % 2)}
			}
			return items
		}(),
	}
	for ci, in := range cases {
		ma := aem.New(cfg)
		out := SmallSort(ma, aem.Load(ma, in))
		got := out.Materialize()
		if !IsSorted(got) {
			t.Fatalf("case %d: output not sorted", ci)
		}
		if !SameMultiset(in, got) {
			t.Fatalf("case %d: multiset changed", ci)
		}
	}
}
