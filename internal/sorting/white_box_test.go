// White-box tests of unexported helpers. They live in the package itself
// (the exported surface is tested from the external test package, which
// can import the workload generators without a cycle).
package sorting

import (
	"slices"
	"testing"

	"repro/internal/aem"
	"repro/internal/rng"
)

// TestSelectHeap: the bounded heap keeps exactly the limit smallest
// entries offered, in any offer order, drains them ascending, and orders
// entries with equal items by (run, idx), so exact duplicates from
// different runs or positions are never conflated.
func TestSelectHeap(t *testing.T) {
	const limit = 5
	var entries []mergeEntry
	for _, key := range []int64{9, 3, 7, 3, 1, 8, 3, 2, 6, 3} {
		entries = append(entries, mergeEntry{it: aem.Item{Key: key}, run: int32(key % 3), idx: int64(len(entries))})
	}
	want := slices.Clone(entries)
	slices.SortFunc(want, func(a, b mergeEntry) int {
		switch {
		case entryLess(a, b):
			return -1
		case entryLess(b, a):
			return 1
		}
		t.Fatalf("distinct entries %+v and %+v tie", a, b)
		return 0
	})
	want = want[:limit]

	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		h := newSelectHeap(limit)
		for _, i := range r.Perm(len(entries)) {
			room := !h.full()
			if kept := h.offer(entries[i]); room && !kept {
				t.Fatal("a heap with room turned an entry away")
			}
			if h.len() > limit {
				t.Fatalf("heap holds %d entries, limit %d", h.len(), limit)
			}
		}
		if got := h.max(); got != want[limit-1] {
			t.Fatalf("max = %+v, want %+v", got, want[limit-1])
		}
		got := h.drain()
		if !slices.Equal(got, want) {
			t.Fatalf("drained %+v, want %+v", got, want)
		}
		if h.len() != 0 {
			t.Fatalf("heap holds %d entries after drain", h.len())
		}
	}

	// Ties on the item break by run, then by index.
	a := mergeEntry{it: aem.Item{Key: 4}, run: 1, idx: 9}
	b := mergeEntry{it: aem.Item{Key: 4}, run: 2, idx: 0}
	c := mergeEntry{it: aem.Item{Key: 4}, run: 2, idx: 1}
	h := newSelectHeap(2)
	for _, e := range []mergeEntry{c, b, a} {
		h.offer(e)
	}
	if got := h.drain(); !slices.Equal(got, []mergeEntry{a, b}) {
		t.Fatalf("tied entries drained as %+v, want %+v", got, []mergeEntry{a, b})
	}
	h.offer(a)
	h.offer(b)
	if h.offer(b) {
		t.Fatal("a full heap kept an entry equal to its maximum")
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
// sort correctly, and the selection passes must still make progress on
// massively duplicated blocks. Regression test for the watermark
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
