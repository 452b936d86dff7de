package aem

import (
	"testing"
	"testing/quick"
)

func seqItems(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: int64(i), Aux: int64(100 + i)}
	}
	return items
}

func TestLoadAndMaterialize(t *testing.T) {
	ma := New(testConfig())
	for _, n := range []int{0, 1, 3, 4, 5, 17} {
		items := seqItems(n)
		v := Load(ma, items)
		got := v.Materialize()
		if len(got) != n {
			t.Fatalf("n=%d: Materialize returned %d items", n, len(got))
		}
		for i := range items {
			if got[i] != items[i] {
				t.Fatalf("n=%d: item %d = %v, want %v", n, i, got[i], items[i])
			}
		}
	}
	if st := ma.Stats(); st != (Stats{}) {
		t.Errorf("Load/Materialize cost I/O: %+v", st)
	}
}

func TestVectorGeometry(t *testing.T) {
	ma := New(testConfig()) // B = 4
	v := Load(ma, seqItems(10))
	if v.Len() != 10 {
		t.Errorf("Len = %d", v.Len())
	}
	if v.Blocks() != 3 {
		t.Errorf("Blocks = %d, want 3", v.Blocks())
	}
	if v.BlockAddr(0) != v.Base() {
		t.Errorf("BlockAddr(0) = %d, want base %d", v.BlockAddr(0), v.Base())
	}
	if v.BlockAddr(9) != v.Base()+2 {
		t.Errorf("BlockAddr(9) = %d, want base+2", v.BlockAddr(9))
	}
	if v.Machine() != ma {
		t.Error("Machine() did not return owner")
	}
}

func TestReadBlockCostsOneIO(t *testing.T) {
	ma := New(testConfig())
	v := Load(ma, seqItems(10))
	items, first := v.ReadBlockInto(5, nil)
	if first != 4 {
		t.Errorf("first = %d, want 4", first)
	}
	if len(items) != 4 || items[0].Key != 4 {
		t.Errorf("block = %v", items)
	}
	if st := ma.Stats(); st.Reads != 1 {
		t.Errorf("ReadBlockInto cost %+v, want one read", st)
	}
}

func TestSliceViews(t *testing.T) {
	ma := New(testConfig()) // B = 4
	v := Load(ma, seqItems(12))
	s := v.Slice(4, 12)
	if s.Len() != 8 {
		t.Fatalf("slice Len = %d, want 8", s.Len())
	}
	got := s.Materialize()
	if got[0].Key != 4 || got[7].Key != 11 {
		t.Errorf("slice contents = %v", got)
	}
	// Unaligned lower bound must panic.
	func() {
		defer expectPanic(t, "not block-aligned")
		v.Slice(2, 8)
	}()
}

func TestScannerSequentialCost(t *testing.T) {
	ma := New(testConfig()) // B = 4
	const n = 10
	v := Load(ma, seqItems(n))
	sc := v.NewScanner()
	var count int
	for {
		item, ok := sc.Next()
		if !ok {
			break
		}
		if item.Key != int64(count) {
			t.Fatalf("item %d has key %d", count, item.Key)
		}
		count++
	}
	sc.Close()
	if count != n {
		t.Fatalf("scanned %d items, want %d", count, n)
	}
	// Exactly ceil(10/4) = 3 reads.
	if st := ma.Stats(); st.Reads != 3 || st.Writes != 0 {
		t.Errorf("scan cost %+v, want 3 reads", st)
	}
	if ma.MemInUse() != 0 {
		t.Errorf("scanner leaked %d memory slots", ma.MemInUse())
	}
}

func TestScannerPeekAndRemaining(t *testing.T) {
	ma := New(testConfig())
	v := Load(ma, seqItems(5))
	sc := v.NewScanner()
	defer sc.Close()
	if got := sc.Remaining(); got != 5 {
		t.Errorf("Remaining = %d, want 5", got)
	}
	p1, ok := sc.Peek()
	if !ok || p1.Key != 0 {
		t.Errorf("Peek = %v, %t", p1, ok)
	}
	n1, _ := sc.Next()
	if n1 != p1 {
		t.Errorf("Next %v != Peek %v", n1, p1)
	}
	if got := sc.Remaining(); got != 4 {
		t.Errorf("Remaining after one Next = %d, want 4", got)
	}
}

func TestScannerEmptyVector(t *testing.T) {
	ma := New(testConfig())
	v := Load(ma, nil)
	sc := v.NewScanner()
	defer sc.Close()
	if _, ok := sc.Next(); ok {
		t.Error("Next on empty vector returned ok")
	}
	if _, ok := sc.Peek(); ok {
		t.Error("Peek on empty vector returned ok")
	}
}

func TestWriterBlockGranularWrites(t *testing.T) {
	ma := New(testConfig()) // B = 4
	const n = 10
	v := NewVector(ma, n)
	w := v.NewWriter()
	for i := 0; i < n; i++ {
		w.Append(Item{Key: int64(i)})
	}
	if w.Written() != n {
		t.Errorf("Written = %d, want %d", w.Written(), n)
	}
	w.Close()
	// Exactly ceil(10/4) = 3 writes, one per block.
	if st := ma.Stats(); st.Writes != 3 || st.Reads != 0 {
		t.Errorf("writer cost %+v, want 3 writes", st)
	}
	got := v.Materialize()
	for i := range got {
		if got[i].Key != int64(i) {
			t.Fatalf("item %d = %v", i, got[i])
		}
	}
	if ma.MemInUse() != 0 {
		t.Errorf("writer leaked %d memory slots", ma.MemInUse())
	}
}

func TestWriterUnderflowPanics(t *testing.T) {
	ma := New(testConfig())
	v := NewVector(ma, 5)
	w := v.NewWriter()
	w.Append(Item{})
	defer expectPanic(t, "closed after 1 of 5")
	w.Close()
}

func TestWriterOverflowPanics(t *testing.T) {
	ma := New(testConfig())
	v := NewVector(ma, 1)
	w := v.NewWriter()
	w.Append(Item{})
	defer expectPanic(t, "Writer overflow")
	w.Append(Item{})
}

func TestScannerWriterRoundTripQuick(t *testing.T) {
	// Property: for any item sequence, writing through a Writer and reading
	// through a Scanner is the identity, and costs exactly ceil(n/B) of
	// each I/O kind.
	f := func(keys []int64, bSel uint8) bool {
		b := 1 + int(bSel%8)
		cfg := Config{M: 4 * b, B: b, Omega: 2}
		ma := New(cfg)
		v := NewVector(ma, len(keys))
		w := v.NewWriter()
		for i, k := range keys {
			w.Append(Item{Key: k, Aux: int64(i)})
		}
		w.Close()
		sc := v.NewScanner()
		defer sc.Close()
		for i, k := range keys {
			item, ok := sc.Next()
			if !ok || item.Key != k || item.Aux != int64(i) {
				return false
			}
		}
		if _, ok := sc.Next(); ok {
			return false
		}
		want := int64(cfg.BlocksOf(len(keys)))
		st := ma.Stats()
		return st.Reads == want && st.Writes == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
