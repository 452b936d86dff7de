package pq

import (
	"container/heap"
	"testing"

	"repro/internal/aem"
	"repro/internal/workload"
)

// TestCompactStrandedSingleRunRepro reproduces the compaction panic on a
// small machine (M = 16B): push bursts alternating with deep partial
// drains leave single, mostly-consumed runs stranded at distinct levels,
// until a flush finds the run budget exceeded with no multi-run level for
// the level-local pass to merge. Before the cross-level fallback this
// pattern panicked with "9 live runs exceed budget 8 after compaction"
// (seed 1, within ~120 phases); now both queues must survive it with the
// reference heap's exact answers.
func TestCompactStrandedSingleRunRepro(t *testing.T) {
	cfg := aem.Config{M: 64, B: 4, Omega: 2} // M = 16B
	queues := map[string]func(*aem.Machine) minQueue{
		"sequence": func(ma *aem.Machine) minQueue { return New(ma) },
		"adaptive": func(ma *aem.Machine) minQueue { return NewAdaptive(ma) },
	}
	for name, mk := range queues {
		t.Run(name, func(t *testing.T) {
			rng := workload.NewRNG(1)
			ma := aem.New(cfg)
			q := mk(ma)
			ref := &refHeap{}
			var key int64
			for phase := 0; phase < 200; phase++ {
				for n := 8 + rng.Intn(200); n > 0; n-- {
					it := aem.Item{Key: int64(rng.Intn(1 << 20)), Aux: key}
					key++
					q.Push(it)
					heap.Push(ref, it)
				}
				target := 0
				switch rng.Intn(3) {
				case 0:
					target = ref.Len() * (1 + rng.Intn(20)) / 100
				case 1:
					target = ref.Len() / 2
				case 2:
					target = ref.Len() * 9 / 10
				}
				for ref.Len() > target {
					got, ok := q.DeleteMin()
					want := heap.Pop(ref).(aem.Item)
					if !ok || got != want {
						t.Fatalf("phase %d: DeleteMin = %v, %t, want %v", phase, got, ok, want)
					}
				}
			}
			for ref.Len() > 0 {
				got, _ := q.DeleteMin()
				if want := heap.Pop(ref).(aem.Item); got != want {
					t.Fatalf("drain: got %v, want %v", got, want)
				}
			}
		})
	}
}

// TestRefillStatsMatchLinearScan pins the sequence heap's I/O on fixed
// interleaved streams to the counts recorded with the pre-tournament
// linear-scan refill. The tournament tree is a pure computation change:
// it must load exactly the frontier blocks the scan loaded, in a schedule
// that consumes runs identically — so Stats and Cost are bit-identical.
// If this test drifts, the refill's I/O behavior changed, not just its
// in-memory work.
func TestRefillStatsMatchLinearScan(t *testing.T) {
	want := []struct {
		cfg    aem.Config
		reads  int64
		writes int64
		cost   int64
	}{
		// Recorded from the linear-scan implementation at the same seeds.
		{aem.Config{M: 256, B: 8, Omega: 4}, 4820, 1996, 12804},
		{aem.Config{M: 128, B: 4, Omega: 2}, 12551, 5147, 22845},
		{aem.Config{M: 64, B: 4, Omega: 16}, 32730, 14746, 268666},
	}
	for _, w := range want {
		rng := workload.NewRNG(42)
		ma := aem.New(w.cfg)
		q := New(ma)
		var key int64
		for step := 0; step < 12000; step++ {
			if q.Len() == 0 || rng.Intn(3) != 0 {
				q.Push(aem.Item{Key: int64(rng.Intn(1000)), Aux: key})
				key++
			} else {
				q.DeleteMin()
			}
		}
		for q.Len() > 0 {
			q.DeleteMin()
		}
		q.Close()
		st := ma.Stats()
		if st.Reads != w.reads || st.Writes != w.writes || ma.Cost() != w.cost {
			t.Errorf("cfg %+v: stats %d/%d cost %d, want %d/%d cost %d",
				w.cfg, st.Reads, st.Writes, ma.Cost(), w.reads, w.writes, w.cost)
		}
	}
}

// TestFrontierTreeTieBreak: equal heads must resolve to the earliest run
// in iteration order, the linear scan's first-wins rule — the property
// that keeps run consumption (and so I/O) deterministic on duplicate
// items.
func TestFrontierTreeTieBreak(t *testing.T) {
	ma := aem.New(aem.Config{M: 256, B: 8, Omega: 1})
	mkRun := func(keys ...int64) *run {
		items := make([]aem.Item, len(keys))
		for i, k := range keys {
			items[i] = aem.Item{Key: k}
		}
		return &run{vec: aem.Load(ma, items), frameLo: -1}
	}
	q := &Queue{}
	q.ma, q.cfg = ma, ma.Config()
	runs := []*run{mkRun(5, 9), mkRun(5, 7), mkRun(5, 6)}
	ft := newFrontierTree(runs, q.loadFrontier)
	first, ok := ft.min()
	if !ok || first != runs[0] {
		t.Fatalf("tie between equal heads resolved to run %v, want the first", first)
	}
	ft.pop()
	second, _ := ft.min()
	if second != runs[1] {
		t.Fatalf("second tie resolved to %v, want the second run", second)
	}
	// Drain fully and verify the ascending order across runs.
	var got []int64
	for {
		r, ok := ft.min()
		if !ok {
			break
		}
		got = append(got, r.head().Key)
		ft.pop()
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("tournament order not ascending: %v", got)
		}
	}
}

// TestMinPaysForRefill: Min is a peek, but on a queue with buffered
// insertions it may have to flush (sequence heap) or scan/fold
// (adaptive), and that I/O is charged. Pinning it keeps the cost
// accounting honest — a "free" Min would hide ω-weighted writes.
func TestMinPaysForRefill(t *testing.T) {
	cfg := aem.Config{M: 128, B: 8, Omega: 4}

	t.Run("sequence-flushes", func(t *testing.T) {
		ma := aem.New(cfg)
		q := New(ma)
		for i := 0; i < cfg.M/8-1; i++ { // fills most of the IB, no I/O yet
			q.Push(aem.Item{Key: int64(100 - i), Aux: int64(i)})
		}
		if w := ma.Stats().Writes; w != 0 {
			t.Fatalf("pushes alone wrote %d blocks", w)
		}
		it, ok := q.Min()
		if !ok || it.Key != 100-int64(cfg.M/8-2) {
			t.Fatalf("Min = %v, %t", it, ok)
		}
		if q.Len() != cfg.M/8-1 {
			t.Fatalf("Min removed items: Len = %d", q.Len())
		}
		if w := ma.Stats().Writes; w == 0 {
			t.Error("Min flushed the insert buffer but charged no writes")
		}
	})

	t.Run("adaptive-scans-then-folds", func(t *testing.T) {
		cfg := aem.Config{M: 128, B: 8, Omega: 1} // scan budget of 1: the second refill folds
		ma := aem.New(cfg)
		q := NewAdaptive(ma)
		capDB := cfg.M / 8
		for i := 0; i < 3*capDB; i++ {
			q.Push(aem.Item{Key: int64(i), Aux: int64(i)})
		}
		r0 := ma.Stats().Reads
		if _, ok := q.Min(); !ok {
			t.Fatal("Min on non-empty queue")
		}
		if ma.Stats().Reads == r0 {
			t.Error("first Min should pay selection-scan reads")
		}
		w0 := ma.Stats().Writes
		for i := 0; i < capDB; i++ {
			q.DeleteMin()
		}
		if _, ok := q.Min(); !ok { // scan budget exhausted: this one folds
			t.Fatal("second Min on non-empty queue")
		}
		if ma.Stats().Writes == w0 {
			t.Error("second Min should fold the buffer and pay ω-weighted writes")
		}
	})
}

// TestSuffixVectorUnalignedFrontier: a block-aligned frontier is a free
// slice view; a misaligned one must copy exactly the unconsumed suffix.
func TestSuffixVectorUnalignedFrontier(t *testing.T) {
	cfg := aem.Config{M: 256, B: 8, Omega: 2}
	ma := aem.New(cfg)
	q := &Queue{}
	q.ma, q.cfg = ma, cfg

	items := make([]aem.Item, 37) // deliberately not a multiple of B
	for i := range items {
		items[i] = aem.Item{Key: int64(i), Aux: int64(i)}
	}
	r := &run{vec: aem.Load(ma, items), frameLo: -1}

	for _, consumed := range []int{0, 3, 8, 11, 36} {
		r.consumed = consumed
		st := ma.Stats()
		sv := q.suffixVector(r)
		got := sv.Materialize()
		want := items[consumed:]
		if len(got) != len(want) {
			t.Fatalf("consumed=%d: suffix length %d, want %d", consumed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("consumed=%d: suffix[%d] = %v, want %v", consumed, i, got[i], want[i])
			}
		}
		io := ma.Stats().Reads - st.Reads + ma.Stats().Writes - st.Writes
		if consumed%cfg.B == 0 && io != 0 {
			t.Errorf("consumed=%d (aligned): suffixVector cost %d I/Os, want 0 (slice view)", consumed, io)
		}
		if consumed%cfg.B != 0 && io == 0 {
			t.Errorf("consumed=%d (misaligned): suffixVector cost 0 I/Os, want a copy", consumed)
		}
	}
	if ma.MemInUse() != 0 {
		t.Fatalf("suffixVector leaked %d slots", ma.MemInUse())
	}
}
