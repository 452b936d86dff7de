package dict

import (
	"testing"

	"repro/internal/aem"
)

// model is the in-memory reference dictionary.
type model struct {
	m map[int64]int64
}

func newModel() *model { return &model{m: make(map[int64]int64)} }

func (md *model) apply(ops []Op) []Result {
	var results []Result
	for _, op := range ops {
		switch op.Kind {
		case Insert:
			md.m[op.Key] = op.Value
		case Delete:
			delete(md.m, op.Key)
		case Lookup:
			v, ok := md.m[op.Key]
			results = append(results, Result{OK: ok, Value: v})
		case RangeScan:
			var hits []Found
			for k, v := range md.m {
				if op.Key <= k && k < op.Hi {
					hits = append(hits, Found{Key: k, Value: v})
				}
			}
			sortFound(hits)
			results = append(results, Result{Hits: hits})
		}
	}
	return results
}

func sortFound(hits []Found) {
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && hits[j].Key < hits[j-1].Key; j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
}

func sameResults(t *testing.T, tag string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.OK != w.OK || g.Value != w.Value {
			t.Fatalf("%s: result %d = (%v,%d), want (%v,%d)", tag, i, g.OK, g.Value, w.OK, w.Value)
		}
		if len(g.Hits) != len(w.Hits) {
			t.Fatalf("%s: result %d has %d hits, want %d (%v vs %v)", tag, i, len(g.Hits), len(w.Hits), g.Hits, w.Hits)
		}
		for j := range g.Hits {
			if g.Hits[j] != w.Hits[j] {
				t.Fatalf("%s: result %d hit %d = %v, want %v", tag, i, j, g.Hits[j], w.Hits[j])
			}
		}
	}
}

func dicts(cfg aem.Config) map[string]Dict {
	out := map[string]Dict{}
	if cfg.M >= 8*cfg.B {
		out["buffertree"] = NewBufferTree(aem.New(cfg))
	}
	if cfg.B >= 4 && cfg.M >= 4*cfg.B {
		out["btree"] = NewBTree(aem.New(cfg))
	}
	return out
}

func TestBasicSemantics(t *testing.T) {
	cfg := aem.Config{M: 128, B: 8, Omega: 4}
	for name, d := range dicts(cfg) {
		md := newModel()
		batch := []Op{
			{Kind: Insert, Key: 5, Value: 50},
			{Kind: Insert, Key: 1, Value: 10},
			{Kind: Lookup, Key: 5},
			{Kind: Insert, Key: 5, Value: 55}, // overwrite
			{Kind: Lookup, Key: 5},
			{Kind: Delete, Key: 1},
			{Kind: Lookup, Key: 1},
			{Kind: Delete, Key: 99}, // absent
			{Kind: Lookup, Key: 99},
			{Kind: RangeScan, Key: 0, Hi: 100},
		}
		sameResults(t, name, d.Apply(batch), md.apply(batch))

		// After a flush everything must still be visible.
		d.Flush()
		post := []Op{{Kind: Lookup, Key: 5}, {Kind: RangeScan, Key: 0, Hi: 100}}
		sameResults(t, name+"/flushed", d.Apply(post), md.apply(post))
		if d.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, d.Len())
		}
	}
}

func TestManyKeysAcrossFlushes(t *testing.T) {
	cfg := aem.Config{M: 128, B: 8, Omega: 2}
	for name, d := range dicts(cfg) {
		md := newModel()
		// Enough inserts to force multiple cascades, rebuilds and splits.
		var batch []Op
		for k := int64(0); k < 3000; k++ {
			batch = append(batch, Op{Kind: Insert, Key: (k * 2654435761) % 4096, Value: k % 1000})
			if k%7 == 0 {
				batch = append(batch, Op{Kind: Delete, Key: (k * 31) % 4096})
			}
			if k%11 == 0 {
				batch = append(batch, Op{Kind: Lookup, Key: k % 4096})
			}
			if k%501 == 0 {
				batch = append(batch, Op{Kind: RangeScan, Key: k % 4096, Hi: k%4096 + 64})
			}
		}
		sameResults(t, name, d.Apply(batch), md.apply(batch))
		d.Flush()
		if want := lenOf(md); d.Len() != want {
			t.Errorf("%s: Len = %d, want %d", name, d.Len(), want)
		}
		verify := []Op{{Kind: RangeScan, Key: 0, Hi: 1 << 62}}
		sameResults(t, name+"/full-scan", d.Apply(verify), md.apply(verify))
	}
}

func lenOf(md *model) int { return len(md.m) }

// TestMemoryMeteringHonored: the machine panics if a dictionary reserves
// more than M items of internal memory; surviving a heavy mixed workload
// on a small machine is the proof that the metering discipline holds.
func TestMemoryMeteringHonored(t *testing.T) {
	for _, cfg := range []aem.Config{
		{M: 64, B: 8, Omega: 16},
		{M: 256, B: 8, Omega: 1},
		{M: 32, B: 1, Omega: 8}, // ARAM corner
	} {
		ma := aem.New(cfg)
		d := NewBufferTree(ma)
		var batch []Op
		for k := int64(0); k < 4000; k++ {
			batch = append(batch, Op{Kind: Insert, Key: k % 512, Value: k % 100})
			if k%5 == 0 {
				batch = append(batch, Op{Kind: Lookup, Key: k % 512})
			}
		}
		d.Apply(batch)
		d.Flush()
		if ma.MemPeak() > cfg.M {
			t.Errorf("cfg %+v: memory peak %d exceeds M", cfg, ma.MemPeak())
		}
		if ma.MemInUse() != cfg.B { // the stage's lifetime reservation
			t.Errorf("cfg %+v: %d slots still reserved after quiescence, want the stage's %d", cfg, ma.MemInUse(), cfg.B)
		}
	}
}

// TestBufferTreeWriteEfficiency pins the core claim at one configuration:
// the buffer tree spends far fewer writes per update than the B-tree
// baseline's ~1.
func TestBufferTreeWriteEfficiency(t *testing.T) {
	cfg := aem.Config{M: 256, B: 16, Omega: 16}
	const updates = 20000
	var batch []Op
	for k := int64(0); k < updates; k++ {
		batch = append(batch, Op{Kind: Insert, Key: (k * 2654435761) % 8192, Value: k % 1000})
	}

	maB := aem.New(cfg)
	bt := NewBufferTree(maB)
	bt.Apply(batch)
	maT := aem.New(cfg)
	base := NewBTree(maT)
	base.Apply(batch)

	wPerOpBT := float64(maB.Stats().Writes) / updates
	wPerOpBase := float64(maT.Stats().Writes) / updates
	if wPerOpBase < 0.9 {
		t.Errorf("baseline writes/op = %.3f; expected ~1", wPerOpBase)
	}
	if wPerOpBT > wPerOpBase/2 {
		t.Errorf("buffer tree writes/op = %.3f, not clearly below baseline %.3f", wPerOpBT, wPerOpBase)
	}
}

// Benchmarks for the perf trajectory: one mixed stream through each
// dictionary. The interesting figures are ns/op of *simulated work* and
// allocs/op (the simulator's hot loop is block transfers, which the slice
// engine keeps allocation-free once a block is carved).
func benchStream(n int) []Op {
	// Bursty traffic (updates then queries), the shape the buffered
	// dictionary is built for.
	ops := make([]Op, 0, n)
	for k := 0; len(ops) < n; k++ {
		key := int64(k*2654435761) % 4096
		if k%24 < 16 {
			if k%4 == 3 {
				ops = append(ops, Op{Kind: Delete, Key: key})
			} else {
				ops = append(ops, Op{Kind: Insert, Key: key, Value: int64(k % 1000)})
			}
		} else {
			ops = append(ops, Op{Kind: Lookup, Key: key})
		}
	}
	return ops
}

func BenchmarkBufferTreeMixedOps(b *testing.B) {
	cfg := aem.Config{M: 256, B: 16, Omega: 16}
	ops := benchStream(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ma := aem.New(cfg)
		d := NewBufferTree(ma)
		d.Apply(ops)
		d.Flush()
	}
}

func BenchmarkBTreeMixedOps(b *testing.B) {
	cfg := aem.Config{M: 256, B: 16, Omega: 16}
	ops := benchStream(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ma := aem.New(cfg)
		NewBTree(ma).Apply(ops)
	}
}
