package aem

import (
	"testing"
)

// traceEqual reports whether two recorded traces are identical op-for-op.
func traceEqual(a, b []TraceOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScanReadsMatchesPerOp pins the bulk read primitive against the
// per-op path it batches: on every engine, traced and untraced,
// ScanReads must leave Stats, Cost, phase accounting and the recorded
// trace identical to an unbatched loop over the same range.
func TestScanReadsMatchesPerOp(t *testing.T) {
	cfg := Config{M: 32, B: 4, Omega: 5}
	const blocks = 13
	for _, eng := range engines(t, cfg.B) {
		for _, traced := range []bool{false, true} {
			name := eng.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				bulk := NewWithStorage(cfg, eng.make())
				perOp := NewWithStorage(cfg, eng.make())
				if traced {
					bulk.StartTrace()
					perOp.StartTrace()
				}
				base := bulk.Alloc(blocks)
				if got := perOp.Alloc(blocks); got != base {
					t.Fatalf("machines disagree on base address: %d vs %d", base, got)
				}
				bulk.SetPhase("scan")
				perOp.SetPhase("scan")

				bulk.ScanReads(base+1, blocks-1)
				buf := make([]Item, 0, cfg.B)
				for i := 1; i < blocks; i++ {
					perOp.ReadInto(base+Addr(i), buf)
				}

				if bulk.Stats() != perOp.Stats() {
					t.Errorf("stats %+v, per-op path %+v", bulk.Stats(), perOp.Stats())
				}
				if bulk.Cost() != perOp.Cost() {
					t.Errorf("cost %d, per-op path %d", bulk.Cost(), perOp.Cost())
				}
				if bulk.Phases().Phase("scan") != perOp.Phases().Phase("scan") {
					t.Errorf("phase accounting diverged: %+v vs %+v",
						bulk.Phases().Phase("scan"), perOp.Phases().Phase("scan"))
				}
				if traced {
					if b, p := bulk.StopTrace(), perOp.StopTrace(); len(b) != blocks-1 || !traceEqual(b, p) {
						t.Errorf("traces diverged:\nbulk   %v\nper-op %v", b, p)
					}
				}
			})
		}
	}
}

// TestScanWritesMatchesWriter pins the bulk write primitive against the
// Writer schedule it models: appending (blocks−1)·B + lastLen zero items
// through a Writer must leave identical Stats, trace, block lengths and —
// on the data-bearing engines — block contents.
func TestScanWritesMatchesWriter(t *testing.T) {
	cfg := Config{M: 32, B: 4, Omega: 5}
	const blocks, lastLen = 7, 3
	n := (blocks-1)*cfg.B + lastLen
	for _, eng := range engines(t, cfg.B) {
		for _, traced := range []bool{false, true} {
			name := eng.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				bulk := NewWithStorage(cfg, eng.make())
				ref := NewWithStorage(cfg, eng.make())
				if traced {
					bulk.StartTrace()
					ref.StartTrace()
				}

				base := bulk.Alloc(blocks)
				bulk.ScanWrites(base, blocks, lastLen)

				v := NewVector(ref, n)
				w := v.NewWriter()
				for i := 0; i < n; i++ {
					w.Append(Item{})
				}
				w.Close()

				if bulk.Stats() != ref.Stats() {
					t.Errorf("stats %+v, Writer path %+v", bulk.Stats(), ref.Stats())
				}
				if traced {
					if b, w := bulk.StopTrace(), ref.StopTrace(); len(b) != blocks || !traceEqual(b, w) {
						t.Errorf("traces diverged:\nbulk   %v\nwriter %v", b, w)
					}
				}
				buf := make([]Item, 0, cfg.B)
				for i := 0; i < blocks; i++ {
					a := base + Addr(i)
					got, want := bulk.PeekInto(a, buf), len(ref.PeekInto(a, nil))
					if len(got) != want {
						t.Errorf("block %d length %d, Writer path %d", i, len(got), want)
					}
					for j, it := range got {
						if it != (Item{}) {
							t.Errorf("block %d item %d = %v, want zero item", i, j, it)
						}
					}
				}
			})
		}
	}
}

// TestScanRangeValidation pins the bulk primitives' argument checking:
// out-of-range spans and illegal last-block lengths are programming
// errors, caught before any accounting happens.
func TestScanRangeValidation(t *testing.T) {
	newMachine := func() *Machine {
		ma := New(Config{M: 16, B: 4, Omega: 1})
		ma.Alloc(4)
		return ma
	}
	t.Run("reads past end", func(t *testing.T) {
		ma := newMachine()
		defer expectPanic(t, "range outside")
		ma.ScanReads(2, 3)
	})
	t.Run("negative count", func(t *testing.T) {
		ma := newMachine()
		defer expectPanic(t, "negative block count")
		ma.ScanReads(0, -1)
	})
	t.Run("last length zero", func(t *testing.T) {
		ma := newMachine()
		defer expectPanic(t, "outside [1, B=4]")
		ma.ScanWrites(0, 2, 0)
	})
	t.Run("last length over B", func(t *testing.T) {
		ma := newMachine()
		defer expectPanic(t, "outside [1, B=4]")
		ma.ScanWrites(0, 2, 5)
	})
	t.Run("empty scan is free", func(t *testing.T) {
		ma := newMachine()
		ma.ScanReads(4, 0)
		ma.ScanWrites(4, 0, 1)
		if ma.Stats() != (Stats{}) {
			t.Errorf("zero-block scans cost %+v", ma.Stats())
		}
	})
}

// TestMachineRecycle runs a workload, recycles the machine, and demands the
// second run be indistinguishable — in Stats, phases, memory metering and
// stored values — from the same workload on a freshly constructed machine.
func TestMachineRecycle(t *testing.T) {
	dirty := Config{M: 64, B: 8, Omega: 2}
	clean := Config{M: 32, B: 4, Omega: 9} // Recycle may change M, B and ω
	script := func(ma *Machine) []Item {
		b := ma.Config().B
		items := make([]Item, 3*b+1)
		for i := range items {
			items[i] = Item{Key: int64(i + 1), Aux: int64(^i)}
		}
		v := Load(ma, items)
		out := NewVector(ma, v.Len())
		sc := v.NewScanner()
		w := out.NewWriter()
		for {
			it, ok := sc.Next()
			if !ok {
				break
			}
			w.Append(it)
		}
		sc.Close()
		w.Close()
		return out.Materialize()
	}
	for _, eng := range engines(t, dirty.B) {
		t.Run(eng.name, func(t *testing.T) {
			recycled := NewWithStorage(dirty, eng.make())
			recycled.SetPhase("warmup")
			recycled.StartTrace()
			script(recycled)
			recycled.Reserve(5)
			recycled.Recycle(clean)

			fresh := NewWithStorage(clean, eng.make())
			gotData := script(recycled)
			wantData := script(fresh)

			if recycled.Stats() != fresh.Stats() {
				t.Errorf("stats %+v, fresh machine %+v", recycled.Stats(), fresh.Stats())
			}
			if recycled.Cost() != fresh.Cost() {
				t.Errorf("cost %d, fresh machine %d", recycled.Cost(), fresh.Cost())
			}
			if recycled.Phases().Phase("main") != fresh.Phases().Phase("main") {
				t.Errorf("phase accounting diverged after Recycle")
			}
			if p := recycled.Phases().Phase("warmup"); p != (Stats{}) {
				t.Errorf("previous run's phase survived Recycle: %+v", p)
			}
			if recycled.MemInUse() != 0 || recycled.MemPeak() != fresh.MemPeak() {
				t.Errorf("memory metering (inUse %d, peak %d) differs from fresh (0, %d)",
					recycled.MemInUse(), recycled.MemPeak(), fresh.MemPeak())
			}
			if recycled.Tracing() {
				t.Errorf("trace survived Recycle")
			}
			if recycled.NumBlocks() != fresh.NumBlocks() {
				t.Errorf("allocated %d blocks, fresh machine %d", recycled.NumBlocks(), fresh.NumBlocks())
			}
			for i := range wantData {
				if gotData[i] != wantData[i] {
					t.Fatalf("recycled run data diverged at %d: %v != %v", i, gotData[i], wantData[i])
				}
			}
		})
	}
}

// TestRecycleRejectsUndersizedEngine mirrors the constructor guard: a
// machine cannot be recycled into a configuration whose B exceeds its
// engine's fixed block capacity.
func TestRecycleRejectsUndersizedEngine(t *testing.T) {
	ma := NewWithStorage(Config{M: 16, B: 4, Omega: 1}, newFileEngine(t, 4))
	defer expectPanic(t, "block capacity 4 < B = 8")
	ma.Recycle(Config{M: 64, B: 8, Omega: 1})
}

// TestStorageResetFreshness pins the Reset contract on every engine: after
// writing non-zero values and resetting, the engine reports zero blocks,
// and re-allocated blocks are empty with zeroed contents — a previous
// run's values must never leak through retained capacity.
func TestStorageResetFreshness(t *testing.T) {
	const b = 4
	for _, eng := range engines(t, b) {
		t.Run(eng.name, func(t *testing.T) {
			s := eng.make()
			s.Alloc(6)
			payload := []Item{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
			for a := Addr(0); a < 6; a++ {
				s.Write(a, payload)
			}
			s.Reset()
			if s.NumBlocks() != 0 {
				t.Fatalf("NumBlocks = %d after Reset, want 0", s.NumBlocks())
			}
			if a := s.Alloc(3); a != 0 {
				t.Fatalf("post-Reset Alloc at %d, want 0 (addresses restart)", a)
			}
			buf := make([]Item, 0, b)
			for a := Addr(0); a < 3; a++ {
				if got := s.ReadInto(a, buf); len(got) != 0 {
					t.Errorf("recycled block %d read %d items, want 0", a, len(got))
				}
			}
			// Overwrite with a short prefix, then lengthen: the tail beyond
			// the previous run's write must be zero on data engines.
			s.Write(0, payload[:1])
			if eng.hasData {
				s.Write(1, make([]Item, b))
				got := s.ReadInto(1, buf)
				for j, it := range got {
					if it != (Item{}) {
						t.Errorf("stale value %v leaked through Reset at item %d", it, j)
					}
				}
			}
		})
	}
}

// TestVectorFastPathTraceIdentity pins the Scanner/Writer pipeline
// trace-identical across the data-free and data-bearing engines: the same
// pipeline on the counting and slice engines must record the same trace
// op-for-op.
func TestVectorFastPathTraceIdentity(t *testing.T) {
	cfg := Config{M: 32, B: 4, Omega: 2}
	const n = 27
	run := func(s Storage) ([]TraceOp, Stats) {
		ma := NewWithStorage(cfg, s)
		v := Load(ma, make([]Item, n))
		out := NewVector(ma, n)
		ma.StartTrace()
		sc := v.NewScanner()
		w := out.NewWriter()
		for {
			it, ok := sc.Next()
			if !ok {
				break
			}
			w.Append(it)
		}
		sc.Close()
		w.Close()
		return ma.StopTrace(), ma.Stats()
	}
	sliceOps, sliceStats := run(NewSliceStorage())
	countOps, countStats := run(NewCountingStorage())
	if sliceStats != countStats {
		t.Errorf("stats diverged: slice %+v, counting %+v", sliceStats, countStats)
	}
	if !traceEqual(sliceOps, countOps) {
		t.Errorf("traces diverged:\nslice    %v\ncounting %v", sliceOps, countOps)
	}
}

// TestWriterZeroAllocSteadyState is the write-side companion of the
// scanner pin: after construction, appending allocates nothing on any
// engine. The slice engine carves fresh blocks from shared slabs, so a
// slab's worth of blocks costs at most one allocation, which
// AllocsPerRun's per-run average rounds away.
func TestWriterZeroAllocSteadyState(t *testing.T) {
	cfg := Config{M: 64, B: 8, Omega: 4}
	for _, eng := range engines(t, cfg.B) {
		t.Run(eng.name, func(t *testing.T) {
			ma := NewWithStorage(cfg, eng.make())
			v := NewVector(ma, 1<<20)
			w := v.NewWriter()
			defer w.CloseShort()
			it := Item{Key: 1}
			allocs := testing.AllocsPerRun(100, func() {
				for j := 0; j < 2*cfg.B; j++ {
					w.Append(it)
				}
			})
			if allocs != 0 {
				t.Errorf("writer steady state allocates %.1f per 2 blocks, want 0", allocs)
			}
		})
	}
}
