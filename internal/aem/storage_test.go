package aem

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// engines enumerates every storage backend under its conformance name.
// hasData is false for backends that track lengths but not values. The
// file engine is backed by temp files under t's temp dir and closed by
// t.Cleanup, so every conformance test runs against real files too.
func engines(t testing.TB, blockSize int) []struct {
	name    string
	make    func() Storage
	hasData bool
} {
	fileEngine := func() Storage {
		s, err := NewTempFileStorage(t.TempDir(), blockSize)
		if err != nil {
			t.Fatalf("file engine: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	return []struct {
		name    string
		make    func() Storage
		hasData bool
	}{
		{"slice", func() Storage { return NewSliceStorage() }, true},
		{"counting", func() Storage { return NewCountingStorage() }, false},
		{"file", fileEngine, true},
	}
}

// TestStorageConformance runs the same block-level script against every
// backend: allocation is dense, lengths round-trip through writes
// (including partial blocks, overwrites and shrinks), and reads return
// exactly the stored prefix. Value fidelity is asserted for the
// data-bearing backends; the counting backend must return zeroed items.
func TestStorageConformance(t *testing.T) {
	const b = 4
	for _, eng := range engines(t, b) {
		t.Run(eng.name, func(t *testing.T) {
			s := eng.make()
			if s.NumBlocks() != 0 {
				t.Fatalf("fresh engine holds %d blocks", s.NumBlocks())
			}
			if a := s.Alloc(3); a != 0 {
				t.Fatalf("first Alloc at %d, want 0", a)
			}
			if a := s.Alloc(2); a != 3 {
				t.Fatalf("second Alloc at %d, want 3 (dense addresses)", a)
			}
			if s.NumBlocks() != 5 {
				t.Fatalf("NumBlocks = %d, want 5", s.NumBlocks())
			}
			buf := make([]Item, 0, b)
			blockLen := func(a Addr) int { return len(s.ReadInto(a, buf)) }
			for a := Addr(0); a < 5; a++ {
				if n := blockLen(a); n != 0 {
					t.Fatalf("fresh block %d has length %d", a, n)
				}
			}

			full := []Item{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
			partial := []Item{{7, 70}, {8, 80}}
			s.Write(1, full)
			s.Write(2, partial)
			if blockLen(1) != len(full) || blockLen(2) != len(partial) {
				t.Fatalf("lengths (%d, %d), want (%d, %d)", blockLen(1), blockLen(2), len(full), len(partial))
			}

			// Reads with an ample caller buffer return the stored prefix and
			// alias the buffer (no allocation).
			got := s.ReadInto(1, buf)
			if len(got) != len(full) {
				t.Fatalf("ReadInto(1) returned %d items, want %d", len(got), len(full))
			}
			if &got[0] != &buf[:1][0] {
				t.Errorf("ReadInto with ample buffer did not alias it")
			}
			if eng.hasData {
				for i := range full {
					if got[i] != full[i] {
						t.Fatalf("block 1 item %d = %v, want %v", i, got[i], full[i])
					}
				}
			} else {
				for i, it := range got {
					if it != (Item{}) {
						t.Fatalf("counting backend returned non-zero item %v at %d", it, i)
					}
				}
			}

			// Undersized buffers still yield a correct result.
			small := s.ReadInto(1, make([]Item, 0, 1))
			if len(small) != len(full) {
				t.Fatalf("ReadInto with small buffer returned %d items, want %d", len(small), len(full))
			}
			if eng.hasData && small[3] != full[3] {
				t.Fatalf("small-buffer read lost data: %v", small)
			}

			// Overwriting shrinks the stored length; the caller keeps
			// ownership of the written slice.
			src := []Item{{9, 90}}
			s.Write(1, src)
			src[0].Key = 99
			if n := blockLen(1); n != 1 {
				t.Fatalf("overwritten block length %d, want 1", n)
			}
			if eng.hasData {
				if got := s.ReadInto(1, buf); got[0].Key != 9 {
					t.Fatalf("mutating the Write argument leaked into storage: %v", got[0])
				}
			}

			// Empty write empties the block.
			s.Write(1, nil)
			if n := blockLen(1); n != 0 {
				t.Fatalf("empty Write left length %d", n)
			}
		})
	}

	// Discarded blocks, on every engine.
	for _, eng := range engines(t, b) {
		t.Run("discard/"+eng.name, func(t *testing.T) {
			checkDiscard(t, eng.make(), eng.make, b, eng.hasData)
		})
	}

	// Neighbouring blocks, on every data-bearing engine.
	for _, eng := range engines(t, b) {
		if !eng.hasData {
			continue
		}
		t.Run("neighbours/"+eng.name, func(t *testing.T) {
			checkNeighbours(t, eng.make(), b)
		})
	}

	// The concurrent half of the contract, on every data-retaining
	// registry engine: blocks never move, so ReadInto of a written block
	// is safe while the owner keeps allocating, writing and discarding.
	t.Setenv(FileDirEnv, t.TempDir())
	for _, e := range Engines() {
		if !e.Caps.RetainsData {
			continue
		}
		t.Run("concurrent/"+e.Name, func(t *testing.T) {
			s, err := e.New(b)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			checkConcurrentReads(t, s, b)
		})
		t.Run("discardreads/"+e.Name, func(t *testing.T) {
			s, err := e.New(b)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			checkDiscardReads(t, s, b)
		})
	}
}

// fillBlock returns n items carrying key, numbered by Aux.
func fillBlock(key int64, n int) []Item {
	items := make([]Item, n)
	for j := range items {
		items[j] = Item{Key: key, Aux: int64(j)}
	}
	return items
}

// checkDiscard holds an engine to the Discard contract: a discarded block
// reads back empty until it is written again, the block count does not
// move, discarding an empty block does nothing, and a write that lands
// in a discarded block's memory disturbs no other block and not the
// caller's items. Reset after Discard leaves an engine that behaves like
// fresh, which is checked against one made by fresh.
func checkDiscard(t *testing.T, s Storage, fresh func() Storage, b int, hasData bool) {
	expectIn := func(s Storage, a Addr, want []Item) {
		t.Helper()
		if !hasData {
			want = make([]Item, len(want))
		}
		if got := s.ReadInto(a, make([]Item, 0, b)); !slices.Equal(got, want) {
			t.Fatalf("block %d read %v, want %v", a, got, want)
		}
	}
	expect := func(a Addr, want []Item) { t.Helper(); expectIn(s, a, want) }
	s.Alloc(5)
	s.Write(0, fillBlock(1, b))
	s.Write(1, fillBlock(2, b))
	s.Write(2, fillBlock(3, b/2))
	s.Discard(0, 1)
	if s.NumBlocks() != 5 {
		t.Fatalf("NumBlocks = %d after Discard, want 5", s.NumBlocks())
	}
	expect(0, []Item{})
	expect(1, fillBlock(2, b))

	// Never-written and already discarded blocks: no-ops.
	s.Discard(3, 2)
	s.Discard(0, 1)
	s.Discard(0, 0)
	expect(0, []Item{})
	expect(3, []Item{})

	// Block 3's write takes block 0's memory on the slice engine, and
	// takes no slab.
	sl, _ := s.(*SliceStorage)
	var slabRest int
	if sl != nil {
		slabRest = len(sl.slab)
	}
	src := fillBlock(4, b)
	s.Write(3, src)
	if sl != nil && (len(sl.slab) != slabRest || len(sl.free) != 0) {
		t.Errorf("write after Discard cut the slab (%d → %d items) or left %d freed blocks: the freed block was not reused",
			slabRest, len(sl.slab), len(sl.free))
	}
	if !slices.Equal(src, fillBlock(4, b)) {
		t.Fatalf("Write into reused memory changed its argument: %v", src)
	}
	src[0].Key = 99
	expect(3, fillBlock(4, b))
	expect(0, []Item{})
	expect(1, fillBlock(2, b))
	expect(2, fillBlock(3, b/2))

	// A rewrite of the discarded block reads back; a short freed block
	// is no home for a full one.
	s.Write(0, fillBlock(5, b))
	s.Discard(2, 1)
	s.Write(4, fillBlock(6, b))
	expect(0, fillBlock(5, b))
	expect(2, []Item{})
	expect(3, fillBlock(4, b))
	expect(4, fillBlock(6, b))

	// Reset after Discard: the same script on a fresh engine reads the
	// same.
	s.Discard(1, 2)
	s.Reset()
	if sl != nil && len(sl.free) != 0 {
		t.Errorf("Reset kept %d freed blocks", len(sl.free))
	}
	f := fresh()
	for _, e := range []Storage{s, f} {
		if e.NumBlocks() != 0 {
			t.Fatalf("NumBlocks = %d, want 0", e.NumBlocks())
		}
		e.Alloc(3)
		e.Write(2, fillBlock(7, b))
		e.Write(1, fillBlock(8, b/2))
	}
	for a := Addr(0); a < 3; a++ {
		want := f.ReadInto(a, nil)
		if hasData {
			want = slices.Clone(want)
		}
		expect(a, want)
	}
	expectIn(f, 0, []Item{})
}

// checkDiscardReads has readers ReadInto live blocks while the owner
// keeps writing and discarding scratch blocks between them. Each live
// block is written right after a scratch block is discarded, so on the
// slice engine it lands in that block's memory; later scratch writes
// must never land in a live block's. The owner publishes live blocks
// through an atomic, as in checkConcurrentReads.
func checkDiscardReads(t *testing.T, s Storage, b int) {
	const pairs, readers = 8 * segFirst, 4
	var live atomic.Int64
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			buf, want := make([]Item, 0, b), make([]Item, b)
			for i := uint64(rd); ; i++ {
				n := live.Load()
				if n == pairs {
					return
				}
				if n == 0 {
					runtime.Gosched()
					continue
				}
				a := 2*Addr((i*0x9e3779b97f4a7c15>>20)%uint64(n)) + 1
				got, exp := s.ReadInto(a, buf), blockContents(a, b, want)
				if !slices.Equal(got, exp) {
					errs <- fmt.Sprintf("live block %d read %v, wrote %v", a, got, exp)
					return
				}
			}
		}(rd)
	}
	junk, items := fillBlock(-1, b), make([]Item, b)
	for n := 0; n < pairs; n++ {
		scratch := s.Alloc(2)
		s.Write(scratch, junk)
		s.Discard(scratch, 1)
		s.Write(scratch+1, blockContents(scratch+1, b, items))
		live.Store(int64(n + 1))
		// Cycle an older scratch block through write and discard.
		old := 2 * Addr(n/2)
		s.Write(old, junk)
		s.Discard(old, 1)
		if n%64 == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// checkNeighbours writes blocks 0 and 1 back to back, shrinks block 0 and
// then grows it past its first length: block 1 must stay intact. The
// slice engine carves the two blocks side by side from one slab, so a
// block that grew in place past its carve would overwrite its neighbour.
// After Reset both blocks must read empty, and take writes again.
func checkNeighbours(t *testing.T, s Storage, b int) {
	fill := fillBlock
	expect := func(a Addr, want []Item) {
		t.Helper()
		if got := s.ReadInto(a, make([]Item, 0, b)); !slices.Equal(got, want) {
			t.Fatalf("block %d read %v, want %v", a, got, want)
		}
	}
	s.Alloc(2)
	s.Write(0, fill(1, b/2))
	s.Write(1, fill(2, b))
	s.Write(0, fill(3, 1))
	expect(1, fill(2, b))
	s.Write(0, fill(4, b))
	expect(0, fill(4, b))
	expect(1, fill(2, b))

	s.Reset()
	s.Alloc(2)
	for a := Addr(0); a < 2; a++ {
		expect(a, []Item{})
	}
	s.Write(1, fill(5, b))
	s.Write(0, fill(6, b))
	expect(0, fill(6, b))
	expect(1, fill(5, b))
}

// TestSliceWriteAllocs pins the slice engine's slab allocation: a write
// to a block whose slice has room copies in place and allocates nothing,
// and fresh blocks are carved from shared slabs, so writing a slab's
// worth of them allocates at most once.
func TestSliceWriteAllocs(t *testing.T) {
	const b, runs = 64, 8
	perSlab := slabItems / b
	s := NewSliceStorage()
	s.Alloc((runs + 1) * perSlab)
	blk := make([]Item, b)
	next := Addr(0)
	fresh := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perSlab; i++ {
			s.Write(next, blk)
			next++
		}
	})
	if fresh > 1 {
		t.Errorf("writing %d fresh blocks, a slab's worth, allocated %.0f objects, want ≤ 1", perSlab, fresh)
	}
	rewrite := testing.AllocsPerRun(runs, func() {
		for a := Addr(0); a < next; a++ {
			s.Write(a, blk[:int(a)%(b+1)])
		}
	})
	if rewrite != 0 {
		t.Errorf("rewriting %d blocks allocated %.0f objects, want 0", next, rewrite)
	}
}

// blockContents is the deterministic payload of block a in the concurrent
// conformance case: a length that varies with a (empty blocks included)
// and items naming their own address.
func blockContents(a Addr, b int, dst []Item) []Item {
	dst = dst[:int(a)%(b+1)]
	for j := range dst {
		dst[j] = Item{Key: int64(a), Aux: int64(j)}
	}
	return dst
}

// checkConcurrentReads has one goroutine Alloc and Write fresh blocks,
// in uneven chunks, across several segment boundaries while readers
// re-read blocks written earlier and compare contents. The writer
// publishes its progress through an atomic, which is what orders each
// block's Write before any read of it.
func checkConcurrentReads(t *testing.T, s Storage, b int) {
	const blocks, readers = 16 * segFirst, 4
	var written atomic.Int64
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			buf, want := make([]Item, 0, b), make([]Item, b)
			for i := uint64(rd); ; i++ {
				n := written.Load()
				if n == blocks {
					return
				}
				if n == 0 {
					runtime.Gosched()
					continue
				}
				a := Addr((i * 0x9e3779b97f4a7c15 >> 20) % uint64(n))
				got, exp := s.ReadInto(a, buf), blockContents(a, b, want)
				if !slices.Equal(got, exp) {
					errs <- fmt.Sprintf("block %d read %v, wrote %v", a, got, exp)
					return
				}
			}
		}(rd)
	}
	items := make([]Item, b)
	for n := 0; n < blocks; {
		count := min(1+n%7, blocks-n)
		base := s.Alloc(count)
		for a := base; a < base+Addr(count); a++ {
			s.Write(a, blockContents(a, b, items))
		}
		n += count
		written.Store(int64(n))
		if n%64 == 0 {
			runtime.Gosched() // let the readers in between segments
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestMachineOnEveryBackend runs an identical costed I/O script on a
// machine over each backend and demands identical Stats, Cost and phase
// accounting — the cost model must be engine-independent.
func TestMachineOnEveryBackend(t *testing.T) {
	cfg := Config{M: 16, B: 4, Omega: 3}
	script := func(ma *Machine) {
		a := ma.Alloc(4)
		ma.Poke(a, []Item{{1, 0}, {2, 0}})
		buf := make([]Item, 0, cfg.B)
		ma.SetPhase("copy")
		for i := 0; i < 3; i++ {
			got := ma.ReadInto(a, buf)
			ma.Write(a+1+Addr(i), got)
		}
		ma.SetPhase("main")
		ma.ReadInto(a+1, buf)
	}

	var ref *Machine
	for _, eng := range engines(t, cfg.B) {
		ma := NewWithStorage(cfg, eng.make())
		script(ma)
		if ref == nil {
			ref = ma
			continue
		}
		if ma.Stats() != ref.Stats() {
			t.Errorf("%s stats %+v differ from reference %+v", eng.name, ma.Stats(), ref.Stats())
		}
		if ma.Cost() != ref.Cost() {
			t.Errorf("%s cost %d differs from reference %d", eng.name, ma.Cost(), ref.Cost())
		}
		if ma.Phases().Phase("copy") != ref.Phases().Phase("copy") {
			t.Errorf("%s phase accounting differs", eng.name)
		}
		if ma.NumBlocks() != ref.NumBlocks() {
			t.Errorf("%s allocated %d blocks, reference %d", eng.name, ma.NumBlocks(), ref.NumBlocks())
		}
	}
}

// TestVectorPipelineOnDataBackends pushes a Load → Scanner → Writer
// pipeline through the data-bearing backends and checks values and I/O
// counts agree; the counting backend must agree on the I/O counts.
func TestVectorPipelineOnDataBackends(t *testing.T) {
	cfg := Config{M: 32, B: 4, Omega: 2}
	const n = 41 // deliberately not block-aligned
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: int64(n - i), Aux: int64(i)}
	}

	type outcome struct {
		stats Stats
		data  []Item
	}
	outcomes := map[string]outcome{}
	for _, eng := range engines(t, cfg.B) {
		ma := NewWithStorage(cfg, eng.make())
		v := Load(ma, items)
		out := NewVector(ma, n)
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
		outcomes[eng.name] = outcome{stats: ma.Stats(), data: out.Materialize()}

		if eng.hasData {
			got := out.Materialize()
			for i := range items {
				if got[i] != items[i] {
					t.Fatalf("%s: copy-through broke at %d: %v != %v", eng.name, i, got[i], items[i])
				}
			}
		}
	}
	for name, out := range outcomes {
		if out.stats != outcomes["slice"].stats {
			t.Errorf("backends disagree on I/O counts: %s=%+v slice=%+v",
				name, out.stats, outcomes["slice"].stats)
		}
	}
	want := Stats{Reads: int64(cfg.BlocksOf(n)), Writes: int64(cfg.BlocksOf(n))}
	if outcomes["slice"].stats != want {
		t.Errorf("pipeline stats %+v, want %+v", outcomes["slice"].stats, want)
	}
}

// TestSliceGrowthCopiesNothing: growing the slice engine from n to 2n
// blocks allocates the new blocks' table entries and nothing else — no
// copy of the blocks already held. n is a power of two, where the segment
// directory's capacity is exactly n blocks; the slack covers runtime
// bookkeeping.
func TestSliceGrowthCopiesNothing(t *testing.T) {
	const n, slack = 64 * segFirst, 4 << 10
	s := NewSliceStorage()
	s.Alloc(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s.Alloc(1)
	}
	runtime.ReadMemStats(&after)
	perBlock := uint64(unsafe.Sizeof([]Item(nil))) // one slice header
	if got, limit := after.TotalAlloc-before.TotalAlloc, n*perBlock+slack; got > limit {
		t.Errorf("growing %d → %d blocks allocated %d bytes, want ≤ %d (the new blocks plus %d)",
			n, 2*n, got, limit, slack)
	}
}

// TestScannerZeroAllocSteadyState checks the migrated Vector read path:
// after construction, scanning allocates nothing regardless of backend.
func TestScannerZeroAllocSteadyState(t *testing.T) {
	cfg := Config{M: 64, B: 8, Omega: 4}
	for _, eng := range engines(t, cfg.B) {
		t.Run(eng.name, func(t *testing.T) {
			ma := NewWithStorage(cfg, eng.make())
			v := Load(ma, make([]Item, 1024))
			sc := v.NewScanner()
			defer sc.Close()
			allocs := testing.AllocsPerRun(100, func() {
				for j := 0; j < 8; j++ {
					if _, ok := sc.Next(); !ok {
						return
					}
				}
			})
			if allocs != 0 {
				t.Errorf("scanner steady state allocates %.1f per block, want 0", allocs)
			}
		})
	}
}

// TestLocalScanWriteAllocs pins what one pass of a Scanner or a Writer
// costs in heap objects on every engine: NewScanner and NewWriter inline,
// so a Scanner or Writer that does not outlive its caller lives on the
// stack and the pass allocates only its B-item block frame.
func TestLocalScanWriteAllocs(t *testing.T) {
	cfg := Config{M: 64, B: 8, Omega: 4}
	const n = 61 // deliberately not block-aligned
	for _, eng := range engines(t, cfg.B) {
		t.Run(eng.name, func(t *testing.T) {
			ma := NewWithStorage(cfg, eng.make())
			v := Load(ma, make([]Item, n))
			scan := testing.AllocsPerRun(50, func() {
				sc := v.NewScanner()
				for {
					if _, ok := sc.Next(); !ok {
						break
					}
				}
				sc.Close()
			})
			if scan != 1 {
				t.Errorf("a local scan allocates %.0f objects, want 1 (its frame)", scan)
			}
			write := testing.AllocsPerRun(50, func() {
				w := v.NewWriter()
				for i := 0; i < n; i++ {
					w.Append(Item{Key: int64(i)})
				}
				w.Close()
			})
			if write != 1 {
				t.Errorf("a local write pass allocates %.0f objects, want 1 (its frame)", write)
			}
		})
	}
}

// TestNewWithStorageRejectsUsedEngine pins the constructor contract.
func TestNewWithStorageRejectsUsedEngine(t *testing.T) {
	s := NewSliceStorage()
	s.Alloc(1)
	defer expectPanic(t, "already holds")
	NewWithStorage(Config{M: 16, B: 4, Omega: 1}, s)
}

// TestNewWithStorageRejectsUndersizedEngine: an engine whose fixed block
// capacity is below B (the file engine's slot size) must fail at
// construction, not at the first large write mid-algorithm.
func TestNewWithStorageRejectsUndersizedEngine(t *testing.T) {
	s := newFileEngine(t, 4)
	defer expectPanic(t, "block capacity 4 < B = 8")
	NewWithStorage(Config{M: 64, B: 8, Omega: 1}, s)
}

// TestBackendGrowth exercises interleaved Alloc/Write/ReadInto over
// enough blocks to cross several segments, then verifies every block.
func TestBackendGrowth(t *testing.T) {
	const b = 4
	for _, eng := range engines(t, b) {
		t.Run(eng.name, func(t *testing.T) {
			s := eng.make()
			var want [][]Item
			for round := 0; round < 50; round++ {
				base := s.Alloc(3)
				for i := 0; i < 3; i++ {
					items := make([]Item, (round+i)%(b+1))
					for j := range items {
						items[j] = Item{Key: int64(round), Aux: int64(i*10 + j)}
					}
					s.Write(base+Addr(i), items)
					want = append(want, items)
				}
			}
			buf := make([]Item, 0, b)
			for a, items := range want {
				got := s.ReadInto(Addr(a), buf)
				if len(got) != len(items) {
					t.Fatalf("block %d length %d, want %d", a, len(got), len(items))
				}
				if eng.hasData {
					for j := range items {
						if got[j] != items[j] {
							t.Fatalf("block %d item %d = %v, want %v", a, j, got[j], items[j])
						}
					}
				}
			}
		})
	}
}

// TestNewArenaStorageOnlyInBenchmark keeps the deprecated constructor
// from gaining callers: it parses every Go file of the module and fails
// on any reference to NewArenaStorage outside perfbench/ (the repository
// benchmark, a module of its own) other than its declaration.
func TestNewArenaStorageOnlyInBenchmark(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "perfbench") || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decl := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decl[fd.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "NewArenaStorage" && !decl[id] {
				t.Errorf("%s: NewArenaStorage is deprecated; use NewSliceStorage", fset.Position(id.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func ExampleNewWithStorage() {
	cfg := Config{M: 64, B: 8, Omega: 8}
	ma := NewWithStorage(cfg, NewSliceStorage())
	a := ma.Alloc(1)
	ma.Write(a, []Item{{Key: 1}})
	buf := make([]Item, 0, cfg.B)
	fmt.Println(len(ma.ReadInto(a, buf)), ma.Cost())
	// Output: 1 9
}
