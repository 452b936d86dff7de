package dict

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/aem"
	"repro/internal/rng"
)

// machineReader adapts a machine's storage to BlockReader for
// single-threaded tests (the serving layer supplies its own synchronized
// implementation).
type machineReader struct{ ma *aem.Machine }

func (r machineReader) ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item {
	return r.ma.Storage().ReadInto(a, dst)
}

// TestSnapshotMatchesModel drives a mixed stream, snapshots at random
// batch boundaries, and checks every snapshot answer (point and range)
// against a model map frozen at the same boundary — including answers
// read AFTER the live tree has kept mutating, which pins the append-only
// stability argument the capture relies on.
func TestSnapshotMatchesModel(t *testing.T) {
	r := rng.New(99)
	ma := aem.New(aem.Config{M: 256, B: 16, Omega: 8})
	tree := NewBufferTree(ma)
	reader := machineReader{ma}

	const keyspace = 1024
	model := map[int64]int64{}

	type frozen struct {
		snap  *TreeSnapshot
		model map[int64]int64
	}
	var snaps []frozen

	ops := diffStream(7, 30000, keyspace)
	for i := 0; i < len(ops); {
		j := i + 1 + r.Intn(900)
		if j > len(ops) {
			j = len(ops)
		}
		batch := ops[i:j]
		tree.Apply(batch)
		for _, op := range batch {
			switch op.Kind {
			case Insert:
				model[op.Key] = op.Value
			case Delete:
				delete(model, op.Key)
			}
		}
		i = j

		snap := tree.Snapshot()
		// Check a sample of keys right away...
		for k := 0; k < 32; k++ {
			key := int64(r.Intn(keyspace))
			got, ok, _ := snap.Get(reader, key, nil)
			want, wantOK := model[key]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("snapshot Get(%d) = (%d,%v), model (%d,%v)", key, got, ok, want, wantOK)
			}
		}
		// ...and keep every 8th snapshot (with its frozen model) to
		// re-check after further mutation.
		if len(snaps) < 16 && r.Intn(8) == 0 {
			mcopy := make(map[int64]int64, len(model))
			for k, v := range model {
				mcopy[k] = v
			}
			snaps = append(snaps, frozen{snap, mcopy})
		}
	}
	tree.Flush() // rewrites leaf runs; captured snapshots must not notice

	sc := NewGetScratch(16)
	for si, fz := range snaps {
		for key := int64(0); key < keyspace; key++ {
			got, ok, _ := fz.snap.Get(reader, key, sc)
			want, wantOK := fz.model[key]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("stale snapshot %d: Get(%d) = (%d,%v), frozen model (%d,%v)",
					si, key, got, ok, want, wantOK)
			}
		}
		lo := int64(r.Intn(keyspace))
		hi := lo + 1 + int64(r.Intn(200))
		hits, reads := fz.snap.Range(reader, lo, hi)
		if reads == 0 {
			t.Fatalf("snapshot %d: Range(%d,%d) read no blocks", si, lo, hi)
		}
		want := map[int64]int64{}
		for k, v := range fz.model {
			if lo <= k && k < hi {
				want[k] = v
			}
		}
		if len(hits) != len(want) {
			t.Fatalf("snapshot %d: Range(%d,%d) = %d hits, want %d", si, lo, hi, len(hits), len(want))
		}
		prev := lo - 1
		for _, h := range hits {
			if h.Key <= prev {
				t.Fatalf("snapshot %d: Range hits out of order at key %d", si, h.Key)
			}
			prev = h.Key
			if v, ok := want[h.Key]; !ok || v != h.Value {
				t.Fatalf("snapshot %d: Range hit (%d,%d), model has (%d,%v)", si, h.Key, h.Value, v, ok)
			}
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots were frozen; widen the sampling")
	}
}

// TestSnapshotEmptyAndRangeEdges covers the degenerate shapes: an empty
// tree's snapshot answers everything with absent/empty, and hi ≤ lo
// ranges are free.
func TestSnapshotEmptyAndRangeEdges(t *testing.T) {
	ma := aem.New(aem.Config{M: 128, B: 8, Omega: 4})
	tree := NewBufferTree(ma)
	snap := tree.Snapshot()
	reader := machineReader{ma}
	if _, ok, reads := snap.Get(reader, 42, nil); ok || reads != 0 {
		t.Fatalf("empty snapshot Get = ok=%v reads=%d", ok, reads)
	}
	if hits, reads := snap.Range(reader, 10, 10); hits != nil || reads != 0 {
		t.Fatalf("empty range = %v (%d reads)", hits, reads)
	}
	tree.Apply([]Op{{Kind: Insert, Key: 7, Value: 11}})
	snap = tree.Snapshot()
	if v, ok, _ := snap.Get(reader, 7, nil); !ok || v != 11 {
		t.Fatalf("Get(7) = (%d,%v), want (11,true)", v, ok)
	}
	if hits, _ := snap.Range(reader, 8, 7); len(hits) != 0 {
		t.Fatalf("inverted range returned %v", hits)
	}
}

// TestTailStaging drives a staged tree with the trickled tiny batches of
// a group-commit serving layer and pins both halves of the staging
// contract: (a) correctness — live queries and snapshots still match the
// model, including entries resident only in the stage; (b) occupancy —
// the root chain holds ~⌈n/B⌉ blocks instead of one block per batch.
func TestTailStaging(t *testing.T) {
	r := rng.New(5)
	cfg := aem.Config{M: 256, B: 16, Omega: 8}
	ma := aem.New(cfg)
	tree := NewBufferTree(ma)
	tree.EnableTailStaging()
	reader := machineReader{ma}
	model := map[int64]int64{}

	const keyspace = 512
	ops := diffStream(11, 12000, keyspace)
	applied := 0
	for i := 0; i < len(ops); {
		j := i + 1 + r.Intn(7) // serving-sized batches: 1..7 ops
		if j > len(ops) {
			j = len(ops)
		}
		batch := ops[i:j]
		// A mid-batch lookup observes exactly the ops before it, so record
		// each lookup's expected answer at its position in the stream.
		type expect struct {
			key   int64
			value int64
			ok    bool
		}
		var expects []expect
		for _, op := range batch {
			switch op.Kind {
			case Insert:
				model[op.Key] = op.Value
			case Delete:
				delete(model, op.Key)
			case Lookup:
				v, ok := model[op.Key]
				expects = append(expects, expect{op.Key, v, ok})
			case RangeScan:
				expects = append(expects, expect{key: -1}) // positional filler
			}
		}
		res := tree.Apply(batch)
		applied += len(batch)
		if len(res) != len(expects) {
			t.Fatalf("Apply answered %d queries, stream has %d", len(res), len(expects))
		}
		for qi, e := range expects {
			if e.key < 0 {
				continue // range scan; point correctness is the target here
			}
			if res[qi].OK != e.ok || (e.ok && res[qi].Value != e.value) {
				t.Fatalf("live Lookup(%d) = (%d,%v), model (%d,%v)",
					e.key, res[qi].Value, res[qi].OK, e.value, e.ok)
			}
		}
		i = j

		if r.Intn(50) == 0 {
			snap := tree.Snapshot()
			for k := int64(0); k < keyspace; k++ {
				got, ok, _ := snap.Get(reader, k, nil)
				want, wantOK := model[k]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("staged snapshot Get(%d) = (%d,%v), model (%d,%v)", k, got, ok, want, wantOK)
				}
			}
		}
	}

	// Occupancy: with ~4-op batches an unstaged chain would hold ~1 block
	// per batch; staged, the root chain must stay near ⌈items/B⌉. Allow
	// 2× slack for the partial blocks flushes leave behind.
	if blocks := tree.top.buf.blocks(); blocks > 2*(tree.top.buf.n/cfg.B+1) {
		t.Fatalf("staged root chain holds %d blocks for %d items (B=%d) — fragmented",
			blocks, tree.top.buf.n, cfg.B)
	}

	tree.Flush()
	if len(tree.stage) != 0 {
		t.Fatalf("Flush left %d items in the stage", len(tree.stage))
	}
	for k := int64(0); k < keyspace; k++ {
		snap := tree.Snapshot()
		got, ok, _ := snap.Get(reader, k, nil)
		want, wantOK := model[k]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("post-flush Get(%d) = (%d,%v), model (%d,%v)", k, got, ok, want, wantOK)
		}
	}
}

// TestTailStagingGuards pins the enable-time contract.
func TestTailStagingGuards(t *testing.T) {
	ma := aem.New(aem.Config{M: 128, B: 8, Omega: 2})
	tree := NewBufferTree(ma)
	tree.Apply([]Op{{Kind: Insert, Key: 1, Value: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("EnableTailStaging after Apply did not panic")
		}
	}()
	tree.EnableTailStaging()
}

// TestFlushHookObservesStalls pins the hook contract: it fires once per
// top-level flush section (no nested double fire), with a non-negative
// duration, and a stream big enough to cascade fires it at least once.
func TestFlushHookObservesStalls(t *testing.T) {
	ma := aem.New(aem.Config{M: 64, B: 8, Omega: 2})
	tree := NewBufferTree(ma)
	var fired int
	var total time.Duration
	tree.SetFlushHook(func(d time.Duration) {
		if d < 0 {
			t.Fatalf("negative flush duration %v", d)
		}
		if tree.flushDepth != 0 {
			t.Fatalf("hook fired at depth %d, want 0 (top level only, after unwind)", tree.flushDepth)
		}
		fired++
		total += d
	})
	ops := diffStream(3, 4000, 256)
	tree.Apply(ops)
	if fired == 0 {
		t.Fatal("no flush sections observed over a cascading stream")
	}
	before := fired
	tree.Flush()
	if fired != before+1 {
		t.Fatalf("Flush fired the hook %d times, want exactly 1", fired-before)
	}
	tree.SetFlushHook(nil)
	tree.Apply(ops)
	if fired != before+1 {
		t.Fatal("hook fired after removal")
	}
}

// nodeShape is the structural state of one live node between two steps of
// a stream: enough to tell which mutation site touched the node.
type nodeShape struct {
	internal bool
	buf, run []aem.Addr
}

func shapeOf(tree *BufferTree) map[*btnode]nodeShape {
	out := map[*btnode]nodeShape{}
	var walk func(nd *btnode)
	walk = func(nd *btnode) {
		out[nd] = nodeShape{
			internal: !nd.isLeaf(),
			buf:      append([]aem.Addr(nil), nd.buf.addrs...),
			run:      append([]aem.Addr(nil), nd.run.addrs...),
		}
		for _, kid := range nd.kids {
			walk(kid)
		}
	}
	walk(tree.top)
	return out
}

// mutationSites classifies what a step did to the tree by diffing node
// shapes. Addresses are never reused and appends never change a chain's
// first block, so: a chain whose new first block was a later block of the
// old chain lost a prefix (partitionPrefix / applyLeafPrefix); a non-root
// internal buffer whose first block changed otherwise was reset (only
// partition empties those); a leaf whose run changed got a fresh run from
// mergeApply; a new top node means rebuild ran.
func mutationSites(before, after map[*btnode]nodeShape, oldTop, newTop *btnode, hit map[string]int) {
	if oldTop != newTop {
		hit["rebuild"]++
		return
	}
	for nd, a := range after {
		b, ok := before[nd]
		if !ok {
			continue
		}
		if len(b.buf) > 0 {
			switch {
			case len(a.buf) > 0 && slices.Contains(b.buf[1:], a.buf[0]):
				if a.internal {
					hit["partitionPrefix"]++
				} else {
					hit["applyLeafPrefix"]++
				}
			case a.internal && nd != newTop && (len(a.buf) == 0 || a.buf[0] != b.buf[0]):
				hit["partition reset"]++
			}
		}
		if !a.internal && (len(b.run) != len(a.run) || len(a.run) > 0 && b.run[0] != a.run[0]) {
			hit["mergeApply"]++
		}
	}
}

// TestSnapshotIsolationUnderSharing is the adversarial check for captures
// that share chain arrays and the staged tail with the live tree: every
// snapshot is published as a committer would (after every batch), every
// Nth is retained with the model frozen at its capture, and only after
// the whole stream — every later spill, reset, prefix detach, run
// replacement, rebuild and Compact — is each retained snapshot re-queried.
// The stream is checked to have crossed each mutation site its mode can
// reach, so a capture that aliased a reused array would be caught.
func TestSnapshotIsolationUnderSharing(t *testing.T) {
	for _, mode := range []struct {
		name         string
		staged, deam bool
	}{
		{"unstaged-amortized", false, false},
		{"staged-amortized", true, false},
		{"unstaged-deamortized", false, true},
		{"staged-deamortized", true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := aem.Config{M: 256, B: 16, Omega: 2}
			ma := aem.New(cfg)
			tree := NewBufferTree(ma)
			if mode.staged {
				tree.EnableTailStaging()
			}
			if mode.deam {
				tree.Deamortize()
			}
			reader := machineReader{ma}
			r := rng.New(41)
			const keyspace = 4096
			model := map[int64]int64{}
			type frozen struct {
				snap  *TreeSnapshot
				model map[int64]int64
			}
			var kept []frozen
			hit := map[string]int{}
			maxHeight := 0

			ops := diffStream(43, 24000, keyspace)
			for i, step := 0, 0; i < len(ops); step++ {
				j := min(len(ops), i+1+r.Intn(8))
				batch := ops[i:j]
				i = j
				updates := 0
				for _, op := range batch {
					switch op.Kind {
					case Insert:
						model[op.Key] = op.Value
						updates++
					case Delete:
						delete(model, op.Key)
						updates++
					}
				}
				before, oldTop, staged := shapeOf(tree), tree.top, len(tree.stage)
				tree.Apply(batch)
				if mode.deam {
					tree.FlushStep(1)
					if step%40 == 39 { // idle: retire the debt, then compact
						for tree.Debt() > 0 {
							tree.FlushStep(1)
						}
						if tree.Compact() {
							hit["Compact"]++
						}
					}
				}
				if step%997 == 996 {
					tree.Flush() // a barrier, as the service runs one
				}
				if mode.staged && len(tree.stage) < staged+updates {
					hit["stage spill"]++
				}
				mutationSites(before, shapeOf(tree), oldTop, tree.top, hit)
				maxHeight = max(maxHeight, tree.Height())

				snap := tree.Snapshot()
				if step%25 == 0 {
					mcopy := make(map[int64]int64, len(model))
					for k, v := range model {
						mcopy[k] = v
					}
					kept = append(kept, frozen{snap, mcopy})
				}
			}

			want := []string{"partition reset", "mergeApply", "rebuild"}
			if mode.staged {
				want = append(want, "stage spill")
			}
			if mode.deam {
				// Amortized cascades rebuild inline, so Compact only ever
				// has work in deamortized mode.
				want = append(want, "partitionPrefix", "applyLeafPrefix", "Compact")
			}
			for _, site := range want {
				if hit[site] == 0 {
					t.Errorf("stream never crossed %s (sites hit: %v, max height %d)", site, hit, maxHeight)
				}
			}

			t.Logf("sites hit: %v; max height %d; %d snapshots retained", hit, maxHeight, len(kept))

			sc := NewGetScratch(cfg.B)
			for si, fz := range kept {
				for q := 0; q < 48; q++ {
					key := int64(r.Intn(keyspace))
					got, ok, _ := fz.snap.Get(reader, key, sc)
					want, wantOK := fz.model[key]
					if ok != wantOK || (ok && got != want) {
						t.Fatalf("retained snapshot %d (seq %d): Get(%d) = (%d,%v), frozen model (%d,%v)",
							si, fz.snap.Seq(), key, got, ok, want, wantOK)
					}
				}
				for q := 0; q < 3; q++ {
					lo := int64(r.Intn(keyspace))
					hi := lo + 1 + int64(r.Intn(300))
					hits, _ := fz.snap.Range(reader, lo, hi)
					var n int
					for k := lo; k < hi; k++ {
						if _, ok := fz.model[k]; ok {
							n++
						}
					}
					if len(hits) != n {
						t.Fatalf("retained snapshot %d: Range(%d,%d) = %d hits, frozen model has %d", si, lo, hi, len(hits), n)
					}
					for hx, h := range hits {
						if v, ok := fz.model[h.Key]; !ok || v != h.Value || (hx > 0 && hits[hx-1].Key >= h.Key) {
							t.Fatalf("retained snapshot %d: Range(%d,%d) hit %d = (%d,%d), frozen model (%d,%v)",
								si, lo, hi, hx, h.Key, h.Value, v, ok)
						}
					}
				}
			}
		})
	}
}

// TestSnapshotPublishAllocs pins the publish cost: a staged single-Insert
// Apply plus Snapshot allocates a small constant that does not grow with
// the tree, an unchanged tree republishes the same captured root, and a
// publish after a root-buffer append copies only the root.
func TestSnapshotPublishAllocs(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{1000, 6000} {
		ma := aem.New(aem.Config{M: 256, B: 16, Omega: 2})
		tree := NewBufferTree(ma)
		tree.EnableTailStaging()
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: Insert, Key: int64(i * 7919 % n), Value: int64(i)}
		}
		tree.Apply(ops)
		tree.Flush()
		h := tree.Height()

		s1, s2 := tree.Snapshot(), tree.Snapshot()
		if s1.root != s2.root {
			t.Fatalf("height %d: two publishes with no Apply between captured different roots", h)
		}
		// The stage is empty after Flush and holds B items, so these
		// 1+8 inserts stay in the stage: no chain changes.
		one := []Op{{Kind: Insert, Key: 3, Value: 1}}
		counts[h] = testing.AllocsPerRun(8, func() {
			tree.Apply(one)
			tree.Snapshot()
		})
		if counts[h] > 4 {
			t.Fatalf("height %d: staged Insert + Snapshot = %.1f allocs, want ≤ 4", h, counts[h])
		}

		// Spill the stage: the root chain grows, every child is unchanged.
		prev := tree.Snapshot()
		for len(tree.stage) > 0 {
			tree.Apply(one)
		}
		next := tree.Snapshot()
		if next.root == prev.root {
			t.Fatalf("height %d: root buffer grew but the captured root was reused", h)
		}
		for i := range next.root.kids {
			if next.root.kids[i] != prev.root.kids[i] {
				t.Fatalf("height %d: child %d re-captured although only the root buffer changed", h, i)
			}
		}
	}
	t.Logf("publish allocs by height: %v", counts)
	if counts[2] != counts[3] || len(counts) != 2 {
		t.Fatalf("publish allocs by height = %v, want heights 2 and 3 with equal counts", counts)
	}
}

// TestSortByKey covers the radix sort behind snapshot Range on the spans
// the merge can hand it: one key, a byte, negative bounds, and the whole
// int64 domain (eight passes).
func TestSortByKey(t *testing.T) {
	r := rng.New(8)
	for _, tc := range []struct{ lo, hi int64 }{
		{5, 6},
		{-128, 128},
		{-1 << 40, 1 << 40},
		{math.MinInt64, math.MaxInt64},
	} {
		span := uint64(tc.hi) - uint64(tc.lo)
		var tmp []aem.Item
		for _, n := range []int{0, 1, 7, 1000} {
			items := make([]aem.Item, n)
			for i := range items {
				off := uint64(r.Intn(1<<62)) * 4 % span
				if i%3 == 0 {
					off = span - 1 // the top of the range, and repeated keys
				}
				items[i] = aem.Item{Key: int64(uint64(tc.lo) + off), Aux: int64(i)}
			}
			want := append([]aem.Item(nil), items...)
			slices.SortStableFunc(want, func(a, b aem.Item) int { return cmp.Compare(a.Key, b.Key) })
			var got []aem.Item
			got, tmp = sortByKey(items, tmp, tc.lo, span)
			if !slices.Equal(got, want) {
				t.Fatalf("[%d,%d) n=%d: radix order differs from a stable sort by key", tc.lo, tc.hi, n)
			}
		}
	}
}
