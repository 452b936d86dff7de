package dict

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/aem"
	"repro/internal/rng"
)

// machineReader adapts a machine's storage to BlockReader for
// single-threaded tests (the serving layer supplies its own synchronized
// implementation).
type machineReader struct{ ma *aem.Machine }

func (r machineReader) ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item {
	return r.ma.PeekInto(a, dst)
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

	// Occupancy: with ~4-op batches a chain closed per batch would hold ~1
	// block per batch; staged, the root chain must stay near ⌈items/B⌉.
	// Allow 2× slack for the partial blocks flushes leave behind.
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
// shapes. Every block of before was captured by the previous publish and
// the caller never hands retired blocks back, so no address of before is
// reused, and appends never change a chain's first block. So: a chain
// whose new first block was a later block of the old chain lost a prefix
// (a prefix partition or prefix apply); a non-root internal buffer whose
// first block changed otherwise was reset (only partition empties those);
// a leaf whose run changed got a fresh run from mergeApply; a new top node
// means rebuild ran.
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
					hit["prefix partition"]++
				} else {
					hit["prefix apply"]++
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
	for _, deam := range []bool{false, true} {
		t.Run(modeName(deam), func(t *testing.T) {
			cfg := aem.Config{M: 256, B: 16, Omega: 2}
			ma := aem.New(cfg)
			tree := NewBufferTree(ma)
			if deam {
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
				if deam {
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
				if len(tree.stage) < staged+updates {
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

			want := []string{"partition reset", "mergeApply", "rebuild", "stage spill"}
			if deam {
				// Amortized cascades rebuild inline, so Compact only ever
				// has work in deamortized mode.
				want = append(want, "prefix partition", "prefix apply", "Compact")
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

// freshCapture captures nd's subtree from scratch, ignoring every cached
// capture and dirty mark (and setting no sharing mark): the oracle the
// dirty-path capture must reproduce node for node.
func freshCapture(nd *btnode) *snapNode {
	s := &snapNode{
		sepBase:   nd.sepBase,
		sepBlocks: nd.sepBlocks,
		buf:       snapChain{addrs: nd.buf.addrs, n: nd.buf.n},
		run:       snapChain{addrs: nd.run.addrs, n: nd.run.n},
	}
	for _, kid := range nd.kids {
		s.kids = append(s.kids, freshCapture(kid))
	}
	return s
}

// rootOf names the root capture s holds: the tree's rootGen when s was
// captured. Two snapshots of one tree hold the same root capture exactly
// when rootOf agrees.
func rootOf(s *TreeSnapshot) int64 { return s.gen }

// checkPublish publishes a snapshot as a committer does and holds it to
// freshCapture: the watermark, the staged tail, and every node's
// separators and chains. It also checks that the capture left each live
// node clean with the published capture cached (for the root, the tree's
// rootSnap under the snapshot's rootGen), so the next publish starts from
// a coherent cache, and that every buffer chain keeps the chain order
// (checkChainOrder).
func checkPublish(tree *BufferTree) error {
	s := tree.Snapshot()
	if s.seq != tree.seq || !slices.Equal(s.stage, tree.stage) {
		return fmt.Errorf("watermark %d and %d staged items, want %d and %d", s.seq, len(s.stage), tree.seq, len(tree.stage))
	}
	if tree.rootSnapOf != tree.top || rootOf(s) != tree.rootGen {
		return fmt.Errorf("root capture %d published, but the tree caches capture %d (of the live root: %v)",
			rootOf(s), tree.rootGen, tree.rootSnapOf == tree.top)
	}
	want := freshCapture(tree.top)
	for _, got := range []*snapNode{&s.root, &tree.rootSnap} {
		if err := sameCapture(tree.top, got, want); err != nil {
			return fmt.Errorf("root: %w", err)
		}
	}
	return checkChainOrder(tree)
}

// checkChainOrder holds the live tree to the chain order (see chain):
// within a node's buffer chain, each block's entries for a key are newer
// than that key's entries in every earlier block, and the root's stage is
// newer than the root's chain. It reads the blocks from the storage
// engine, so the meter bills nothing.
func checkChainOrder(tree *BufferTree) error {
	// newest maps a key to the newest seq among the node's blocks checked
	// so far, sized for the root, whose chain is usually the longest.
	newest := make(map[int64]int64, tree.top.buf.n+len(tree.stage))
	check := func(items []aem.Item) error {
		for _, it := range items {
			if s, ok := newest[it.Key]; ok && entrySeq(it.Aux) <= s {
				return fmt.Errorf("holds key %d at seq %d, an earlier block at seq %d", it.Key, entrySeq(it.Aux), s)
			}
		}
		for _, it := range items {
			if s := entrySeq(it.Aux); s > newest[it.Key] {
				newest[it.Key] = s
			}
		}
		return nil
	}
	frame := make([]aem.Item, 0, tree.cfg.B)
	var walk func(nd *btnode) error
	walk = func(nd *btnode) error {
		clear(newest)
		for b, a := range nd.buf.addrs {
			if err := check(tree.ma.PeekInto(a, frame)); err != nil {
				return fmt.Errorf("buffer block %d %w", b, err)
			}
		}
		if nd == tree.top {
			if err := check(tree.stage); err != nil {
				return fmt.Errorf("the stage %w", err)
			}
		}
		for i, kid := range nd.kids {
			if err := walk(kid); err != nil {
				return fmt.Errorf("child %d: %w", i, err)
			}
		}
		return nil
	}
	return walk(tree.top)
}

// sameCapture compares one captured node and its subtree; an error names
// the path of child indexes from the root to the first difference. Below
// the root, got must be the node's cached capture itself.
func sameCapture(nd *btnode, got, want *snapNode) error {
	switch {
	case nd.dirty || nd.parent != nil && nd.snap != got:
		return fmt.Errorf("node left dirty=%v with a different cached capture", nd.dirty)
	case got.isLeaf() != want.isLeaf() || len(got.kids) != len(want.kids):
		return fmt.Errorf("%d children captured, want %d", len(got.kids), len(want.kids))
	case got.sepBase != want.sepBase || got.sepBlocks != want.sepBlocks:
		return fmt.Errorf("separators %d+%d captured, want %d+%d", got.sepBase, got.sepBlocks, want.sepBase, want.sepBlocks)
	case got.buf.n != want.buf.n || !slices.Equal(got.buf.addrs, want.buf.addrs):
		return fmt.Errorf("buffer %v (%d items) captured, want %v (%d)", got.buf.addrs, got.buf.n, want.buf.addrs, want.buf.n)
	case got.run.n != want.run.n || !slices.Equal(got.run.addrs, want.run.addrs):
		return fmt.Errorf("run %v (%d items) captured, want %v (%d)", got.run.addrs, got.run.n, want.run.addrs, want.run.n)
	}
	for i, kid := range nd.kids {
		if err := sameCapture(kid, got.kids[i], want.kids[i]); err != nil {
			return fmt.Errorf("child %d: %w", i, err)
		}
	}
	return nil
}

// TestSnapshotPublishAllocs pins the publish cost: a staged single-Insert
// Apply plus Snapshot allocates only the TreeSnapshot and visits only the
// clean root at any height, an unchanged tree republishes the same
// captured root, and a publish after a root-buffer append visits and
// recaptures only the root, which SnapshotInto writes into a reused
// TreeSnapshot without allocating.
func TestSnapshotPublishAllocs(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{1000, 6000} {
		ma := aem.New(aem.Config{M: 256, B: 16, Omega: 2})
		tree := NewBufferTree(ma)
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: Insert, Key: int64(i * 7919 % n), Value: int64(i)}
		}
		tree.Apply(ops)
		tree.Flush()
		h := tree.Height()

		s1, s2 := tree.Snapshot(), tree.Snapshot()
		if rootOf(s1) != rootOf(s2) {
			t.Fatalf("height %d: two publishes with no Apply between captured different roots", h)
		}
		// The stage is empty after Flush and holds B items, so these
		// 1+1+8 inserts stay in the stage: no chain changes.
		one := []Op{{Kind: Insert, Key: 3, Value: 1}}
		v := tree.captureVisits
		tree.Apply(one)
		tree.Snapshot()
		if n := tree.captureVisits - v; n != 1 {
			t.Fatalf("height %d: a staged Insert's publish visited %d nodes, want 1", h, n)
		}
		counts[h] = testing.AllocsPerRun(8, func() {
			tree.Apply(one)
			tree.Snapshot()
		})
		if counts[h] > 1 {
			t.Fatalf("height %d: staged Insert + Snapshot = %.1f allocs, want ≤ 1", h, counts[h])
		}

		// Spill the stage: the root chain grows, every child is unchanged.
		spill := func() {
			for tree.Apply(one); len(tree.stage) > 0; tree.Apply(one) {
			}
		}
		prev := tree.Snapshot()
		spill()
		v = tree.captureVisits
		next := tree.Snapshot()
		if n := tree.captureVisits - v; n != 1 {
			t.Fatalf("height %d: publishing a root-buffer append visited %d nodes, want 1", h, n)
		}
		if rootOf(next) == rootOf(prev) {
			t.Fatalf("height %d: root buffer grew but the captured root was reused", h)
		}
		for i := range next.root.kids {
			if next.root.kids[i] != prev.root.kids[i] {
				t.Fatalf("height %d: child %d re-captured although only the root buffer changed", h, i)
			}
		}

		// The root is captured by value, so publishing a spill into a
		// reused TreeSnapshot allocates nothing. Only the publish is
		// counted: the spill's block and address-array growth are not.
		// The count is averaged, so a stray runtime object cannot fail
		// it, while one object per publish reads 1.
		const spills = 16 // the root chain stays below its threshold
		var m0, m1 runtime.MemStats
		var mallocs uint64
		for i := 0; i < spills; i++ {
			spill()
			runtime.ReadMemStats(&m0)
			tree.SnapshotInto(next)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
		}
		if avg := mallocs / spills; avg != 0 {
			t.Fatalf("height %d: a root-append publish into a reused TreeSnapshot allocated %d objects, want 0", h, avg)
		}
	}
	t.Logf("publish allocs by height: %v", counts)
	if counts[2] != counts[3] || len(counts) != 2 {
		t.Fatalf("publish allocs by height = %v, want heights 2 and 3 with equal counts", counts)
	}
}

// TestStagedSince pins when a held capture may be grown instead of
// recaptured: only across updates that all stayed in the stage. The grown
// snapshot must equal a fresh capture and keep its stage entries through
// the next spill. Every other change must be refused: a spill, a flush
// step, a barrier and a rebuild.
func TestStagedSince(t *testing.T) {
	cfg := aem.Config{M: 128, B: 8, Omega: 2}
	newTree := func(deam bool) *BufferTree {
		tree := NewBufferTree(aem.New(cfg))
		if deam {
			tree.Deamortize()
		}
		return tree
	}
	next := int64(0)
	insert := func(tree *BufferTree, n int) {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: Insert, Key: next * 7919 % 4096, Value: next}
			next++
		}
		tree.Apply(ops)
	}

	t.Run("grows", func(t *testing.T) {
		tree := newTree(false)
		insert(tree, 3*cfg.B) // three spills: the captured stage is empty
		s := tree.Snapshot()
		if k, ok := tree.StagedSince(s); !ok || k != 0 {
			t.Fatalf("unchanged tree: StagedSince = (%d, %v), want (0, true)", k, ok)
		}
		insert(tree, cfg.B-1) // one slot short of a spill
		k, ok := tree.StagedSince(s)
		if !ok || k != cfg.B-1 {
			t.Fatalf("StagedSince = (%d, %v), want (%d, true)", k, ok, cfg.B-1)
		}
		// What a fresh capture would hold, read without capturing, which
		// would mark the stage shared itself.
		g := s.Grown(k)
		if g.seq != tree.seq || rootOf(&g) != tree.rootGen || !slices.Equal(g.stage, tree.stage) {
			t.Fatalf("grown snapshot (seq %d, %d staged) differs from the tree (seq %d, %d staged)",
				g.seq, len(g.stage), tree.seq, len(tree.stage))
		}
		held := slices.Clone(g.stage)
		insert(tree, 2*cfg.B) // spill the stage twice; a refilled array would overwrite g's
		if !slices.Equal(g.stage, held) {
			t.Fatal("a spill reused the stage array a grown snapshot reads")
		}
	})

	refusals := []struct {
		name          string
		deam          bool
		setup, change func(*BufferTree)
	}{
		{"spill", false, nil, func(tree *BufferTree) { insert(tree, cfg.B) }},
		{"flush step", true, func(tree *BufferTree) { insert(tree, tree.RootCap()) },
			func(tree *BufferTree) {
				if tree.FlushStep(1) != 1 {
					t.Fatal("FlushStep(1) paid no node-flush")
				}
			}},
		{"barrier", false, func(tree *BufferTree) { insert(tree, 2) }, (*BufferTree).Flush},
		{"rebuild", true, func(tree *BufferTree) {
			insert(tree, 3*tree.RootCap())
			for tree.Debt() > 0 {
				tree.FlushStep(1)
			}
		}, func(tree *BufferTree) {
			if !tree.Compact() {
				t.Fatal("Compact found nothing to rebuild")
			}
		}},
	}
	for _, rc := range refusals {
		t.Run(rc.name, func(t *testing.T) {
			tree := newTree(rc.deam)
			insert(tree, 3)
			if rc.setup != nil {
				rc.setup(tree)
			}
			s := tree.Snapshot()
			rc.change(tree)
			if k, ok := tree.StagedSince(s); ok {
				t.Fatalf("StagedSince = (%d, true) after a %s, want a refusal", k, rc.name)
			}
		})
	}
}

// BenchmarkSnapshotPublish measures a single-writer commit on a 2^17-key
// tree: one staged Insert and one publish per iteration. nodes/op is the
// capture's visited-node count, the publish's work.
func BenchmarkSnapshotPublish(b *testing.B) {
	const n = 1 << 17
	tree := NewBufferTree(aem.New(aem.Config{M: 1024, B: 32, Omega: 16}))
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: Insert, Key: int64(i * 7919 % n), Value: int64(i)}
	}
	tree.Apply(ops)
	tree.Flush()
	tree.Snapshot()
	one := []Op{{Kind: Insert}}
	v := tree.captureVisits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0].Key, one[0].Value = int64(i*7919%n), int64(i)
		tree.Apply(one)
		tree.Snapshot()
	}
	b.ReportMetric(float64(tree.captureVisits-v)/float64(b.N), "nodes/op")
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
