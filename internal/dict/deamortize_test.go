package dict

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/aem"
	"repro/internal/rng"
)

// TestFlushStepBudget is the bounded-stall contract at the tree level: a
// deamortized tree charged one FlushStep(1) per serving-sized batch never
// performs more than one node-flush per batch outside the 2× backstop,
// while queries, snapshots and the final barrier all stay model-correct
// with debt outstanding.
func TestFlushStepBudget(t *testing.T) {
	r := rng.New(17)
	cfg := aem.Config{M: 128, B: 16, Omega: 8}
	ma := aem.New(cfg)
	tree := NewBufferTree(ma)
	tree.Deamortize()
	reader := machineReader{ma}
	model := map[int64]int64{}

	const keyspace = 512
	ops := diffStream(23, 20000, keyspace)
	sawDebt := false
	for i := 0; i < len(ops); {
		j := i + 1 + r.Intn(7)
		if j > len(ops) {
			j = len(ops)
		}
		batch := ops[i:j]
		for _, op := range batch {
			switch op.Kind {
			case Insert:
				model[op.Key] = op.Value
			case Delete:
				delete(model, op.Key)
			}
		}
		before := tree.NodeFlushes()
		tree.Apply(batch)
		if d := tree.NodeFlushes() - before; d > 1 {
			t.Fatalf("Apply of %d ops performed %d node-flushes; the backstop allows at most 1", len(batch), d)
		}
		if tree.Debt() > 0 {
			sawDebt = true
		}
		before = tree.NodeFlushes()
		stepped := tree.FlushStep(1)
		if d := tree.NodeFlushes() - before; d != int64(stepped) || d > 1 {
			t.Fatalf("FlushStep(1) reported %d steps but performed %d node-flushes", stepped, d)
		}
		if tree.Debt() == 0 && r.Intn(20) == 0 {
			tree.Compact() // what a committer does at idle
		}
		i = j

		if r.Intn(40) == 0 {
			// Live lookups and snapshot reads must see through pending debt.
			k := int64(r.Intn(keyspace))
			res := tree.Apply([]Op{{Kind: Lookup, Key: k}})
			want, wantOK := model[k]
			if res[0].OK != wantOK || (wantOK && res[0].Value != want) {
				t.Fatalf("mid-debt Lookup(%d) = (%d,%v), model (%d,%v)", k, res[0].Value, res[0].OK, want, wantOK)
			}
			snap := tree.Snapshot()
			got, ok, _ := snap.Get(reader, k, nil)
			if ok != wantOK || (wantOK && got != want) {
				t.Fatalf("mid-debt snapshot Get(%d) = (%d,%v), model (%d,%v)", k, got, ok, want, wantOK)
			}
		}
	}
	if !sawDebt {
		t.Fatal("stream never left debt outstanding; the deamortized path was not exercised")
	}

	tree.Flush()
	if tree.Debt() != 0 {
		t.Fatalf("Flush left %d debt entries", tree.Debt())
	}
	for k := int64(0); k < keyspace; k++ {
		snap := tree.Snapshot()
		got, ok, _ := snap.Get(reader, k, nil)
		want, wantOK := model[k]
		if ok != wantOK || (wantOK && got != want) {
			t.Fatalf("post-barrier Get(%d) = (%d,%v), model (%d,%v)", k, got, ok, want, wantOK)
		}
	}
	if peak := ma.MemPeak(); peak > cfg.M {
		t.Fatalf("MemPeak %d exceeds M=%d", peak, cfg.M)
	}
}

// TestDeamortizedRootBackstop pins the occupancy bound when the caller
// never steps: the root buffer is force-flushed (one node-flush) at 2× its
// threshold, so pending root items stay below 2·rootCap + one append chunk
// no matter how much debt accumulates below.
func TestDeamortizedRootBackstop(t *testing.T) {
	cfg := aem.Config{M: 64, B: 8, Omega: 4}
	ma := aem.New(cfg)
	tree := NewBufferTree(ma)
	tree.Deamortize()

	ops := diffStream(31, 8*tree.RootCap(), 4096)
	bound := 2*tree.RootCap() + cfg.B
	for i := 0; i < len(ops); i += 16 {
		j := min(len(ops), i+16)
		tree.Apply(ops[i:j])
		if p := tree.rootPending(); p > bound {
			t.Fatalf("root pending %d exceeds backstop bound %d", p, bound)
		}
	}
	// The caller never steps, so every node-flush is a backstop's.
	if tree.NodeFlushes() == 0 {
		t.Fatal("backstop never fired over an 8×rootCap stream")
	}
	if tree.Debt() == 0 {
		t.Fatal("unstepped deamortized stream accumulated no debt")
	}
	tree.Flush()
	if tree.Debt() != 0 || tree.rootPending() != 0 {
		t.Fatalf("barrier left debt=%d pending=%d", tree.Debt(), tree.rootPending())
	}
}

// TestDeamortizedMatchesAmortized applies one stream to an amortized and a
// deamortized tree (the latter stepped per batch) and requires identical
// final answers, with the deamortized total cost within 2× — deferral may
// reorder node-flushes but must not change the asymptotics.
func TestDeamortizedMatchesAmortized(t *testing.T) {
	cfg := aem.Config{M: 128, B: 16, Omega: 16}
	build := func(deam bool) (*aem.Machine, *BufferTree) {
		ma := aem.New(cfg)
		tree := NewBufferTree(ma)
		if deam {
			tree.Deamortize()
		}
		return ma, tree
	}
	maA, amortized := build(false)
	maD, deamortized := build(true)

	ops := diffStream(41, 30000, 1024)
	r := rng.New(3)
	for i := 0; i < len(ops); {
		j := i + 1 + r.Intn(15)
		if j > len(ops) {
			j = len(ops)
		}
		resA := amortized.Apply(ops[i:j])
		resD := deamortized.Apply(ops[i:j])
		deamortized.FlushStep(1)
		if deamortized.Debt() == 0 {
			// The service's idle retirer compacts once the debt is paid; without
			// it the deamortized tree would stay a single leaf and pay a
			// full run rewrite per installment.
			deamortized.Compact()
		}
		if len(resA) != len(resD) {
			t.Fatalf("result counts differ: %d vs %d", len(resA), len(resD))
		}
		for qi := range resA {
			if resA[qi].OK != resD[qi].OK || resA[qi].Value != resD[qi].Value || len(resA[qi].Hits) != len(resD[qi].Hits) {
				t.Fatalf("query %d diverged: %+v vs %+v", qi, resA[qi], resD[qi])
			}
		}
		i = j
	}
	amortized.Flush()
	deamortized.Flush()
	if amortized.Len() != deamortized.Len() {
		t.Fatalf("Len diverged: %d vs %d", amortized.Len(), deamortized.Len())
	}
	costA := maA.Stats().Cost(cfg.Omega)
	costD := maD.Stats().Cost(cfg.Omega)
	if costD > 2*costA {
		t.Fatalf("deamortized cost %d more than 2× amortized %d", costD, costA)
	}
}

// TestDeamortizeGuards pins the enable-time contract.
func TestDeamortizeGuards(t *testing.T) {
	ma := aem.New(aem.Config{M: 128, B: 8, Omega: 2})
	tree := NewBufferTree(ma)
	tree.Apply([]Op{{Kind: Insert, Key: 1, Value: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("Deamortize after Apply did not panic")
		}
	}()
	tree.Deamortize()
}

// flushFingerprint is everything a flush-path refactor must leave
// unchanged: the I/O accounting, the blocks stored (no snapshot is taken,
// so the tree rewrites every block it lets go of but rebuilt separators),
// the node-flush count, the tree's shape, and a checksum of every query
// answer.
type flushFingerprint struct {
	reads, writes, cost int64
	blocks              int
	nodeFlushes         int64
	fanout, height, n   int
	answers             uint64
}

// runFlushFingerprint drives one serving-style stream through a tree in the
// given mode: batches of 1–12 ops, one FlushStep(1) per batch when
// deamortized, an idle drain plus Compact every 40th batch, a Flush
// barrier every 997th and at the end.
// It also returns the metered internal-memory peak, which is not pinned:
// it may only fall, and must stay within M.
func runFlushFingerprint(cfg aem.Config, deam bool) (flushFingerprint, int) {
	ma := aem.New(cfg)
	tree := NewBufferTree(ma)
	if deam {
		tree.Deamortize()
	}
	r := rng.New(7)
	ops := diffStream(99, 60000, 8192)
	var answers uint64 = 14695981039346656037 // FNV-1a over every answer
	mix := func(v int64) {
		answers ^= uint64(v)
		answers *= 1099511628211
	}
	for i, step := 0, 0; i < len(ops); step++ {
		j := min(len(ops), i+1+r.Intn(12))
		for _, res := range tree.Apply(ops[i:j]) {
			if res.OK {
				mix(res.Value)
			}
			mix(int64(len(res.Hits)))
			for _, h := range res.Hits {
				mix(h.Key)
				mix(h.Value)
			}
		}
		i = j
		if deam {
			tree.FlushStep(1)
			if step%40 == 39 {
				for tree.Debt() > 0 {
					tree.FlushStep(1)
				}
				tree.Compact()
			}
		}
		if step%997 == 996 {
			tree.Flush()
		}
	}
	tree.Flush()
	st := ma.Stats()
	return flushFingerprint{
		reads: st.Reads, writes: st.Writes, cost: ma.Cost(),
		blocks: ma.NumBlocks(), nodeFlushes: tree.NodeFlushes(),
		fanout: tree.Fanout(), height: tree.Height(), n: tree.Len(),
		answers: answers,
	}, ma.MemPeak()
}

// TestFlushAccountingFingerprint pins the exact accounting of both flush
// modes. The aembench goldens run only the amortized tree, each stream in
// one Apply, so this is the oracle for serving-sized batches and for the
// deamortized path: any change to the order, granularity or memory layout
// of node-flushes moves a number here.
func TestFlushAccountingFingerprint(t *testing.T) {
	// Pinned values: a refactor of the flush path must reproduce them.
	want := map[string]flushFingerprint{
		"256-16-2/staged-amortized":   {591003, 16814, 624631, 758, 909, 14, 3, 5432, 0x5e6e717bd7c70e7},
		"256-16-2/staged-deamortized": {663258, 17677, 698612, 726, 1212, 13, 3, 5432, 0x5e6e717bd7c70e7},
		"128-8-4/staged-amortized":    {889952, 34056, 1026176, 1567, 1761, 13, 3, 5432, 0x5e6e717bd7c70e7},
		"128-8-4/staged-deamortized":  {981054, 36398, 1126646, 1417, 2395, 12, 3, 5432, 0x5e6e717bd7c70e7},
	}
	for _, cfg := range []aem.Config{{M: 256, B: 16, Omega: 2}, {M: 128, B: 8, Omega: 4}} {
		for _, deam := range []bool{false, true} {
			name := fmt.Sprintf("%d-%d-%d/%s", cfg.M, cfg.B, cfg.Omega, modeName(deam))
			t.Run(name, func(t *testing.T) {
				got, peak := runFlushFingerprint(cfg, deam)
				if peak > cfg.M {
					t.Errorf("MemPeak %d exceeds M=%d", peak, cfg.M)
				}
				if got != want[name] {
					t.Errorf("fingerprint moved:\n got %+v\nwant %+v", got, want[name])
				}
			})
		}
	}
}

// modeName names a flush mode in subtest names. Every mode stages its
// root tail; the prefix keeps the names stable for test history.
func modeName(deam bool) string {
	if deam {
		return "staged-deamortized"
	}
	return "staged-amortized"
}

// TestFlushStepAllocs pins the host allocations of a node-flush and of
// the publish after it, on a warmed deamortized tree. A partition takes
// its d writers, their d·B frame items and its separator keys from tree
// scratch, and a leaf apply reuses its chunk and output frame; the
// address arrays a flush grows or starts, and the snapNodes and child
// lists the publish captures, are carved from the tree's slabs. So what a
// FlushStep and its publish allocate together — now and then a slab, the
// tree's or the slice engine's — is less than one object on average,
// whatever the fan-out d, where one object per captured node would read
// several.
func TestFlushStepAllocs(t *testing.T) {
	const perFlush = 1
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	avg := map[int]float64{}
	for _, m := range []int{128, 512} {
		cfg := aem.Config{M: m, B: 16, Omega: 4}
		tree := NewBufferTree(aem.New(cfg))
		tree.Deamortize()
		d := tree.Fanout()
		keys := 64 * cfg.M
		var ops []Op
		for i := 0; i < 24*tree.RootCap(); i++ {
			ops = append(ops, Op{Kind: Insert, Key: int64(i * 7919 % keys), Value: int64(i)})
		}
		var snap TreeSnapshot
		var allocs, flushes, widest int
		for i := 0; i < len(ops); i += 8 {
			tree.Apply(ops[i : i+8])
			if tree.Debt() == 0 {
				tree.Compact()
				tree.SnapshotInto(&snap)
				continue
			}
			warm := i >= len(ops)/2
			if !warm {
				tree.FlushStep(1)
				tree.SnapshotInto(&snap)
				continue
			}
			widest = max(widest, widestNode(tree.top))
			m0 := mallocs()
			flushes += tree.FlushStep(1)
			tree.SnapshotInto(&snap)
			allocs += int(mallocs() - m0)
		}
		if widest < d/2 {
			t.Fatalf("d=%d: the widest node had %d children; the stream never partitioned at fan-out", d, widest)
		}
		avg[d] = float64(allocs) / float64(flushes)
		t.Logf("d=%d: %d node-flushes and their publishes allocated %d objects (%.3f each; widest node %d)", d, flushes, allocs, avg[d], widest)
		if avg[d] > perFlush {
			t.Errorf("d=%d: a node-flush and its publish allocated %.3f objects on average, want ≤ %v", d, avg[d], perFlush)
		}
	}
}

// widestNode returns the largest child count in nd's subtree.
func widestNode(nd *btnode) int {
	w := len(nd.kids)
	for _, kid := range nd.kids {
		w = max(w, widestNode(kid))
	}
	return w
}
