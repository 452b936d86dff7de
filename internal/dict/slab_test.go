package dict

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/aem"
)

// slabKinds names the tree's slabs by the function that carves them.
var slabKinds = map[string]string{
	"repro/internal/dict.(*BufferTree).capture":     "node",
	"repro/internal/dict.(*BufferTree).captureNode": "child list",
	"repro/internal/dict.(*BufferTree).appendBlock": "address",
	"repro/internal/dict.(*BufferTree).mergeApply":  "address",
	"repro/internal/dict.(*BufferTree).newStage":    "stage",
}

// slabCount is how many slabs of one kind the heap profile has recorded
// as allocated, and how many of them are still in use.
type slabCount struct{ allocs, inUse int64 }

// slabCounts reads the heap profile, after enough collections that it
// records every slab freed so far, and counts the tree's slabs by kind: the
// allocations made inside slab.Carver.Take, attributed to the innermost
// dict function on their stack.
func slabCounts() map[string]slabCount {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := map[string]slabCount{}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		carved := false
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "repro/internal/slab.(*Carver[") {
				carved = true
			} else if kind, ok := slabKinds[f.Function]; ok && carved {
				c := out[kind]
				c.allocs += r.AllocObjects
				c.inUse += r.InUseObjects()
				out[kind] = c
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

// TestCaptureSlabsAreCollectable pins what the tree's slabs keep alive.
// Captured nodes, their child lists, chain address arrays and stages are
// carved from per-tree slabs, so a carve is garbage only once its whole
// slab is. A rebuild replaces every node and chain and starts a new era
// of node and child-list slabs, so after one, and a few publishes with no
// snapshot held, every slab started before it is collected but the one
// the address and stage carvers were still cutting from. A snapshot held
// across the rebuild keeps slabs alive that the tree no longer reaches,
// but only its own: the node and child-list slabs its capture carved, and
// address and stage slabs that were in use when it was captured.
//
// The slabs are counted in the heap profile, by the function that carved
// them, rather than watched through finalizers: node slabs and child-list
// slabs point into each other, and the runtime never finalizes objects
// with finalizers that reach each other.
func TestCaptureSlabsAreCollectable(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	tree := NewBufferTree(aem.New(aem.Config{M: 128, B: 8, Omega: 2}))
	const keys = 8192
	var snap TreeSnapshot
	var seq int64
	apply := func(kind Kind, step int) {
		for k := 0; k < keys; k += step {
			seq++
			tree.Apply([]Op{{Kind: kind, Key: int64(k * 7919 % keys), Value: seq}})
			if seq%16 == 0 {
				tree.SnapshotInto(&snap)
			}
		}
	}
	apply(Insert, 1)
	apply(Insert, 3)
	// The held snapshot is an era of its own: its capture recaptures the
	// whole tree into fresh node and child-list slabs, which no later
	// capture shares.
	eraStart := slabCounts()
	tree.startEra()
	// An atomic holds it, so dropping it is a store the compiler keeps.
	var held atomic.Pointer[TreeSnapshot]
	held.Store(tree.Snapshot())
	tree.startEra()
	atCapture := slabCounts()
	apply(Delete, 1)
	apply(Insert, 8)

	// Flush with the runs marked oversized, so the flush rebuilds.
	atRebuild, top := slabCounts(), tree.top
	tree.oversized = true
	tree.Flush()
	if tree.top == top {
		t.Fatal("the flush did not rebuild the tree")
	}
	apply(Insert, 4)
	tree.SnapshotInto(&snap)

	withHeld := slabCounts()
	held.Store(nil)
	dropped := slabCounts()
	runtime.KeepAlive(tree)
	for _, kind := range []string{"node", "child list", "address", "stage"} {
		pre, since := atRebuild[kind].allocs, dropped[kind].allocs-atRebuild[kind].allocs
		t.Logf("%s slabs: %d before the rebuild, %d since; in use: %d at the held capture, %d with it held after the rebuild, %d once dropped",
			kind, pre, since, atCapture[kind].inUse, withHeld[kind].inUse, dropped[kind].inUse)
		if pre < 3 && kind != "stage" {
			t.Fatalf("%s: only %d slabs before the rebuild; the test needs several", kind, pre)
		}
		// A rebuild starts fresh node and child-list slabs, so the held
		// snapshot keeps only its own capture's. Address and stage slabs
		// hold no pointers: the held snapshot keeps at most those in use
		// at its capture, and their carvers may still cut from the slab
		// current at the rebuild.
		limit, heldLimit := since, since+atCapture[kind].allocs-eraStart[kind].allocs
		if kind == "address" || kind == "stage" {
			limit, heldLimit = since+1, since+1+atCapture[kind].inUse
		}
		if got := dropped[kind].inUse; got > limit {
			t.Errorf("%s: %d slabs in use with no snapshot held, want ≤ %d", kind, got, limit)
		}
		if got := withHeld[kind].inUse; got > heldLimit {
			t.Errorf("%s: %d slabs in use with a snapshot held, want ≤ %d", kind, got, heldLimit)
		}
	}
}

// TestCaptureErasBoundSlabs pins what a long run of publishes without a
// rebuild keeps alive. A dead capture in a live slab still points to the
// captures below it, and their slabs keep theirs, so without eras every
// node slab carved since the last rebuild would stay in use. An era ends
// after eraCaptures captures per node and the next publish recaptures the
// whole tree into fresh slabs, so a tree of n nodes keeps at most the
// slabs of two eras, (eraCaptures+1)·n captures each, plus the small
// slabs each era's carvers start with.
func TestCaptureErasBoundSlabs(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	// Deamortized and never compacted, the tree rebuilds only in the
	// flush that builds its skeleton.
	tree := NewBufferTree(aem.New(aem.Config{M: 128, B: 8, Omega: 2}))
	tree.Deamortize()
	const keys = 4096
	for i := 0; i < keys; i++ {
		tree.Apply([]Op{{Kind: Insert, Key: int64(i), Value: int64(i)}})
	}
	tree.Flush()
	var snap TreeSnapshot
	top := tree.top
	before := slabCounts()
	for i := 0; i < 40*keys; i++ {
		tree.Apply([]Op{{Kind: Insert, Key: int64(i * 7919 % keys), Value: int64(i)}})
		tree.FlushStep(1)
		tree.SnapshotInto(&snap)
	}
	if tree.top != top {
		t.Fatal("the tree rebuilt")
	}
	nodes := 0
	var count func(nd *btnode)
	count = func(nd *btnode) {
		nodes++
		for _, kid := range nd.kids {
			count(kid)
		}
	}
	count(tree.top)
	perEra := (eraCaptures+1)*nodes/slabNodes + 7 // 1, 2, 4, …, 64, then full slabs
	after := slabCounts()
	for _, kind := range []string{"node", "child list"} {
		made, inUse := after[kind].allocs-before[kind].allocs, after[kind].inUse
		t.Logf("%s slabs: %d carved over the stream, %d in use (tree of %d nodes)", kind, made, inUse, nodes)
		if made < 4*int64(perEra) {
			t.Fatalf("%s: the stream carved only %d slabs; it must outlast several eras", kind, made)
		}
		if inUse > int64(2*perEra) {
			t.Errorf("%s: %d slabs in use, want ≤ %d (two eras)", kind, inUse, 2*perEra)
		}
	}
	runtime.KeepAlive(tree)
}
