package dict

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/aem"
	"repro/internal/rng"
)

// TestRecycleKeepsAccounting runs one stream through two trees, at every
// differential corner and in both flush modes. Both publish a snapshot
// after each client batch. The first tree's owner keeps one snapshot at a
// time: it takes the retired blocks, captures a new snapshot, drops the
// old one and hands the blocks back. The second tree's owner never takes
// them, so it rewrites only blocks no capture held. Then:
//
//   - the first tree answers as the model does;
//   - both trees do the same I/O: a rewritten address is billed like a
//     fresh one (TestFlushAccountingFingerprint pins what that I/O is);
//   - no retired block is reachable from the live tree, and none is
//     retired twice before it is handed back;
//   - the held snapshot, read after the next batch has rewritten the
//     blocks handed back, still answers as the model did at its capture;
//   - once the stream has flushed, the first tree has reused blocks and
//     stores fewer than the second.
func TestRecycleKeepsAccounting(t *testing.T) {
	for _, dc := range diffConfigs(false) {
		for _, deam := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%s", dc.name, modeName(deam)), func(t *testing.T) {
				runRecycle(t, dc, deam)
			})
		}
	}
}

func runRecycle(t *testing.T, dc diffConfig, deam bool) {
	recMa, keepMa := aem.New(dc.cfg), aem.New(dc.cfg)
	rec, keep := NewBufferTree(recMa), NewBufferTree(keepMa)
	if deam {
		rec.Deamortize()
		keep.Deamortize()
	}
	ops := diffStream(5, dc.n, dc.keyspace)
	r := rng.New(6)
	md := newModel()
	var snap *TreeSnapshot
	var snapModel map[int64]int64
	var retired []aem.Addr
	for i := 0; i < len(ops); {
		j := min(len(ops), i+1+r.Intn(400))
		batch := ops[i:j]
		i = j
		want := md.apply(batch)
		sameResults(t, fmt.Sprintf("batch ending at op %d", j), rec.Apply(batch), want)
		keep.Apply(batch)
		if deam {
			rec.FlushStep(2)
			keep.FlushStep(2)
			rec.Compact()
			keep.Compact()
		}
		if snap != nil {
			checkSnapshot(t, snap, recMa, snapModel, dc.keyspace, r)
		}

		retired = rec.TakeRetired(retired[:0])
		live := reachable(rec)
		seen := map[aem.Addr]bool{}
		for _, a := range retired {
			if live[a] || seen[a] {
				t.Fatalf("block %d retired while reachable (%v) or twice (%v)", a, live[a], seen[a])
			}
			seen[a] = true
		}
		snap, snapModel = rec.Snapshot(), maps.Clone(md.m)
		keep.Snapshot()
		rec.Reuse(retired)
	}
	if g, k := recMa.Stats(), keepMa.Stats(); g != k {
		t.Fatalf("reuse moved the I/O: %+v, undrained tree %+v", g, k)
	}
	// A stream that never flushes lets go of no block.
	if flushed := rec.NodeFlushes() > 0; recMa.NumBlocks() > keepMa.NumBlocks() ||
		flushed && (rec.ReusedBlocks() == 0 || recMa.NumBlocks() == keepMa.NumBlocks()) {
		t.Fatalf("tree stores %d blocks after %d reuses, undrained tree %d", recMa.NumBlocks(), rec.ReusedBlocks(), keepMa.NumBlocks())
	}
	t.Logf("drained tree %d blocks (%d writes reused a block), undrained tree %d", recMa.NumBlocks(), rec.ReusedBlocks(), keepMa.NumBlocks())
}

// checkSnapshot probes a held snapshot with lookups and one range scan
// against the model at its capture.
func checkSnapshot(t *testing.T, s *TreeSnapshot, ma *aem.Machine, model map[int64]int64, keyspace int64, r *rng.RNG) {
	t.Helper()
	rd := machineReader{ma}
	for p := 0; p < 8; p++ {
		k := int64(r.Intn(int(keyspace)))
		v, ok, _ := s.Get(rd, k, nil)
		if want, wantOK := model[k]; ok != wantOK || v != want {
			t.Fatalf("held snapshot: Get(%d) = (%d, %v), model (%d, %v)", k, v, ok, want, wantOK)
		}
	}
	lo := int64(r.Intn(int(keyspace)))
	hi := lo + 1 + int64(r.Intn(128))
	hits, _ := s.Range(rd, lo, hi)
	n := 0
	for k := lo; k < hi; k++ {
		if _, ok := model[k]; ok {
			n++
		}
	}
	if len(hits) != n {
		t.Fatalf("held snapshot: Range(%d, %d) has %d hits, model %d", lo, hi, len(hits), n)
	}
	for _, h := range hits {
		if v, ok := model[h.Key]; !ok || v != h.Value {
			t.Fatalf("held snapshot: Range(%d, %d) hit %v, model (%d, %v)", lo, hi, h, v, ok)
		}
	}
}

// reachable returns the set of blocks the live tree holds.
func reachable(t *BufferTree) map[aem.Addr]bool {
	out := map[aem.Addr]bool{}
	for _, a := range t.ReachableBlocks(nil) {
		out[a] = true
	}
	return out
}
