package dict

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/aem"
	"repro/internal/rng"
)

// TestRecycleKeepsAccounting runs one stream through a bare tree and a
// recycling one, at every differential corner and in both flush modes.
// The recycling tree's owner keeps one snapshot at a time: after each
// client batch it takes the retired blocks, captures a new snapshot,
// drops the old one and hands the blocks back. Then:
//
//   - both trees answer alike and do the same I/O, block for block in
//     count: a rewritten address is billed like a fresh one;
//   - no retired block is reachable from the live tree, and none is
//     retired twice before it is handed back;
//   - the held snapshot, read after the next batch has rewritten the
//     blocks handed back, still answers as the model did at its capture;
//   - the recycling tree stores fewer blocks once the stream has flushed.
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
	bareMa, recMa := aem.New(dc.cfg), aem.New(dc.cfg)
	bare, rec := NewBufferTree(bareMa), NewBufferTree(recMa)
	if deam {
		bare.Deamortize()
		rec.Deamortize()
	}
	rec.Recycle()
	ops := diffStream(5, dc.n, dc.keyspace)
	r := rng.New(6)
	model := map[int64]int64{}
	var snap *TreeSnapshot
	var snapModel map[int64]int64
	var retired []aem.Addr
	for i := 0; i < len(ops); {
		j := min(len(ops), i+1+r.Intn(400))
		batch := ops[i:j]
		i = j
		want, got := bare.Apply(batch), rec.Apply(batch)
		if deam {
			bare.FlushStep(2)
			rec.FlushStep(2)
			bare.Compact()
			rec.Compact()
		}
		if !slices.EqualFunc(want, got, func(a, b Result) bool {
			return a.OK == b.OK && a.Value == b.Value && slices.Equal(a.Hits, b.Hits)
		}) {
			t.Fatalf("batch ending at op %d: recycling tree answers differ from the bare tree's", j)
		}
		for _, op := range batch {
			switch op.Kind {
			case Insert:
				model[op.Key] = op.Value
			case Delete:
				delete(model, op.Key)
			}
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
		snap, snapModel = rec.Snapshot(), maps.Clone(model)
		rec.Reuse(retired)
	}
	if b, g := bareMa.Stats(), recMa.Stats(); b != g {
		t.Fatalf("recycling moved the I/O: bare %+v, recycling %+v", b, g)
	}
	// A stream that never flushes lets go of no block.
	if flushed := bare.NodeFlushes() > 0; recMa.NumBlocks() > bareMa.NumBlocks() ||
		flushed && (rec.ReusedBlocks() == 0 || recMa.NumBlocks() == bareMa.NumBlocks()) {
		t.Fatalf("recycling tree stores %d blocks after %d reuses, bare tree %d", recMa.NumBlocks(), rec.ReusedBlocks(), bareMa.NumBlocks())
	}
	t.Logf("bare tree %d blocks, recycling tree %d (%d writes reused a block)", bareMa.NumBlocks(), recMa.NumBlocks(), rec.ReusedBlocks())
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
