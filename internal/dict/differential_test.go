package dict

import (
	"testing"

	"repro/internal/aem"
	"repro/internal/rng"
)

// Differential test layer: long random operation streams are run through
// the dictionaries and an in-memory model map, at machine corner configs —
// including B = 1 (the ARAM of Blelloch et al.) and ω = 1 (the classic EM
// model). Every lookup and range answer must equal the model's. The
// buffer tree also runs a keyspace-1 stream in both commit modes: every
// op names the same key, so its buffers fill with duplicate items.

// diffStream builds a deterministic mixed stream exercising every op kind
// with heavy churn; op interleaving (not just burst structure) comes from
// the generator's RNG.
func diffStream(seed uint64, n int, keyspace int64) []Op {
	r := rng.New(seed)
	ops := make([]Op, 0, n)
	for len(ops) < n {
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			ops = append(ops, Op{Kind: Insert, Key: int64(r.Intn(int(keyspace))), Value: int64(r.Intn(1 << 16))})
		case 4, 5:
			ops = append(ops, Op{Kind: Delete, Key: int64(r.Intn(int(keyspace)))})
		case 6, 7, 8:
			ops = append(ops, Op{Kind: Lookup, Key: int64(r.Intn(int(keyspace)))})
		default:
			lo := int64(r.Intn(int(keyspace)))
			ops = append(ops, Op{Kind: RangeScan, Key: lo, Hi: lo + 1 + int64(r.Intn(64))})
		}
	}
	return ops
}

// diffConfig is one corner of the differential matrix.
type diffConfig struct {
	name     string
	cfg      aem.Config
	n        int
	keyspace int64
}

func diffConfigs(full bool) []diffConfig {
	n := 100000
	if !full {
		n = 12000
	}
	return []diffConfig{
		{"mainline", aem.Config{M: 256, B: 16, Omega: 8}, n, 2048},
		{"aram-B1", aem.Config{M: 32, B: 1, Omega: 8}, n / 4, 512},
		{"em-omega1", aem.Config{M: 64, B: 8, Omega: 1}, n / 2, 1024},
		{"write-averse", aem.Config{M: 128, B: 8, Omega: 64}, n / 2, 1024},
	}
}

// applyChunked feeds the stream in uneven client batches so batching
// boundaries are exercised too.
func applyChunked(d Dict, ops []Op, r *rng.RNG) []Result {
	var out []Result
	for i := 0; i < len(ops); {
		j := i + 1 + r.Intn(700)
		if j > len(ops) {
			j = len(ops)
		}
		out = append(out, d.Apply(ops[i:j])...)
		i = j
	}
	return out
}

func TestDifferentialBufferTreeVsModel(t *testing.T) {
	for _, dc := range diffConfigs(!testing.Short()) {
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			ops := diffStream(1000+uint64(dc.cfg.Omega), dc.n, dc.keyspace)
			md := newModel()
			want := md.apply(ops)

			ma := aem.New(dc.cfg)
			d := NewBufferTree(ma)
			results := applyChunked(d, ops, rng.New(17))
			d.Flush()
			sameResults(t, dc.name, results, want)
			if want := lenOf(md); d.Len() != want {
				t.Errorf("Len = %d, model has %d", d.Len(), want)
			}
			if ma.MemPeak() > dc.cfg.M {
				t.Errorf("memory peak %d exceeds M = %d", ma.MemPeak(), dc.cfg.M)
			}
			if ma.MemInUse() != dc.cfg.B { // the stage's lifetime reservation
				t.Errorf("%d slots still reserved after quiescence, want the stage's %d", ma.MemInUse(), dc.cfg.B)
			}

			for _, deam := range []bool{false, true} {
				t.Run("keyspace1/"+modeName(deam), func(t *testing.T) {
					diffDuplicates(t, dc, deam)
				})
			}
		})
	}
}

// diffDuplicates runs a keyspace-1 stream through a buffer tree in the
// given commit mode, one FlushStep(1) per client batch when deamortized,
// and holds its answers to the model.
func diffDuplicates(t *testing.T, dc diffConfig, deam bool) {
	ops := diffStream(4000+uint64(dc.cfg.Omega), dc.n, 1)
	want := newModel().apply(ops)
	ma := aem.New(dc.cfg)
	tree := NewBufferTree(ma)
	if deam {
		tree.Deamortize()
	}
	r := rng.New(31)
	var got []Result
	for i := 0; i < len(ops); {
		j := min(len(ops), i+1+r.Intn(700))
		got = append(got, tree.Apply(ops[i:j])...)
		i = j
		if deam {
			tree.FlushStep(1)
		}
	}
	tree.Flush()
	sameResults(t, dc.name+"/keyspace1/"+modeName(deam), got, want)
	if ma.MemPeak() > dc.cfg.M {
		t.Errorf("memory peak %d exceeds M = %d", ma.MemPeak(), dc.cfg.M)
	}
	if ma.MemInUse() != dc.cfg.B {
		t.Errorf("%d slots still reserved after quiescence, want the stage's %d", ma.MemInUse(), dc.cfg.B)
	}
}

// TestDifferentialSnapshotMarks proves the dirty marks complete: the
// differential streams run in both commit modes (amortized and
// deamortized), and a snapshot is published after every Apply,
// FlushStep, Compact and Flush — rebuilds happen inside those — and held
// to a capture that ignores every cache (checkPublish). A
// mutation site that forgot to mark its node leaves a stale chain in the
// published snapshot and fails here. Answers are held to the model too,
// which the default-mode differential test does not cover for the other
// modes.
func TestDifferentialSnapshotMarks(t *testing.T) {
	compacted := 0
	for _, dc := range diffConfigs(!testing.Short()) {
		for _, deam := range []bool{false, true} {
			t.Run(dc.name+"/"+modeName(deam), func(t *testing.T) {
				ops := diffStream(3000+uint64(dc.cfg.Omega), dc.n/8, dc.keyspace)
				want := newModel().apply(ops)
				tree := NewBufferTree(aem.New(dc.cfg))
				if deam {
					tree.Deamortize()
				}
				publish := func(step int, after string) {
					t.Helper()
					if err := checkPublish(tree); err != nil {
						t.Fatalf("step %d, after %s: %v", step, after, err)
					}
				}
				r := rng.New(29)
				var got []Result
				for i, step := 0, 0; i < len(ops); step++ {
					j := min(len(ops), i+1+r.Intn(8))
					got = append(got, tree.Apply(ops[i:j])...)
					i = j
					publish(step, "Apply")
					if deam {
						tree.FlushStep(1)
						publish(step, "FlushStep")
						if step%40 == 39 { // idle: retire the debt, then compact
							for tree.Debt() > 0 {
								tree.FlushStep(1)
								publish(step, "idle FlushStep")
							}
							if tree.Compact() {
								compacted++
							}
							publish(step, "Compact")
						}
					}
					if step%997 == 996 {
						tree.Flush()
						publish(step, "Flush")
					}
				}
				tree.Flush()
				publish(-1, "final Flush")
				sameResults(t, dc.name+"/"+modeName(deam), got, want)
			})
		}
	}
	if compacted == 0 {
		t.Error("no deamortized stream ever compacted; the check never saw a Compact rebuild")
	}
}

// TestDifferentialBTreeVsModel runs the same streams through the baseline
// (where its B ≥ 4 requirement allows) so the two dictionaries are pinned
// to each other as well as to the model.
func TestDifferentialBTreeVsModel(t *testing.T) {
	for _, dc := range diffConfigs(!testing.Short()) {
		if dc.cfg.B < 4 {
			continue
		}
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			ops := diffStream(2000+uint64(dc.cfg.Omega), dc.n, dc.keyspace)
			md := newModel()
			want := md.apply(ops)
			ma := aem.New(dc.cfg)
			d := NewBTree(ma)
			sameResults(t, dc.name, applyChunked(d, ops, rng.New(23)), want)
			if want := lenOf(md); d.Len() != want {
				t.Errorf("Len = %d, model has %d", d.Len(), want)
			}
			if ma.MemPeak() > dc.cfg.M {
				t.Errorf("memory peak %d exceeds M", ma.MemPeak())
			}
		})
	}
}
