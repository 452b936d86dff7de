// Native Go fuzz target for the dictionary layer: byte inputs decode into
// an operation stream plus a machine corner, and every decoded stream is
// run through the buffer tree on both data-bearing engines and an
// in-memory model map (plus the B-tree baseline where its B ≥ 4 minimum
// allows). The seed corpus comes from the workload generators, so fuzzing
// starts from realistic uniform/zipf/burst/churn traffic and mutates from
// there. Each stream also runs in both commit modes with a snapshot
// published after every step, held to a capture that ignores every cache.
//
// The file lives in the external test package: the workload generators
// import dict, so an in-package test importing workload would be an
// import cycle.
package dict_test

import (
	"testing"

	"repro/internal/aem"
	"repro/internal/aem/aemtest"
	"repro/internal/dict"
	"repro/internal/workload"
)

// fuzzConfigs are the machine corners the fuzzer cycles through; they
// include B = 1 (ARAM) and ω = 1 (symmetric EM).
var fuzzConfigs = []aem.Config{
	{M: 64, B: 8, Omega: 4},
	{M: 256, B: 16, Omega: 16},
	{M: 32, B: 1, Omega: 8},
	{M: 64, B: 8, Omega: 1},
}

const fuzzKeyspace = 1 << 10

// decodeOps turns fuzz bytes into a machine config and an op stream: one
// leading config byte, then 4 bytes per op (kind, key-low, key-high,
// value). The stream length is capped to keep individual fuzz executions
// fast (alternating single-op update/query segments make buffer scans
// quadratic in the stream length, by design).
func decodeOps(data []byte) (aem.Config, []dict.Op) {
	if len(data) == 0 {
		return fuzzConfigs[0], nil
	}
	cfg := fuzzConfigs[int(data[0])%len(fuzzConfigs)]
	data = data[1:]
	if len(data) > 4*512 {
		data = data[:4*512]
	}
	var ops []dict.Op
	for i := 0; i+4 <= len(data); i += 4 {
		key := int64(data[i+1]) | int64(data[i+2]&3)<<8
		val := int64(data[i+3])
		switch data[i] % 4 {
		case 0:
			ops = append(ops, dict.Op{Kind: dict.Insert, Key: key, Value: val})
		case 1:
			ops = append(ops, dict.Op{Kind: dict.Delete, Key: key})
		case 2:
			ops = append(ops, dict.Op{Kind: dict.Lookup, Key: key})
		default:
			ops = append(ops, dict.Op{Kind: dict.RangeScan, Key: key, Hi: key + 1 + val%64})
		}
	}
	return cfg, ops
}

// encodeOps is decodeOps's inverse for seeding the corpus from generated
// workloads.
func encodeOps(cfgIdx byte, ops []dict.Op) []byte {
	out := []byte{cfgIdx}
	for _, op := range ops {
		var kind byte
		switch op.Kind {
		case dict.Insert:
			kind = 0
		case dict.Delete:
			kind = 1
		case dict.Lookup:
			kind = 2
		case dict.RangeScan:
			kind = 3
		}
		key := op.Key % fuzzKeyspace
		out = append(out, kind, byte(key), byte(key>>8), byte(op.Value%256))
	}
	return out
}

// fuzzModel is the in-memory reference.
type fuzzModel map[int64]int64

func (m fuzzModel) apply(ops []dict.Op) []dict.Result {
	var out []dict.Result
	for _, op := range ops {
		switch op.Kind {
		case dict.Insert:
			m[op.Key] = op.Value
		case dict.Delete:
			delete(m, op.Key)
		case dict.Lookup:
			v, ok := m[op.Key]
			out = append(out, dict.Result{OK: ok, Value: v})
		case dict.RangeScan:
			var hits []dict.Found
			for k := op.Key; k < op.Hi; k++ {
				if v, ok := m[k]; ok {
					hits = append(hits, dict.Found{Key: k, Value: v})
				}
			}
			out = append(out, dict.Result{Hits: hits})
		}
	}
	return out
}

func FuzzDictOps(f *testing.F) {
	for i, sc := range workload.Scenarios() {
		ops := workload.DictOps(workload.NewRNG(uint64(i)+1), sc, 500, fuzzKeyspace)
		f.Add(encodeOps(byte(i), ops))
	}
	f.Add([]byte{2, 0, 5, 0, 9, 2, 5, 0, 0, 1, 5, 0, 0, 2, 5, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ops := decodeOps(data)
		want := fuzzModel{}.apply(ops)

		var ref aem.Stats
		var refCost int64
		for ei, e := range aemtest.DataEngines() {
			ma := aemtest.Machine(t, cfg, e)
			d := dict.NewBufferTree(ma)
			got := d.Apply(ops)
			d.Flush()
			compareResults(t, got, want)
			if ma.MemPeak() > cfg.M {
				t.Fatalf("%s engine: memory peak %d exceeds M = %d", e.Name, ma.MemPeak(), cfg.M)
			}
			if ei == 0 {
				ref, refCost = ma.Stats(), ma.Cost()
			} else if ma.Stats() != ref || ma.Cost() != refCost {
				t.Fatalf("engines disagree on accounting: %+v cost %d vs %+v cost %d",
					ma.Stats(), ma.Cost(), ref, refCost)
			}
		}

		// Every commit mode, publishing after every Apply, FlushStep,
		// Compact and Flush as a serving committer does. Batch sizes and
		// idle points come from the ops themselves.
		for _, deam := range []bool{false, true} {
			d := dict.NewBufferTree(aem.New(cfg))
			if deam {
				d.Deamortize()
			}
			publish := func(after string) {
				if err := dict.CheckPublish(d); err != nil {
					t.Fatalf("deamortized %v, after %s: %v", deam, after, err)
				}
			}
			var got []dict.Result
			for i := 0; i < len(ops); {
				j := min(len(ops), i+1+int(ops[i].Value%8))
				got = append(got, d.Apply(ops[i:j])...)
				i = j
				publish("Apply")
				if !deam {
					continue
				}
				d.FlushStep(1)
				publish("FlushStep")
				if ops[j-1].Key%5 == 0 { // idle: retire the debt, then compact
					for d.Debt() > 0 {
						d.FlushStep(1)
					}
					publish("idle FlushStep")
					d.Compact()
					publish("Compact")
				}
			}
			d.Flush()
			publish("Flush")
			compareResults(t, got, want)
		}

		if cfg.B >= 4 {
			ma := aem.New(cfg)
			compareResults(t, dict.NewBTree(ma).Apply(ops), want)
			if ma.MemPeak() > cfg.M {
				t.Fatalf("btree: memory peak %d exceeds M = %d", ma.MemPeak(), cfg.M)
			}
		}
	})
}

func compareResults(t *testing.T, got, want []dict.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].OK != want[i].OK || got[i].Value != want[i].Value || len(got[i].Hits) != len(want[i].Hits) {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
		for j := range got[i].Hits {
			if got[i].Hits[j] != want[i].Hits[j] {
				t.Fatalf("result %d hit %d: got %+v, want %+v", i, j, got[i].Hits[j], want[i].Hits[j])
			}
		}
	}
}
