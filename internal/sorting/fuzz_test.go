// Native Go fuzz target for the §3 mergesort: byte inputs decode into a
// machine corner and an item array (with deliberate duplicate items —
// splitmix-generated workloads never produce those, fuzzing does). Every
// execution checks correctness and that the measured cost stays inside
// the paper's bound corridor: above the §4 counting lower bound and below
// a constant multiple of the §3 predicted upper bound.
package sorting_test

import (
	"testing"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/sorting"
	"repro/internal/workload"
)

var fuzzSortConfigs = []aem.Config{
	{M: 64, B: 8, Omega: 4},
	{M: 128, B: 8, Omega: 64},
	{M: 32, B: 1, Omega: 16},
	{M: 64, B: 8, Omega: 1},
	{M: 256, B: 32, Omega: 2},
}

func decodeItems(data []byte) (aem.Config, []aem.Item) {
	if len(data) < 2 {
		return fuzzSortConfigs[0], nil
	}
	cfg := fuzzSortConfigs[int(data[0])%len(fuzzSortConfigs)]
	auxMod := int64(data[1]%8) + 1 // small Aux domains force duplicate items
	data = data[2:]
	if len(data) > 2*2048 {
		data = data[:2*2048]
	}
	items := make([]aem.Item, 0, len(data)/2)
	for i := 0; i+2 <= len(data); i += 2 {
		items = append(items, aem.Item{
			Key: int64(int16(uint16(data[i])<<8 | uint16(data[i+1]))),
			Aux: int64(i/2) % auxMod,
		})
	}
	return cfg, items
}

func FuzzMergeSortStats(f *testing.F) {
	for i, dist := range workload.Dists() {
		items := workload.Keys(workload.NewRNG(uint64(i)+40), dist, 800)
		data := []byte{byte(i), byte(i * 3)}
		for _, it := range items {
			data = append(data, byte(uint16(it.Key)>>8), byte(it.Key))
		}
		f.Add(data)
	}
	f.Add([]byte{2, 0, 1, 1, 1, 1, 1, 1}) // tiny duplicate-heavy input

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, items := decodeItems(data)
		if len(items) == 0 {
			return
		}
		ma := aem.New(cfg)
		out := sorting.MergeSort(ma, aem.Load(ma, items)).Materialize()
		if !sorting.IsSorted(out) {
			t.Fatal("output not sorted")
		}
		if !sorting.SameMultiset(items, out) {
			t.Fatal("output multiset differs from input")
		}
		if ma.MemPeak() > cfg.M {
			t.Fatalf("memory peak %d exceeds M = %d", ma.MemPeak(), cfg.M)
		}

		p := bounds.Params{N: len(items), Cfg: cfg}
		lb := bounds.CountingLowerBound(bounds.Params{N: len(items),
			Cfg: aem.Config{M: 2 * cfg.M, B: cfg.B, Omega: cfg.Omega}})
		if float64(ma.Cost()) < lb {
			t.Fatalf("cost %d beats the counting lower bound %.0f — accounting broken", ma.Cost(), lb)
		}
		pred := bounds.MergeSortPredicted(p).Cost(cfg.Omega)
		slack := 10*pred + 100*float64(cfg.Omega*cfg.BlocksInMemory())
		if float64(ma.Cost()) > slack {
			t.Fatalf("cost %d blows the predicted corridor (%.0f)", ma.Cost(), slack)
		}
	})
}
