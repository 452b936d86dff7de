// Cross-backend integration: every algorithm in the repository honours
// the Storage.Discard contract, so an engine that keeps discarded blocks
// must agree with the slice engine on outputs and I/O accounting; and a
// data-oblivious program accounts the same on an engine that stores no
// values at all.
package repro

import (
	"slices"
	"testing"

	"repro/internal/aem"
	"repro/internal/dict"
	"repro/internal/permute"
	"repro/internal/pq"
	"repro/internal/sorting"
	"repro/internal/spmxv"
	"repro/internal/workload"
)

// keepDiscarded is the slice engine with a Discard that does nothing: a
// discarded block keeps its contents instead of reading back empty, and
// its memory is never reused for another block.
type keepDiscarded struct{ aem.Storage }

func (keepDiscarded) Discard(aem.Addr, int) {}

// countingBackend is the slice engine storing zero items in place of the
// ones written: it keeps every block's length, so it counts I/Os like the
// slice engine, but it moves no data.
type countingBackend struct{ aem.Storage }

func (s countingBackend) Write(a aem.Addr, items []aem.Item) {
	s.Storage.Write(a, make([]aem.Item, len(items)))
}

// TestAlgorithmsIdenticalAcrossDataBackends is the Discard contract at
// algorithm level: identical outputs, Stats, Cost, internal-memory peaks
// and block counts on the slice engine and on keepDiscarded, for every
// algorithm family in the repository. The two engines differ only in
// what a discarded block reads back and in whose memory a later Write
// lands, so an algorithm that reads a block it discarded before writing
// it again shows up here.
func TestAlgorithmsIdenticalAcrossDataBackends(t *testing.T) {
	cfg := aem.Config{M: 128, B: 8, Omega: 8}
	const n = 1 << 12
	in := workload.Keys(workload.NewRNG(77), workload.Random, n)
	items, perm := workload.Permutation(workload.NewRNG(78), n)

	rng := workload.NewRNG(79)
	conf := workload.NewConformation(rng, 256, 4)
	values := make([]int64, conf.H())
	x := make([]int64, 256)
	for i := range values {
		values[i] = int64(rng.Intn(50))
	}
	for i := range x {
		x[i] = int64(rng.Intn(50))
	}

	algs := []struct {
		name string
		run  func(ma *aem.Machine) []aem.Item
	}{
		{"mergesort", func(ma *aem.Machine) []aem.Item {
			return sorting.MergeSort(ma, aem.Load(ma, in)).Materialize()
		}},
		{"em-mergesort", func(ma *aem.Machine) []aem.Item {
			return sorting.EMMergeSort(ma, aem.Load(ma, in)).Materialize()
		}},
		{"samplesort", func(ma *aem.Machine) []aem.Item {
			return sorting.EMSampleSort(ma, aem.Load(ma, in), 5).Materialize()
		}},
		{"smallsort", func(ma *aem.Machine) []aem.Item {
			return sorting.SmallSort(ma, aem.Load(ma, in[:cfg.M*4])).Materialize()
		}},
		{"heapsort", func(ma *aem.Machine) []aem.Item {
			return pq.HeapSort(ma, aem.Load(ma, in)).Materialize()
		}},
		{"permute-direct", func(ma *aem.Machine) []aem.Item {
			return permute.Direct(ma, aem.Load(ma, items), perm).Materialize()
		}},
		{"permute-sort", func(ma *aem.Machine) []aem.Item {
			return permute.SortBased(ma, aem.Load(ma, items)).Materialize()
		}},
		{"spmxv-naive", func(ma *aem.Machine) []aem.Item {
			m := spmxv.NewMatrix(ma, conf, values)
			return spmxv.Naive(ma, m, spmxv.LoadDense(ma, x)).Materialize()
		}},
		{"spmxv-sort", func(ma *aem.Machine) []aem.Item {
			m := spmxv.NewMatrix(ma, conf, values)
			return spmxv.SortBased(ma, m, spmxv.LoadDense(ma, x)).Materialize()
		}},
		{"spmxv-banded", func(ma *aem.Machine) []aem.Item {
			banded := workload.BandedConformation(256, 3)
			m := spmxv.NewMatrix(ma, banded, values[:banded.H()])
			return spmxv.Naive(ma, m, spmxv.LoadDense(ma, x)).Materialize()
		}},
		{"permute-best", func(ma *aem.Machine) []aem.Item {
			out, _ := permute.Best(ma, aem.Load(ma, items), perm)
			return out.Materialize()
		}},
		{"pq-interleaved", func(ma *aem.Machine) []aem.Item {
			// Interleaved Push/DeleteMin lifecycle, not just the HeapSort
			// wrapper: the queue's run compactions must be byte-identical
			// on both engines.
			q := pq.New(ma)
			var out []aem.Item
			for i, it := range in[:1024] {
				q.Push(it)
				if i%3 == 2 {
					got, ok := q.DeleteMin()
					if !ok {
						panic("pq: empty during interleave")
					}
					out = append(out, got)
				}
			}
			for {
				got, ok := q.DeleteMin()
				if !ok {
					break
				}
				out = append(out, got)
			}
			q.Close()
			return out
		}},
		{"pq-adaptive-interleaved", func(ma *aem.Machine) []aem.Item {
			// Same lifecycle through the ω-adaptive queue: buffer appends,
			// selection scans, folds and lazy merges must be byte-identical
			// on both engines.
			q := pq.NewAdaptive(ma)
			var out []aem.Item
			for i, it := range in[:1024] {
				q.Push(it)
				if i%3 == 2 {
					got, ok := q.DeleteMin()
					if !ok {
						panic("pq: empty during interleave")
					}
					out = append(out, got)
				}
			}
			for {
				got, ok := q.DeleteMin()
				if !ok {
					break
				}
				out = append(out, got)
			}
			q.Close()
			return out
		}},
		{"dict-buffertree", func(ma *aem.Machine) []aem.Item {
			return dictConformanceRun(dict.NewBufferTree(ma))
		}},
		{"dict-btree", func(ma *aem.Machine) []aem.Item {
			return dictConformanceRun(dict.NewBTree(ma))
		}},
	}

	for _, alg := range algs {
		t.Run(alg.name, func(t *testing.T) {
			type outcome struct {
				out    []aem.Item
				stats  aem.Stats
				cost   int64
				peak   int
				blocks int
			}
			run := func(ma *aem.Machine) outcome {
				return outcome{out: alg.run(ma), stats: ma.Stats(),
					cost: ma.Cost(), peak: ma.MemPeak(), blocks: ma.NumBlocks()}
			}
			ref := run(aem.New(cfg))
			got := run(aem.NewWithStorage(cfg, keepDiscarded{aem.NewSliceStorage()}))
			if got.stats != ref.stats {
				t.Errorf("keepDiscarded: stats %+v != slice %+v", got.stats, ref.stats)
			}
			if got.cost != ref.cost {
				t.Errorf("keepDiscarded: cost %d != slice %d", got.cost, ref.cost)
			}
			if got.peak != ref.peak {
				t.Errorf("keepDiscarded: memory peak %d != slice %d", got.peak, ref.peak)
			}
			if got.blocks != ref.blocks {
				t.Errorf("keepDiscarded: allocated %d blocks != slice %d", got.blocks, ref.blocks)
			}
			if len(got.out) != len(ref.out) {
				t.Fatalf("keepDiscarded: output length %d != slice %d", len(got.out), len(ref.out))
			}
			for i := range got.out {
				if got.out[i] != ref.out[i] {
					t.Fatalf("keepDiscarded: outputs differ at %d: %v != %v", i, got.out[i], ref.out[i])
				}
			}
		})
	}
}

// dictConformanceRun drives a dictionary through a mixed op stream and
// serializes its answers and final contents as items, so dictionary runs
// plug into the same output-and-Stats conformance harness as the bulk
// algorithms.
func dictConformanceRun(d dict.Dict) []aem.Item {
	ops := workload.DictOps(workload.NewRNG(81), workload.UniformOps, 6000, 1024)
	var out []aem.Item
	for _, res := range d.Apply(ops) {
		if res.OK {
			out = append(out, aem.Item{Key: 1, Aux: res.Value})
		}
		for _, hit := range res.Hits {
			out = append(out, aem.Item{Key: hit.Key, Aux: hit.Value})
		}
	}
	d.Flush()
	final := d.Apply([]dict.Op{{Kind: dict.RangeScan, Key: 0, Hi: 1 << 30}})
	for _, hit := range final[0].Hits {
		out = append(out, aem.Item{Key: hit.Key, Aux: hit.Value})
	}
	return out
}

// TestCountingBackendMatchesObliviousPrograms: programs whose I/O schedule
// depends only on program knowledge (lengths, addresses, the permutation)
// must produce identical accounting on countingBackend, which moves no
// data at all. permute.Direct is the paper's canonical such program; the
// naive SpMxV program's schedule is its conformation, which the program
// knows for free.
func TestCountingBackendMatchesObliviousPrograms(t *testing.T) {
	cfg := aem.Config{M: 64, B: 8, Omega: 16}
	const n = 1 << 10
	items, perm := workload.Permutation(workload.NewRNG(80), n)
	conf := workload.NewConformation(workload.NewRNG(81), 512, 4)
	values, x := make([]int64, conf.H()), make([]int64, 512)
	for i := range values {
		values[i] = int64(i%100 - 50)
	}
	for i := range x {
		x[i] = int64(i % 7)
	}

	programs := []struct {
		name string
		run  func(ma *aem.Machine)
	}{
		{"permute-direct", func(ma *aem.Machine) {
			permute.Direct(ma, aem.Load(ma, items), perm)
		}},
		{"scan-copy", func(ma *aem.Machine) {
			v := aem.Load(ma, items)
			out := aem.NewVector(ma, v.Len())
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
		}},
		{"spmxv-naive", func(ma *aem.Machine) {
			spmxv.Naive(ma, spmxv.NewMatrix(ma, conf, values), spmxv.LoadDense(ma, x))
		}},
	}

	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			type acct struct {
				stats              aem.Stats
				cost               int64
				memPeak, numBlocks int
				trace              []aem.TraceOp
			}
			run := func(store aem.Storage) acct {
				ma := aem.NewWithStorage(cfg, store)
				ma.StartTrace()
				p.run(ma)
				return acct{ma.Stats(), ma.Cost(), ma.MemPeak(), ma.NumBlocks(), ma.StopTrace()}
			}
			got, want := run(countingBackend{aem.NewSliceStorage()}), run(aem.NewSliceStorage())
			if got.stats != want.stats || got.cost != want.cost ||
				got.memPeak != want.memPeak || got.numBlocks != want.numBlocks {
				t.Errorf("counting: %+v %d %d %d != slice reference %+v %d %d %d",
					got.stats, got.cost, got.memPeak, got.numBlocks,
					want.stats, want.cost, want.memPeak, want.numBlocks)
			}
			if !slices.Equal(got.trace, want.trace) {
				t.Errorf("counting: trace of %d ops differs from the slice reference's %d", len(got.trace), len(want.trace))
			}
			if want.stats.Reads == 0 || want.stats.Writes == 0 {
				t.Errorf("program did no I/O: %+v", want.stats)
			}
		})
	}
}
