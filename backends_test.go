// Cross-backend integration: every storage engine must leave the cost
// model untouched. The data-bearing engines (the slice reference and the
// mmap file engine, which stores blocks in its own way) must agree on
// outputs *and* I/O accounting for every algorithm in the repository; the
// counting engine must agree on accounting for data-oblivious programs,
// which is all it exists for.
package repro

import (
	"testing"

	"repro/internal/aem"
	"repro/internal/aem/aemtest"
	"repro/internal/dict"
	"repro/internal/permute"
	"repro/internal/pq"
	"repro/internal/sorting"
	"repro/internal/spmxv"
	"repro/internal/workload"
)

// TestAlgorithmsIdenticalAcrossDataBackends is the conformance suite at
// algorithm level: identical outputs, Stats, Cost, phase totals and
// internal-memory peaks on every data-bearing engine, for every algorithm
// family in the repository.
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
			// across engines too.
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
			// across engines too.
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
			var ref *outcome
			for _, e := range aemtest.DataEngines() {
				engine, ma := e.Name, aemtest.Machine(t, cfg, e)
				got := outcome{out: alg.run(ma), stats: ma.Stats(),
					cost: ma.Cost(), peak: ma.MemPeak(), blocks: ma.NumBlocks()}
				if ref == nil {
					ref = &got
					continue
				}
				if got.stats != ref.stats {
					t.Errorf("%s: stats %+v != reference %+v", engine, got.stats, ref.stats)
				}
				if got.cost != ref.cost {
					t.Errorf("%s: cost %d != reference %d", engine, got.cost, ref.cost)
				}
				if got.peak != ref.peak {
					t.Errorf("%s: memory peak %d != reference %d", engine, got.peak, ref.peak)
				}
				if got.blocks != ref.blocks {
					t.Errorf("%s: allocated %d blocks != reference %d", engine, got.blocks, ref.blocks)
				}
				if len(got.out) != len(ref.out) {
					t.Fatalf("%s: output length %d != reference %d", engine, len(got.out), len(ref.out))
				}
				for i := range got.out {
					if got.out[i] != ref.out[i] {
						t.Fatalf("%s: outputs differ at %d: %v != %v", engine, i, got.out[i], ref.out[i])
					}
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
// must produce identical accounting on the counting engine, which moves no
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
			}
			var refName string
			var ref acct
			for _, e := range aem.Engines() {
				name, ma := e.Name, aemtest.Machine(t, cfg, e)
				p.run(ma)
				got := acct{ma.Stats(), ma.Cost(), ma.MemPeak(), ma.NumBlocks()}
				if refName == "" {
					refName, ref = name, got
					continue
				}
				if got != ref {
					t.Errorf("%s: %+v != %s reference %+v", name, got, refName, ref)
				}
			}
		})
	}
}
