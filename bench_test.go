// Package repro's benchmark harness: one testing.B benchmark per
// experiment in the index of README.md ("Experiments"). The benchmarks
// measure simulator wall time, and every iteration also reports the
// model-level metrics the paper is about (AEM cost, I/O counts) via
// b.ReportMetric, so `go test -bench` regenerates the per-experiment
// numbers alongside timing.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/flash"
	"repro/internal/permute"
	"repro/internal/pq"
	"repro/internal/program"
	"repro/internal/sorting"
	"repro/internal/spmxv"
	"repro/internal/trace"
	"repro/internal/workload"
)

// EXP-M1: Theorem 3.2, merging ωm runs.
func BenchmarkMergeRuns(b *testing.B) {
	for _, w := range []int{1, 8, 64} {
		cfg := aem.Config{M: 128, B: 8, Omega: w}
		const n = 1 << 13
		b.Run(fmt.Sprintf("omega=%d", w), func(b *testing.B) {
			// MergeRuns does not mutate its inputs, so the runs are built
			// once and re-merged every iteration; per-iteration cost is
			// taken as a stats delta.
			ma := aem.New(cfg)
			runs := makeSortedRuns(ma, n, cfg.MergeFanout())
			b.ReportAllocs()
			b.ResetTimer()
			var cost int64
			for i := 0; i < b.N; i++ {
				before := ma.Stats()
				sorting.MergeRuns(ma, runs, sorting.MergeOptions{})
				cost = ma.Stats().Sub(before).Cost(cfg.Omega)
			}
			b.ReportMetric(float64(cost), "aem-cost")
			nb := float64(cfg.BlocksOf(n))
			mb := float64(cfg.BlocksInMemory())
			b.ReportMetric(float64(cost)/(float64(w)*(nb+mb)), "cost/(w(n+m))")
		})
	}
}

// EXP-S1: Section 3 mergesort scaling.
func BenchmarkMergeSort(b *testing.B) {
	cfg := aem.Config{M: 128, B: 8, Omega: 8}
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			in := workload.Keys(workload.NewRNG(1), workload.Random, n)
			b.ReportAllocs()
			var cost int64
			for i := 0; i < b.N; i++ {
				ma := aem.New(cfg)
				v := aem.Load(ma, in)
				sorting.MergeSort(ma, v)
				cost = ma.Cost()
			}
			pred := bounds.MergeSortPredicted(bounds.Params{N: n, Cfg: cfg}).Cost(cfg.Omega)
			b.ReportMetric(float64(cost), "aem-cost")
			b.ReportMetric(float64(cost)/pred, "meas/pred")
		})
	}
}

// EXP-S2: AEM vs EM mergesort across ω.
func BenchmarkSortComparison(b *testing.B) {
	const n = 1 << 14
	in := workload.Keys(workload.NewRNG(2), workload.Random, n)
	for _, w := range []int{1, 16, 128} {
		cfg := aem.Config{M: 128, B: 8, Omega: w}
		b.Run(fmt.Sprintf("aem/omega=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var cost int64
			for i := 0; i < b.N; i++ {
				ma := aem.New(cfg)
				sorting.MergeSort(ma, aem.Load(ma, in))
				cost = ma.Cost()
			}
			b.ReportMetric(float64(cost), "aem-cost")
		})
		b.Run(fmt.Sprintf("em/omega=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var cost int64
			for i := 0; i < b.N; i++ {
				ma := aem.New(cfg)
				sorting.EMMergeSort(ma, aem.Load(ma, in))
				cost = ma.Cost()
			}
			b.ReportMetric(float64(cost), "aem-cost")
		})
	}
}

// EXP-S2 (cont.): the distribution-sort baseline.
func BenchmarkSampleSort(b *testing.B) {
	const n = 1 << 14
	in := workload.Keys(workload.NewRNG(10), workload.Random, n)
	cfg := aem.Config{M: 128, B: 8, Omega: 16}
	b.ReportAllocs()
	var cost int64
	for i := 0; i < b.N; i++ {
		ma := aem.New(cfg)
		sorting.EMSampleSort(ma, aem.Load(ma, in), 1)
		cost = ma.Cost()
	}
	b.ReportMetric(float64(cost), "aem-cost")
}

// EXP-S2 (cont.): the sequence-heap heapsort baseline.
func BenchmarkHeapSort(b *testing.B) {
	const n = 1 << 13
	in := workload.Keys(workload.NewRNG(12), workload.Random, n)
	cfg := aem.Config{M: 256, B: 8, Omega: 16}
	b.ReportAllocs()
	var cost int64
	for i := 0; i < b.N; i++ {
		ma := aem.New(cfg)
		pq.HeapSort(ma, aem.Load(ma, in))
		cost = ma.Cost()
	}
	b.ReportMetric(float64(cost), "aem-cost")
}

// EXP-Q1: the ω-adaptive buffered heapsort on the same input/machine.
func BenchmarkAdaptiveHeapSort(b *testing.B) {
	const n = 1 << 13
	in := workload.Keys(workload.NewRNG(12), workload.Random, n)
	cfg := aem.Config{M: 256, B: 8, Omega: 16}
	b.ReportAllocs()
	var cost int64
	for i := 0; i < b.N; i++ {
		ma := aem.New(cfg)
		pq.AdaptiveHeapSort(ma, aem.Load(ma, in))
		cost = ma.Cost()
	}
	b.ReportMetric(float64(cost), "aem-cost")
}

// EXP-R2: Lemma 4.1 on a recorded mergesort trace.
func BenchmarkTraceConversion(b *testing.B) {
	cfg := aem.Config{M: 64, B: 8, Omega: 8}
	ma := aem.New(cfg)
	ma.StartTrace()
	in := workload.Keys(workload.NewRNG(11), workload.Random, 1<<12)
	sorting.MergeSort(ma, aem.Load(ma, in))
	ops := ma.StopTrace()
	b.ReportAllocs()
	var factor float64
	for i := 0; i < b.N; i++ {
		factor = trace.Convert(ops, cfg).Factor()
	}
	b.ReportMetric(factor, "cost-factor")
}

// EXP-B1: the [7, Lemma 4.2] base case.
func BenchmarkSmallSort(b *testing.B) {
	for _, w := range []int{1, 8, 32} {
		cfg := aem.Config{M: 256, B: 16, Omega: w}
		n := w * cfg.M // the largest legal base case
		b.Run(fmt.Sprintf("omega=%d", w), func(b *testing.B) {
			in := workload.Keys(workload.NewRNG(3), workload.Random, n)
			b.ReportAllocs()
			var st aem.Stats
			for i := 0; i < b.N; i++ {
				ma := aem.New(cfg)
				sorting.SmallSort(ma, aem.Load(ma, in))
				st = ma.Stats()
			}
			nb := float64(cfg.BlocksOf(n))
			b.ReportMetric(float64(st.Reads)/nb, "reads/n'")
			b.ReportMetric(float64(st.Writes)/nb, "writes/n'")
		})
	}
}

// EXP-P1: Theorem 4.5 upper bounds.
func BenchmarkPermute(b *testing.B) {
	const n = 1 << 13
	items, perm := workload.Permutation(workload.NewRNG(4), n)
	for _, tc := range []struct {
		name string
		cfg  aem.Config
	}{
		{"sort-regime", aem.Config{M: 256, B: 32, Omega: 2}},
		{"N-regime", aem.Config{M: 32, B: 2, Omega: 512}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var cost int64
			for i := 0; i < b.N; i++ {
				ma := aem.New(tc.cfg)
				v := aem.Load(ma, items)
				permute.Best(ma, v, perm)
				cost = ma.Cost()
			}
			lb := bounds.PermutingLowerBoundClosed(bounds.Params{N: n, Cfg: tc.cfg})
			b.ReportMetric(float64(cost), "aem-cost")
			b.ReportMetric(float64(cost)/lb, "cost/LB")
		})
	}
}

// EXP-P2: the §4.2 counting bound evaluation itself.
func BenchmarkCountingBound(b *testing.B) {
	p := bounds.Params{N: 1 << 24, Cfg: aem.Config{M: 1 << 12, B: 64, Omega: 16}}
	b.ReportAllocs()
	var r int64
	for i := 0; i < b.N; i++ {
		r = bounds.CountingRounds(p)
	}
	b.ReportMetric(float64(r), "rounds")
}

// EXP-R1: Lemma 4.1 conversion.
func BenchmarkRoundConversion(b *testing.B) {
	cfg := aem.Config{M: 32, B: 4, Omega: 4}
	_, perm := workload.Permutation(workload.NewRNG(5), 1024)
	p, err := program.FromPermutation(cfg, perm)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var factor float64
	for i := 0; i < b.N; i++ {
		rb, err := program.ConvertToRoundBased(p)
		if err != nil {
			b.Fatal(err)
		}
		factor = float64(rb.Cost()) / float64(p.Cost())
	}
	b.ReportMetric(factor, "cost-factor")
}

// EXP-F1: Lemma 4.3 simulation.
func BenchmarkFlashSimulation(b *testing.B) {
	cfg := aem.Config{M: 32, B: 8, Omega: 4}
	_, perm := workload.Permutation(workload.NewRNG(6), 1024)
	p, err := program.FromPermutation(cfg, perm)
	if err != nil {
		b.Fatal(err)
	}
	rb, err := program.ConvertToRoundBased(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		fp, err := flash.SimulateAEM(rb)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(fp.Volume()) / float64(flash.VolumeBound(rb))
	}
	b.ReportMetric(ratio, "volume/bound")
}

// EXP-F2: Corollary 4.4 reduction bound.
func BenchmarkReductionBound(b *testing.B) {
	p := bounds.Params{N: 1 << 24, Cfg: aem.Config{M: 1 << 12, B: 64, Omega: 16}}
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		v = bounds.ReductionLowerBound(p)
	}
	b.ReportMetric(v, "reduction-LB")
}

// EXP-X1: SpMxV across δ.
func BenchmarkSpMxV(b *testing.B) {
	cfg := aem.Config{M: 128, B: 8, Omega: 4}
	const n = 1 << 10
	for _, delta := range []int{2, 8, 32} {
		rng := workload.NewRNG(7)
		conf := workload.NewConformation(rng, n, delta)
		values := make([]int64, conf.H())
		x := make([]int64, n)
		for i := range x {
			x[i] = int64(rng.Intn(10))
		}
		for i := range values {
			values[i] = int64(rng.Intn(10))
		}
		for _, alg := range []struct {
			name string
			f    func(*aem.Machine, *spmxv.Matrix, *aem.Vector) *aem.Vector
		}{
			{"naive", spmxv.Naive},
			{"sort", spmxv.SortBased},
		} {
			b.Run(fmt.Sprintf("%s/delta=%d", alg.name, delta), func(b *testing.B) {
				b.ReportAllocs()
				var cost int64
				for i := 0; i < b.N; i++ {
					ma := aem.New(cfg)
					m := spmxv.NewMatrix(ma, conf, values)
					alg.f(ma, m, spmxv.LoadDense(ma, x))
					cost = ma.Cost()
				}
				b.ReportMetric(float64(cost), "aem-cost")
			})
		}
	}
}

// EXP-X2: SpMxV across ω.
func BenchmarkSpMxVOmega(b *testing.B) {
	const n, delta = 1 << 10, 4
	rng := workload.NewRNG(8)
	conf := workload.NewConformation(rng, n, delta)
	values := make([]int64, conf.H())
	x := make([]int64, n)
	for _, w := range []int{1, 16, 256} {
		cfg := aem.Config{M: 128, B: 8, Omega: w}
		b.Run(fmt.Sprintf("omega=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var cost int64
			for i := 0; i < b.N; i++ {
				ma := aem.New(cfg)
				m := spmxv.NewMatrix(ma, conf, values)
				y, _ := spmxv.Best(ma, m, spmxv.LoadDense(ma, x))
				_ = y
				cost = ma.Cost()
			}
			b.ReportMetric(float64(cost), "aem-cost")
		})
	}
}

// makeSortedRuns builds k sorted runs totalling n items on the machine.
func makeSortedRuns(ma *aem.Machine, n, k int) []*aem.Vector {
	all := workload.Keys(workload.NewRNG(9), workload.Random, n)
	per := (n + k - 1) / k
	var runs []*aem.Vector
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		chunk := make([]aem.Item, hi-lo)
		copy(chunk, all[lo:hi])
		insertionSortItems(chunk)
		runs = append(runs, aem.Load(ma, chunk))
	}
	return runs
}

func insertionSortItems(items []aem.Item) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && aem.Less(items[j], items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}
