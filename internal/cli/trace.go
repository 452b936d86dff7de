package cli

import (
	"flag"
	"fmt"

	"repro/internal/aem"
	"repro/internal/pq"
	"repro/internal/sorting"
	"repro/internal/spmxv"
	"repro/internal/trace"
	"repro/internal/workload"
)

// spmxvDelta is the non-zeros per column of the traced SpMxV programs.
const spmxvDelta = 4

// traceCmd records the I/O trace of an algorithm execution on a simulated
// (M,B,ω)-AEM machine, decomposes it into the ωm-rounds of the paper's
// Section 4, and evaluates the Lemma 4.1 round-based conversion on it —
// the lower-bound framework applied to a real run.
//
//	aem trace -alg aem -n 16384 -m 512 -b 16 -omega 8
//
// Algorithms: aem | em | sample | heap (sorting), spmxv-naive | spmxv-sort.
// The machine keeps the whole trace in memory, one TraceOp per I/O.
func traceCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		n       = fs.Int("n", 1<<14, "input size")
		machine = machineFlags(fs, 512, 16, 8)
		alg     = fs.String("alg", "aem", "algorithm: aem | em | sample | heap | spmxv-naive | spmxv-sort")
		seed    = fs.Uint64("seed", 1, "workload seed")
	)
	fs.Parse(args)

	cfg, err := machine()
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}

	sorter := func(sort func(*aem.Machine, *aem.Vector) *aem.Vector) func(*aem.Machine) {
		return func(ma *aem.Machine) {
			sort(ma, aem.Load(ma, workload.Keys(workload.NewRNG(*seed), workload.Random, *n)))
		}
	}
	multiplier := func(mul func(*aem.Machine, *spmxv.Matrix, *aem.Vector) *aem.Vector) func(*aem.Machine) {
		return func(ma *aem.Machine) {
			conf := workload.NewConformation(workload.NewRNG(*seed), *n, spmxvDelta)
			mat := spmxv.NewMatrix(ma, conf, make([]int64, conf.H()))
			mul(ma, mat, spmxv.LoadDense(ma, make([]int64, *n)))
		}
	}
	algs := map[string]struct {
		minN, blocks int // smallest N and M (in blocks) the algorithm takes
		run          func(*aem.Machine)
	}{
		"aem": {0, 8, sorter(sorting.MergeSort)},
		"em":  {0, 4, sorter(sorting.EMMergeSort)},
		"sample": {0, 8, sorter(func(ma *aem.Machine, v *aem.Vector) *aem.Vector {
			return sorting.EMSampleSort(ma, v, *seed)
		})},
		"heap":        {0, 16, sorter(pq.HeapSort)},
		"spmxv-naive": {spmxvDelta, 4, multiplier(spmxv.Naive)},
		"spmxv-sort":  {spmxvDelta, 8, multiplier(spmxv.SortBased)},
	}
	a, known := algs[*alg]
	if !known {
		fail(prog, "unknown algorithm %q", *alg)
		return 2
	}
	if *n < a.minN {
		fail(prog, "%s needs N ≥ %d, got %d", *alg, a.minN, *n)
		return 2
	}
	if err := needBlocks(cfg, a.blocks, *alg); err != nil {
		fail(prog, "%v", err)
		return 2
	}

	ma := aem.New(cfg)
	ma.StartTrace()
	a.run(ma)
	ops := ma.StopTrace()

	rounds := trace.Decompose(ops, cfg)
	if err := trace.CheckDecomposition(rounds, ops, cfg); err != nil {
		fail(prog, "invalid decomposition: %v", err)
		return 1
	}
	conv := trace.Convert(ops, cfg)

	fmt.Printf("machine        (M=%d, B=%d, ω=%d)-AEM, round budget ωm = %d\n",
		cfg.M, cfg.B, cfg.Omega, cfg.Omega*cfg.BlocksInMemory())
	fmt.Printf("algorithm      %s on N=%d\n", *alg, *n)
	fmt.Printf("trace          %d ops (%s)\n", len(ops), ma.Stats())
	fmt.Printf("cost Q         %d\n", ma.Cost())
	fmt.Printf("rounds         %d (§4 decomposition, validated)\n", len(rounds))
	fmt.Printf("Lemma 4.1      converted cost %d, factor %.2f, %d reads served from M''\n",
		conv.Converted, conv.Factor(), conv.SavedReads)
	return 0
}
