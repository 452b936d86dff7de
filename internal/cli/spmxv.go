package cli

import (
	"flag"
	"fmt"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/spmxv"
	"repro/internal/workload"
)

// spmxvCmd multiplies a random sparse matrix by a dense vector on a
// simulated (M,B,ω)-AEM machine with both Section 5 algorithms and
// reports measured costs next to the Theorem 5.1 bound.
//
//	aem spmxv -n 2048 -delta 4 -m 1024 -b 32 -omega 16 [-banded]
func spmxvCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	var (
		n       = fs.Int("n", 2048, "matrix dimension N (N×N matrix, N-vector)")
		delta   = fs.Int("delta", 4, "non-zeros per column δ")
		machine = machineFlags(fs, 1024, 32, 16)
		banded  = fs.Bool("banded", false, "use a banded conformation instead of random")
		seed    = fs.Uint64("seed", 1, "workload seed")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	cfg, err := machine()
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}
	if *delta < 1 || *delta > *n {
		fail(prog, "need 1 ≤ δ ≤ N")
		return 2
	}
	if err := needBlocks(cfg, 8, "sort-based SpMxV"); err != nil {
		fail(prog, "%v", err)
		return 2
	}

	rng := workload.NewRNG(*seed)
	var conf *workload.Conformation
	if *banded {
		conf = workload.BandedConformation(*n, *delta)
	} else {
		conf = workload.NewConformation(rng, *n, *delta)
	}
	values := make([]int64, conf.H())
	for i := range values {
		values[i] = int64(rng.Intn(100) - 50)
	}
	x := make([]int64, *n)
	for i := range x {
		x[i] = int64(rng.Intn(100) - 50)
	}

	run := func(name string, f func(*aem.Machine, *spmxv.Matrix, *aem.Vector) *aem.Vector) (int64, aem.Stats, bool) {
		ma := aem.New(cfg)
		mat := spmxv.NewMatrix(ma, conf, values)
		y := f(ma, mat, spmxv.LoadDense(ma, x))
		if err := spmxv.VerifyProduct(conf, values, x, y); err != nil {
			fail(prog, "%s produced a wrong product: %v", name, err)
			return 0, aem.Stats{}, false
		}
		return ma.Cost(), ma.Stats(), true
	}

	naiveCost, naiveStats, ok := run("naive", spmxv.Naive)
	if !ok {
		return 1
	}
	sortCost, sortStats, ok := run("sort", spmxv.SortBased)
	if !ok {
		return 1
	}

	p := bounds.SpMxVParams{Params: bounds.Params{N: *n, Cfg: cfg}, Delta: *delta}
	lb := bounds.SpMxVLowerBoundClosed(p)

	kind := "random"
	if *banded {
		kind = "banded"
	}
	fmt.Printf("machine      (M=%d, B=%d, ω=%d)-AEM\n", cfg.M, cfg.B, cfg.Omega)
	fmt.Printf("matrix       %d×%d, δ=%d per column (%s), H=%d non-zeros, column-major\n",
		*n, *n, *delta, kind, conf.H())
	fmt.Printf("naive        cost %-10d (%s)   — O(H + ωn)\n", naiveCost, naiveStats)
	fmt.Printf("sort-based   cost %-10d (%s)   — O(ωh·log_ωm N/max{δ,B} + ωn)\n", sortCost, sortStats)
	best, strat := naiveCost, "naive"
	if sortCost < best {
		best, strat = sortCost, "sort-based"
	}
	fmt.Printf("best         %s\n", strat)
	fmt.Printf("lower bound  %.0f   (Theorem 5.1)\n", lb)
	fmt.Printf("best / LB    %.2f\n", float64(best)/lb)
	fmt.Printf("verified     both algorithms match the dense reference product\n")
	return 0
}
