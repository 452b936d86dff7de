// SpMxV scenario: iterated sparse matrix–vector products — the kernel of
// PageRank-style computations — on NVM-resident data. Each iteration
// multiplies the (column-major) adjacency-like matrix by the current
// vector; the example runs both Section 5 algorithms, verifies them
// against a dense reference, and shows which side of Theorem 5.1's min{}
// the machine lands on.
//
//	go run ./examples/spmxv
package main

import (
	"fmt"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/spmxv"
	"repro/internal/workload"
)

func main() {
	const (
		n     = 1 << 11
		delta = 4
		iters = 3
	)
	rng := workload.NewRNG(23)
	conf := workload.NewConformation(rng, n, delta)
	values := make([]int64, conf.H())
	for i := range values {
		values[i] = int64(rng.Intn(3)) // sparse non-negative weights
	}
	x := make([]int64, n)
	for i := range x {
		x[i] = 1 // start from the all-ones vector, the lower bound's canonical task
	}

	cfg := aem.Config{M: 1024, B: 32, Omega: 16}
	fmt.Printf("PageRank-style iteration: %d×%d matrix, δ=%d (H=%d), (M=%d,B=%d,ω=%d)-AEM\n\n",
		n, n, delta, conf.H(), cfg.M, cfg.B, cfg.Omega)

	var totalCost int64
	for it := 0; it < iters; it++ {
		ma := aem.New(cfg)
		mat := spmxv.NewMatrix(ma, conf, values)
		y, strat := spmxv.Best(ma, mat, spmxv.LoadDense(ma, x))
		if err := spmxv.VerifyProduct(conf, values, x, y); err != nil {
			panic(err)
		}
		fmt.Printf("iteration %d: cost %8d (%s, strategy %s)\n",
			it+1, ma.Cost(), ma.Stats(), strat)
		totalCost += ma.Cost()

		// Feed the result into the next iteration (values capped to keep
		// the integer semiring small).
		out := y.Materialize()
		for i := range x {
			x[i] = out[i].Aux % 97
		}
	}

	p := bounds.SpMxVParams{Params: bounds.Params{N: n, Cfg: cfg}, Delta: delta}
	fmt.Printf("\ntotal cost over %d iterations: %d\n", iters, totalCost)
	fmt.Printf("per-iteration Theorem 5.1 lower bound: %.0f\n", bounds.SpMxVLowerBoundClosed(p))
	fmt.Printf("naive predicted %.0f vs sort predicted %.0f — min decides the strategy\n",
		bounds.SpMxVNaivePredicted(p).Cost(cfg.Omega),
		bounds.SpMxVSortPredicted(p).Cost(cfg.Omega))
}
