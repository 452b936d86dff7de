// Permuting scenario: shuffling records to a prescribed order (the
// building block of bucketing, partitioning and shuffle phases), showing
// the two regimes of Theorem 4.5's min{N, ω·n·log_ωm n} bound and how the
// cost-optimal strategy switches between them.
//
//	go run ./examples/permuting
package main

import (
	"fmt"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/permute"
	"repro/internal/workload"
)

func main() {
	const n = 1 << 13
	items, perm := workload.Permutation(workload.NewRNG(11), n)

	fmt.Printf("permuting %d records on machines across the (B, ω) plane\n\n", n)
	fmt.Printf("%6s %6s  %10s %10s  %-8s  %12s %8s\n",
		"B", "omega", "direct", "sort", "chosen", "Thm4.5 LB", "best/LB")
	for _, c := range []aem.Config{
		{M: 128, B: 8, Omega: 1},
		{M: 128, B: 8, Omega: 16},
		{M: 32, B: 2, Omega: 512}, // tiny blocks, huge ω: N-term regime
		{M: 256, B: 32, Omega: 2}, // big blocks, small ω: sort-term regime
		{M: 256, B: 32, Omega: 64},
	} {
		maD := aem.New(c)
		permute.Direct(maD, aem.Load(maD, items), perm)
		maS := aem.New(c)
		permute.SortBased(maS, aem.Load(maS, items))

		maB := aem.New(c)
		v := aem.Load(maB, items)
		out, strat := permute.Best(maB, v, perm)
		if err := permute.Verify(v, out); err != nil {
			panic(err)
		}

		lb := bounds.PermutingLowerBoundClosed(bounds.Params{N: n, Cfg: c})
		fmt.Printf("%6d %6d  %10d %10d  %-8s  %12.0f %8.2f\n",
			c.B, c.Omega, maD.Cost(), maS.Cost(), strat,
			lb, float64(maB.Cost())/lb)
	}
	fmt.Println()
	fmt.Println("where the bound's min picks N (write-dominated machines), direct")
	fmt.Println("block-gather wins; where the sort term is smaller, mergesort wins.")
}
