// Quickstart: build an (M,B,ω)-AEM machine, sort data with the paper's
// mergesort, and compare the measured cost with the paper's bounds.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/sorting"
	"repro/internal/workload"
)

func main() {
	// A machine with 1024 items of fast symmetric memory, blocks of 32
	// items, and writes 16× as expensive as reads — the regime of
	// phase-change memory and other NVM technologies that motivate the
	// model.
	cfg := aem.Config{M: 1024, B: 32, Omega: 16}
	ma := aem.New(cfg)

	// The input lives in external memory at time zero (free), like any EM
	// computation.
	const n = 1 << 16
	input := workload.Keys(workload.NewRNG(42), workload.Random, n)
	vec := aem.Load(ma, input)

	// Sort with the Section 3 mergesort: O(ω·n·log_ωm n) reads but only
	// O(n·log_ωm n) writes — writes are what asymmetric memory makes
	// precious.
	sorted := sorting.MergeSort(ma, vec)

	st := ma.Stats()
	fmt.Printf("sorted %d items on a (M=%d, B=%d, ω=%d)-AEM\n", sorted.Len(), cfg.M, cfg.B, cfg.Omega)
	fmt.Printf("  reads  %8d\n", st.Reads)
	fmt.Printf("  writes %8d   (%.1f%% of reads — the ω asymmetry at work)\n",
		st.Writes, 100*float64(st.Writes)/float64(st.Reads))
	fmt.Printf("  cost Q %8d   (= reads + ω·writes)\n", ma.Cost())

	lb := bounds.SortingLowerBoundClosed(bounds.Params{N: n, Cfg: cfg})
	fmt.Printf("  Theorem 4.5 lower bound: %.0f   measured/LB = %.2f\n",
		lb, float64(ma.Cost())/lb)
}
