// Sorting scenario: an external sort of a flash/NVM-resident dataset,
// comparing the paper's ω-aware mergesort against a symmetric-EM sort that
// ignores write asymmetry, across a sweep of ω. This is the workload the
// paper's introduction motivates: the same code path a database's sort
// operator would take on phase-change storage.
//
//	go run ./examples/sorting
package main

import (
	"fmt"

	"repro/internal/aem"
	"repro/internal/sorting"
	"repro/internal/workload"
)

func main() {
	const n = 1 << 15
	input := workload.Keys(workload.NewRNG(7), workload.Random, n)

	fmt.Println("external sort of", n, "items, M=128, B=8")
	fmt.Printf("%8s  %12s %12s %12s %12s  %s\n",
		"omega", "aem writes", "em writes", "aem cost", "em cost", "aem/em")
	for _, w := range []int{1, 4, 16, 64, 256} {
		cfg := aem.Config{M: 128, B: 8, Omega: w}

		ma := aem.New(cfg)
		out := sorting.MergeSort(ma, aem.Load(ma, input))
		if !sorting.IsSorted(out.Materialize()) {
			panic("aem sort failed")
		}

		ma2 := aem.New(cfg)
		out2 := sorting.EMMergeSort(ma2, aem.Load(ma2, input))
		if !sorting.IsSorted(out2.Materialize()) {
			panic("em sort failed")
		}

		fmt.Printf("%8d  %12d %12d %12d %12d  %.3f\n",
			w, ma.Stats().Writes, ma2.Stats().Writes,
			ma.Cost(), ma2.Cost(), float64(ma.Cost())/float64(ma2.Cost()))
	}
	fmt.Println()
	fmt.Println("the AEM sort holds its write count nearly flat while the symmetric")
	fmt.Println("sort pays the full ω on every merge level — the Section 3 story.")
}
