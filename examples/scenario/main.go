// A custom experiment on the declarative scenario engine: declare a grid
// (axes), a point function, and a predicted-bound hook — the engine owns
// iteration, point-granular scheduling and deterministic table assembly.
// This sweep crosses ω with the key distribution of the input, a scenario
// the hand-written experiment loops never covered: the §3 mergesort's
// cost is distribution-oblivious, and the flat meas/pred column shows it.
package main

import (
	"fmt"
	"os"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/harness"
	"repro/internal/sorting"
	"repro/internal/workload"
)

func main() {
	const n = 1 << 13
	cfgOf := func(p harness.Point) aem.Config {
		return aem.Config{M: 128, B: 8, Omega: p.Int("omega")}
	}
	spec := &harness.Spec{
		ID:    "EX-GRID",
		Title: "custom spec: mergesort cost across ω × key distribution",
		Claim: "the §3 mergesort is distribution-oblivious: meas/pred is flat along both axes",
		Axes: []harness.Axis{
			{Name: "omega", Values: harness.Ints(1, 8, 64)},
			{Name: "dist", Values: harness.Vals(workload.Random, workload.Sorted, workload.FewDistinct)},
		},
		Columns: append(harness.Cols("omega", "dist", "reads", "writes", "cost"),
			harness.Column{Name: "meas/pred", Pred: func(p harness.Point) float64 {
				cfg := cfgOf(p)
				return bounds.MergeSortPredicted(bounds.Params{N: n, Cfg: cfg}).Cost(cfg.Omega)
			}},
		),
		Point: func(p harness.Point) harness.Row {
			cfg := cfgOf(p)
			dist := p.Value("dist").(workload.KeyDist)
			ma := aem.New(cfg)
			in := workload.Keys(workload.NewRNG(7), dist, n)
			sorting.MergeSort(ma, aem.Load(ma, in))
			st := ma.Stats()
			return harness.Row{cfg.Omega, dist.String(), st.Reads, st.Writes, ma.Cost(), ma.Cost()}
		},
	}
	// Grid points spread across 4 workers; the table is identical at any par.
	pool := &harness.LocalPool{Par: 4}
	if err := pool.Execute([]*harness.Spec{spec}, func(t *harness.Table) { t.Render(os.Stdout) }); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
