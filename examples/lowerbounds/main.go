// Lower bounds walkthrough: the paper's proof pipeline run as code.
//
// A permutation is turned into a straight-line AEM program (§2), converted
// into a round-based program with doubled memory (Lemma 4.1), and then
// simulated in the unit-cost flash model (Lemma 4.3); every step is
// validated by the interpreters and the final flash volume is compared
// against the 2N + 2QB/ω budget. Then the counting bound of §4.2 is
// evaluated across a parameter grid next to the closed form of
// Theorem 4.5.
//
//	go run ./examples/lowerbounds
package main

import (
	"fmt"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/flash"
	"repro/internal/program"
	"repro/internal/workload"
)

func main() {
	// --- The executable proof pipeline -------------------------------
	cfg := aem.Config{M: 32, B: 8, Omega: 4}
	const n = 512
	_, perm := workload.Permutation(workload.NewRNG(3), n)

	p, err := program.FromPermutation(cfg, perm)
	check(err)
	orig, err := program.Run(p, program.RunOptions{})
	check(err)
	fmt.Printf("program P        : %4d ops, cost Q = %d on (M=%d,B=%d,ω=%d)\n",
		len(p.Ops), p.Cost(), cfg.M, cfg.B, cfg.Omega)

	rb, err := program.ConvertToRoundBased(p)
	check(err)
	conv, err := program.Run(rb, program.RunOptions{})
	check(err)
	fmt.Printf("Lemma 4.1  → P'  : %4d ops, cost %d (%.2f×), %d rounds, memory 2M=%d\n",
		len(rb.Ops), rb.Cost(), float64(rb.Cost())/float64(p.Cost()),
		len(rb.RoundMarks), rb.Cfg.M)
	if !orig.Placement.Equal(conv.Placement) {
		panic("conversion changed the permutation")
	}

	fp, err := flash.SimulateAEM(rb)
	check(err)
	res, err := flash.Run(fp)
	check(err)
	budget := flash.VolumeBound(rb)
	fmt.Printf("Lemma 4.3  → P_F : %4d ops, volume %d ≤ budget 2N+2QB/ω = %d (%.2f×)\n",
		len(fp.Ops), fp.Volume(), budget, float64(fp.Volume())/float64(budget))
	for a, addr := range orig.Placement {
		if res.Placement[a] != addr {
			panic("flash simulation changed the permutation")
		}
	}
	fmt.Println("placement preserved through the whole chain ✓")

	// --- The counting bound across a grid ----------------------------
	fmt.Println("\ncounting bound (§4.2) vs closed form (Theorem 4.5):")
	fmt.Printf("%10s %6s %6s  %14s %14s %14s\n", "N", "B", "omega", "rounds R", "counting LB", "closed LB")
	for _, nn := range []int{1 << 16, 1 << 20, 1 << 24} {
		for _, w := range []int{1, 16, 256} {
			c := aem.Config{M: 1 << 12, B: 64, Omega: w}
			pr := bounds.Params{N: nn, Cfg: c}
			fmt.Printf("%10d %6d %6d  %14d %14.0f %14.0f\n",
				nn, c.B, w,
				bounds.CountingRounds(pr), bounds.CountingLowerBound(pr),
				bounds.PermutingLowerBoundClosed(pr))
		}
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
