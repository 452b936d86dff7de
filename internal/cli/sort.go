package cli

import (
	"flag"
	"fmt"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// sortCmd sorts a generated workload on a simulated (M,B,ω)-AEM machine
// and reports the measured I/O cost next to the paper's bounds.
//
//	aem sort -n 65536 -m 1024 -b 32 -omega 16 -alg aem -dist random
//
// Algorithms: aem (the Section 3 mergesort), em (symmetric-EM mergesort
// baseline), small (the [7, Lemma 4.2] base case; requires N ≤ ωM).
func sortCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	var (
		n       = fs.Int("n", 1<<16, "number of items to sort")
		machine = machineFlags(fs, 1024, 32, 16)
		alg     = fs.String("alg", "aem", "algorithm: aem | em | small")
		dist    = fs.String("dist", "random", "key distribution: random | sorted | reversed | fewdistinct | nearlysorted")
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
	kd, found := workload.DistByName(*dist)
	if !found {
		fail(prog, "unknown distribution %q", *dist)
		return 2
	}

	sorts := map[string]struct {
		blocks int // smallest M, in blocks, the algorithm takes
		run    func(*aem.Machine, *aem.Vector) *aem.Vector
	}{
		"aem":   {8, sorting.MergeSort},
		"em":    {4, sorting.EMMergeSort},
		"small": {4, sorting.SmallSort},
	}
	s, known := sorts[*alg]
	if !known {
		fail(prog, "unknown algorithm %q", *alg)
		return 2
	}
	if *n < 0 {
		fail(prog, "-n must be ≥ 0, got %d", *n)
		return 2
	}
	if err := needBlocks(cfg, s.blocks, *alg+" sort"); err != nil {
		fail(prog, "%v", err)
		return 2
	}
	if *alg == "small" && *n > cfg.Omega*cfg.M {
		fail(prog, "small sort needs N ≤ ωM = %d", cfg.Omega*cfg.M)
		return 2
	}

	ma := aem.New(cfg)
	in := workload.Keys(workload.NewRNG(*seed), kd, *n)
	out := s.run(ma, aem.Load(ma, in))

	if !sorting.IsSorted(out.Materialize()) {
		fail(prog, "output NOT sorted — simulator bug")
		return 1
	}

	st := ma.Stats()
	p := bounds.Params{N: *n, Cfg: cfg}
	pred := bounds.MergeSortPredicted(p)
	lb := bounds.SortingLowerBoundClosed(p)

	fmt.Printf("machine      (M=%d, B=%d, ω=%d)-AEM   m=%d  merge fanout ωm=%d\n",
		cfg.M, cfg.B, cfg.Omega, cfg.BlocksInMemory(), cfg.MergeFanout())
	fmt.Printf("workload     N=%d %s (seed %d)\n", *n, kd, *seed)
	fmt.Printf("algorithm    %s\n", *alg)
	fmt.Printf("reads        %d\n", st.Reads)
	fmt.Printf("writes       %d\n", st.Writes)
	fmt.Printf("cost Q       %d   (= reads + ω·writes)\n", ma.Cost())
	fmt.Printf("verified     output sorted, %d items\n", out.Len())
	fmt.Printf("predicted    %.0f reads, %.0f writes (§3 mergesort formula)\n", pred.Reads, pred.Writes)
	fmt.Printf("lower bound  %.0f   (Theorem 4.5: min{N, ω·n·log_ωm n})\n", lb)
	fmt.Printf("Q / LB       %.2f\n", float64(ma.Cost())/lb)
	return 0
}
