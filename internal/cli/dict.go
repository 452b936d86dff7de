package cli

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/dict"
	"repro/internal/workload"
)

// dictCmd runs a generated dictionary operation stream on a simulated
// (M,B,ω)-AEM machine and reports the measured I/O cost of the
// ω-adaptive buffer tree next to the unbatched B-tree baseline and the
// bounds predictions.
//
//	aem dict -ops 24000 -keyspace 8192 -m 256 -b 16 -omega 16 -scenario zipf
//	aem dict -impl buffertree -engine file -phases
//
// Scenarios: uniform | zipf | sortedburst | deleteheavy.
// Implementations: both | buffertree | btree.
// Engines: any registered data-retaining engine (see `aem engines`);
// engines without a data plane cannot run a value-dependent dictionary.
func dictCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		nOps     = fs.Int("ops", 24000, "number of operations in the stream")
		keyspace = fs.Int64("keyspace", 8192, "distinct-key domain size")
		machine  = machineFlags(fs, 256, 16, 16)
		scenario = fs.String("scenario", "uniform", "workload: uniform | zipf | sortedburst | deleteheavy")
		impl     = fs.String("impl", "both", "dictionary: both | buffertree | btree")
		engine   = fs.String("engine", "slice", "storage engine: "+strings.Join(aem.EngineNames(), " | "))
		seed     = fs.Uint64("seed", 1, "workload seed")
		phases   = fs.Bool("phases", false, "print per-phase I/O for the buffer tree")
	)
	fs.Parse(args)

	cfg, err := machine()
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}
	sc, found := workload.ScenarioByName(*scenario)
	if !found {
		fail(prog, "unknown scenario %q", *scenario)
		return 2
	}
	eng, known := aem.EngineByName(*engine)
	if !known {
		// Surface the registry's canonical error: it lists the valid names.
		_, err := aem.StorageByName(*engine, cfg.B)
		fail(prog, "%v", err)
		return 2
	}
	if !eng.Caps.RetainsData {
		fail(prog, "engine %q has no data plane and cannot run a value-dependent dictionary", *engine)
		return 2
	}

	if *nOps < 1 {
		fail(prog, "-ops must be ≥ 1, got %d", *nOps)
		return 2
	}
	if *keyspace < 2 {
		fail(prog, "-keyspace must be ≥ 2, got %d", *keyspace)
		return 2
	}

	type row struct {
		name   string
		blocks int // smallest M, in blocks, the dictionary takes
		mk     func(*aem.Machine) dict.Dict
		pred   func(bounds.DictParams) bounds.PredictedIO
	}
	var rows []row
	if *impl == "both" || *impl == "buffertree" {
		rows = append(rows, row{"buffertree", 8, func(ma *aem.Machine) dict.Dict { return dict.NewBufferTree(ma) },
			bounds.DictBufferTreePredicted})
	}
	if *impl == "both" || *impl == "btree" {
		rows = append(rows, row{"btree", 4, func(ma *aem.Machine) dict.Dict { return dict.NewBTree(ma) },
			bounds.DictBTreePredicted})
	}
	if len(rows) == 0 {
		fail(prog, "unknown implementation %q", *impl)
		return 2
	}
	for _, r := range rows {
		if err := needBlocks(cfg, r.blocks, r.name); err != nil {
			fail(prog, "%v", err)
			return 2
		}
	}

	ops := workload.DictOps(workload.NewRNG(*seed), sc, *nOps, *keyspace)
	ins, del, look, rng := workload.OpMix(ops)
	p := bounds.DictParamsFor(cfg, ops, int(*keyspace))

	fmt.Printf("machine      (M=%d, B=%d, ω=%d)-AEM on the %s engine\n", cfg.M, cfg.B, cfg.Omega, *engine)
	fmt.Printf("workload     %d ops, %s over %d keys (seed %d): %d insert / %d delete / %d lookup / %d range\n",
		*nOps, sc, *keyspace, *seed, ins, del, look, rng)

	for _, r := range rows {
		stor, err := aem.StorageByName(*engine, cfg.B)
		if err != nil {
			fail(prog, "%v", err)
			return 1
		}
		ma := aem.NewWithStorage(cfg, stor)
		defer ma.Close()
		d := r.mk(ma)
		results := d.Apply(ops)
		st := ma.Stats()
		pred := r.pred(p)
		fmt.Printf("\n%s\n", r.name)
		fmt.Printf("  reads        %10d   (predicted %.0f, meas/pred %.2f)\n", st.Reads, pred.Reads, float64(st.Reads)/pred.Reads)
		fmt.Printf("  writes       %10d   (predicted %.0f, meas/pred %.2f)\n", st.Writes, pred.Writes, float64(st.Writes)/pred.Writes)
		fmt.Printf("  cost Q       %10d   (= reads + ω·writes; %.2f per op)\n", ma.Cost(), float64(ma.Cost())/float64(*nOps))
		fmt.Printf("  answered     %10d queries\n", len(results))
		if *phases && r.name == "buffertree" {
			fmt.Printf("  per-phase I/O:\n")
			for _, line := range strings.Split(strings.TrimRight(ma.Phases().String(), "\n"), "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
	}
	return 0
}
