package cli

import (
	"errors"
	"flag"
	"os"

	"repro/internal/harness"
)

// mergeCmd reassembles a distributed `aem bench` run: given point
// streams written by `aem bench -shard i/m -json`, `aem serve` or `aem
// work -residual` — in any mix, since all three are the same stream — it
// fills the grid point by point (every file on the same selection and
// grid size, every record well-formed, no grid point duplicated or
// missing), re-runs the derived/summary columns over the merged grid,
// and renders output byte-identical to a single-machine `aem bench` of
// the same selection.
//
//	aem merge shard0.jsonl shard1.jsonl           rendered tables to stdout
//	aem merge -json shard*.jsonl                  JSON Lines, one record per row
//	aem merge -csv out/ shard*.jsonl              additionally write CSVs
//	aem merge -timing shard*.jsonl                append per-point wall-clock
//	aem merge -residual rest.json partial.jsonl   on missing points, write the
//	                                              resume spec for `aem work`
//
// Points that panicked in a stream surface here exactly as an unsharded
// run reports them: aggregated per experiment, emission stopping at the
// first failed experiment. An incomplete set (a lost or killed shard
// job, an interrupted fleet) reports every missing point across all
// experiments;
// with -residual the same list is written as a machine-readable residual
// spec, so the resume is `aem work -residual rest.json > rest.jsonl`
// followed by re-merging with rest.jsonl added to the file list.
func mergeCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		csvDir  = fs.String("csv", "", "directory to write per-experiment CSV files into")
		jsonOut = fs.Bool("json", false, "emit JSON Lines (one record per table row) instead of rendered tables")
		timing  = fs.Bool("timing", false, "append the shards' per-point wall-clock columns / wall_ns fields")
		resPath = fs.String("residual", "", "file to write the residual spec into when grid points are missing")
	)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fail(prog, "no shard files given (run `aem bench -shard i/m -json` to produce them)")
		return 2
	}

	var files []*harness.ShardFile
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fail(prog, "%v", err)
			return 1
		}
		sf, perr := harness.ReadShardFile(f)
		f.Close()
		if perr != nil {
			fail(prog, "%s: %v", path, perr)
			return 1
		}
		files = append(files, sf)
	}

	// The manifest names the experiments the shards ran, in run order;
	// resolve them against this binary's registry.
	specs, err := harness.Resolve(files[0].Manifest.Experiments)
	if err != nil {
		fail(prog, "shard file names %v (built from a different registry?)", err)
		return 1
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(prog, "%v", err)
			return 1
		}
	}

	var firstErr error
	err = harness.MergeShards(specs, files, *timing, func(tbl *harness.Table) {
		if *jsonOut {
			if err := tbl.JSON(os.Stdout); err != nil && firstErr == nil {
				firstErr = err
			}
		} else {
			tbl.Render(os.Stdout)
		}
		emitThroughput(tbl, *jsonOut, &firstErr)
		if *csvDir != "" && firstErr == nil {
			if err := writeCSVAtomic(*csvDir, tbl); err != nil {
				firstErr = err
			}
		}
	})
	if err != nil {
		fail(prog, "%v", err)
		var inc *harness.IncompleteError
		if errors.As(err, &inc) && *resPath != "" {
			if werr := writeResidual(*resPath, inc.ResidualSpec()); werr != nil {
				fail(prog, "writing residual spec: %v", werr)
			} else {
				fail(prog, "residual spec written: %s (%d missing points); resume with `aem work -residual %s > rest.jsonl` and re-merge with rest.jsonl added",
					*resPath, len(inc.Missing), *resPath)
			}
		}
		return 1
	}
	if firstErr != nil {
		fail(prog, "%v", firstErr)
		return 1
	}
	return 0
}

// writeResidual writes the residual spec to path.
func writeResidual(path string, rs *harness.ResidualSpec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rs.WriteResidual(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
