package cli

import (
	"context"
	"flag"
	"os"
	"runtime"

	"repro/internal/fleet"
	"repro/internal/harness"
)

// workCmd is the fleet's worker side, in two modes:
//
//	aem work -connect http://host:8377      lease points from a coordinator
//	aem work -residual rest.json            run a residual spec's missing
//	                                        points, point stream to stdout
//
// A connected worker streams every record back over HTTP as it
// completes, so a worker killed mid-lease loses only its unreported
// points — the coordinator re-issues them when the lease expires. A
// residual worker needs no coordinator: it reads the missing-point list
// `aem merge -residual` wrote for an interrupted run, measures exactly
// those points, and emits a point stream that completes the original
// partial outputs — lost shards included — at the next `aem merge`.
func workCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		connect  = fs.String("connect", "", "coordinator base URL to lease points from")
		residual = fs.String("residual", "", "residual spec file (from `aem merge -residual`) to run instead of connecting")
		par      = fs.Int("par", runtime.NumCPU(), "number of grid points to run concurrently")
		quiet    = fs.Bool("q", false, "suppress progress logging")
	)
	fs.Parse(args)

	if (*connect == "") == (*residual == "") {
		fail(prog, "exactly one of -connect or -residual is required")
		return 2
	}

	if *residual != "" {
		f, err := os.Open(*residual)
		if err != nil {
			fail(prog, "%v", err)
			return 1
		}
		rs, perr := harness.ReadResidualSpec(f)
		f.Close()
		if perr != nil {
			fail(prog, "%s: %v", *residual, perr)
			return 1
		}
		if err := harness.RunResidual(rs, *par, os.Stdout); err != nil {
			fail(prog, "%v", err)
			return 1
		}
		return 0
	}

	cfg := fleet.WorkerConfig{URL: *connect, Par: *par}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	if err := fleet.Work(context.Background(), cfg); err != nil {
		fail(prog, "%v", err)
		return 1
	}
	return 0
}
