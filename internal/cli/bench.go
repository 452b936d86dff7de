package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/harness"
)

// benchCmd regenerates the repository's experiments: one table per
// theorem/lemma of the paper, run as declarative grid specs on the
// in-process point-granular worker pool. Tables are always emitted in
// index order, so the output is byte-identical at every parallelism
// level. A failed experiment ends the run with exit code 1 after the
// tables ahead of it are written and any profiles are stopped.
//
//	aem bench -list                 list experiment ids
//	aem bench                       run every experiment, tables to stdout
//	aem bench -exp EXP-D1,EXP-Q1    run a comma-separated selection
//	aem bench -par 8                run grid points on 8 workers
//	aem bench -csv out/             additionally write one CSV per experiment
//	aem bench -json                 JSON Lines to stdout, one record per row
//	aem bench -timing               run points serially, recording wall clock and allocations
func benchCmd(prog string, args []string) int {
	return benchWith(prog, args, harness.Select)
}

// benchWith is benchCmd with the -exp resolver as a parameter, so a test
// can run specs that are not in the registry through the same flags,
// emitters and exit codes.
func benchWith(prog string, args []string, selectSpecs func(string) ([]*harness.Spec, []string, error)) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	var (
		expIDs  = fs.String("exp", "all", "comma-separated experiment ids to run, or 'all'")
		csvDir  = fs.String("csv", "", "directory to write per-experiment CSV files into")
		jsonOut = fs.Bool("json", false, "emit JSON Lines (one record per table row, measured and predicted columns included) instead of rendered tables")
		timing  = fs.Bool("timing", false, "run grid points one at a time, ignoring -par, and record each point's wall clock and heap allocations: extra table/CSV columns, and wall_ns, alloc_objects and alloc_bytes fields in -json records (nondeterministic; off by default so recorded output stays stable)")
		list    = fs.Bool("list", false, "list experiments and exit")
		par     = fs.Int("par", runtime.NumCPU(), "number of grid points to run concurrently")
	)
	startProfiles := profileFlags(fs)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	if *list {
		for _, s := range harness.All() {
			fmt.Printf("%-8s %s\n", s.ID, s.Index)
		}
		fmt.Println("auxiliary (not in 'all'; run with -exp):")
		for _, s := range harness.Aux() {
			fmt.Printf("%-8s %s\n", s.ID, s.Index)
		}
		return 0
	}

	specs, warnings, err := selectSpecs(*expIDs)
	for _, w := range warnings {
		fail(prog, "warning: %s", w)
	}
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(prog, "%v", err)
			return 1
		}
	}

	stopProfiles, err := startProfiles()
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}

	ex := &harness.LocalPool{Par: *par, Timing: *timing}
	var firstErr error
	runErr := ex.Execute(specs, func(tbl *harness.Table) {
		if *jsonOut {
			if err := tbl.JSON(os.Stdout); err != nil && firstErr == nil {
				firstErr = err
			}
		} else {
			tbl.Render(os.Stdout)
		}
		if *csvDir != "" && firstErr == nil {
			if err := writeCSVAtomic(*csvDir, tbl); err != nil {
				firstErr = err
			}
		}
	})
	if err := stopProfiles(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := errors.Join(runErr, firstErr); err != nil {
		fail(prog, "%v", err)
		return 1
	}
	return 0
}

// writeCSVAtomic writes the table's CSV into dir through a temp file
// renamed into place on success, so a failed or interrupted run never
// leaves a truncated CSV behind. The temp file is removed on every
// non-renamed exit — write error, close error, rename error, or a panic
// unwinding through — so failures never strand *.tmp files in the output
// directory either.
func writeCSVAtomic(dir string, tbl *harness.Table) (err error) {
	name := strings.ToLower(strings.ReplaceAll(tbl.ID, "EXP-", "exp_")) + ".csv"
	f, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	renamed := false
	defer func() {
		if !renamed {
			f.Close() // no-op if already closed
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriter(f)
	tbl.CSV(w)
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	renamed = true
	return nil
}
