// Package cli implements the aem multitool: one binary, seven
// subcommands (bench, gate, dict, dictload, sort, spmxv, trace) sharing
// flag parsing, machine validation and output plumbing.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/aem"
)

// Command is one aem subcommand.
type Command struct {
	Name    string
	Summary string
	Run     func(prog string, args []string) int
}

// Commands lists the subcommands in help order.
func Commands() []Command {
	return []Command{
		{"bench", "run the experiment registry: rendered tables, per-experiment CSV, JSON records", benchCmd},
		{"gate", "check per-point allocations and wall clock of timed runs, and dictload stall Q, against one committed baseline", gateCmd},
		{"dict", "drive a dictionary op stream: buffer tree vs B-tree vs bounds", dictCmd},
		{"dictload", "concurrent load against the sharded dictionary service: throughput, p50/p99/max, flush stalls", dictloadCmd},
		{"sort", "sort a generated workload and compare against the paper's bounds", sortCmd},
		{"spmxv", "sparse matrix × dense vector with both Section 5 algorithms", spmxvCmd},
		{"trace", "record an algorithm's I/O trace and analyze its §4 rounds", traceCmd},
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: aem <command> [flags]\n\ncommands:\n")
	for _, c := range Commands() {
		fmt.Fprintf(w, "  %-9s %s\n", c.Name, c.Summary)
	}
	fmt.Fprintf(w, "\nrun `aem <command> -h` for the command's flags\n")
}

// Main dispatches an aem invocation and returns its exit code.
func Main(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
		return 0
	}
	for _, c := range Commands() {
		if c.Name == args[0] {
			return c.Run("aem "+c.Name, args[1:])
		}
	}
	fmt.Fprintf(os.Stderr, "aem: unknown command %q\n\n", args[0])
	usage(os.Stderr)
	return 2
}

// fail prints a prog-prefixed error line to stderr.
func fail(prog, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
}

// parseFlags parses args into fs, which is built with
// flag.ContinueOnError so that Main returns rather than exits: -h prints
// the command's flags (code 0), and an unknown or malformed flag is a
// usage error reported in one prog-prefixed line (code 2). ok is false
// when the command must return code without running.
func parseFlags(fs *flag.FlagSet, args []string) (code int, ok bool) {
	fs.SetOutput(io.Discard)
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return 0, false
	case err != nil:
		fail(fs.Name(), "%v", err)
		return 2, false
	}
	return 0, true
}

// machineFlags registers the -m/-b/-omega machine flags every subcommand
// shares and returns a validator producing the configured machine.
func machineFlags(fs *flag.FlagSet, m, b, omega int) func() (aem.Config, error) {
	mv := fs.Int("m", m, "internal memory M in items")
	bv := fs.Int("b", b, "block size B in items")
	wv := fs.Int("omega", omega, "write/read cost ratio ω")
	return func() (aem.Config, error) {
		cfg := aem.Config{M: *mv, B: *bv, Omega: *wv}
		if err := cfg.Validate(); err != nil {
			return cfg, err
		}
		return cfg, nil
	}
}

// needBlocks rejects a machine whose internal memory holds fewer than k
// blocks, the minimum alg documents; below it alg would panic mid-run.
func needBlocks(cfg aem.Config, k int, alg string) error {
	if cfg.M < k*cfg.B {
		return fmt.Errorf("%s needs M ≥ %dB = %d, got M=%d", alg, k, k*cfg.B, cfg.M)
	}
	return nil
}
