// Command perfbench is the repository benchmark: four workloads against
// the public APIs of dictsrv, dict, aem and sorting, each answer checked
// against an oracle. See README.md in this directory.
//
//	perfbench --workload drift-write --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — the end-to-end ones untraced
// (--trace 0), the per-layer ones from a traced run (--trace 1). A wrong
// answer makes the exit status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"

	"repro/internal/workload"
)

// serveSpecs are the round workloads: one client, a fixed 160k-op stream
// per round, 2 shards of (1024, 32, 16) over a 65536-key space.
var serveSpecs = map[string]serveSpec{
	"drift-write": {
		scenario: workload.DriftOps, keyspace: 65536, roundOps: 160000,
		pinnedQ: map[uint64]int64{1: 8131758},
	},
	"flashcrowd-deam": {
		scenario: workload.FlashCrowdOps, keyspace: 65536, roundOps: 160000,
		deamortize: true,
	},
}

var workloads = []string{"drift-write", "flashcrowd-deam", "readmostly", "sort-aem"}

// outcome is what the result line reports beside the metrics.
type outcome struct {
	attempted, failed int64
	errs              []error // checks beyond single answers
}

func main() {
	name := flag.String("workload", "", "workload: drift-write | flashcrowd-deam | readmostly | sort-aem")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errWrong = errors.New("wrong answers")

func run(name string, seed uint64, seconds float64, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	traced := trace == 1
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", name, seed, seconds, trace)

	rep := newReport()
	var out outcome
	var err error
	switch {
	case serveSpecs[name].roundOps > 0:
		out, err = roundWorkload(serveSpecs[name], seed, seconds, traced, rep)
	case name == "readmostly":
		out, err = readMostlyWorkload(seed, seconds, traced, rep)
	case name == "sort-aem":
		out, err = sortWorkload(seed, seconds, traced, rep)
	default:
		return fmt.Errorf("unknown workload %q (have %v)", name, workloads)
	}
	if err != nil {
		return err
	}

	decls := endToEnd
	if traced {
		decls = perLayer
	}
	metrics, err := rep.metrics(decls)
	if err != nil {
		return err
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	correct := out.failed == 0 && len(out.errs) == 0
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-30s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return errWrong
	}
	return nil
}

// roundWorkload runs drift-write or flashcrowd-deam.
func roundWorkload(spec serveSpec, seed uint64, seconds float64, traced bool, rep *report) (outcome, error) {
	run, err := runRounds(spec, seed, seconds)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: run.ops, failed: run.failed, errs: run.errs}
	reportServe(rep, run)
	if !traced {
		return out, nil
	}
	clk := calibrateClock()
	if err := reportServeLayers(rep, run); err != nil {
		return out, err
	}
	replayOnce := func(timed bool) (*replay, int64) {
		rp := newReplay(spec.keyspace, spec.deamortize, timed, clk)
		m := newModel(spec.keyspace)
		start := cpuNow()
		for _, op := range run.stream {
			if err := rp.do(op, m); err != nil {
				out.errs = append(out.errs, fmt.Errorf("replay: %v", err))
			}
		}
		ns := (cpuNow() - start).Nanoseconds()
		rp.flush()
		return rp, ns
	}
	plain, plainNS := replayOnce(false)
	timed, timedNS := replayOnce(true)
	if spec.pinnedQ != nil {
		st := run.stats[0]
		for _, rp := range []*replay{plain, timed} {
			if r, w, s := rp.io(); r != st.Reads || w != st.Writes || s != st.SnapReads {
				out.errs = append(out.errs, fmt.Errorf("replay I/O (%d reads, %d writes, %d snapshot reads) != service Stats (%d, %d, %d)",
					r, w, s, st.Reads, st.Writes, st.SnapReads))
			}
		}
	}
	if err := reportReplayLayers(rep, timed, run); err != nil {
		return out, err
	}
	rep.set("trace.overhead_frac", float64(timedNS)/float64(plainNS)-1)
	return out, nil
}

func readMostlyWorkload(seed uint64, seconds float64, traced bool, rep *report) (outcome, error) {
	run, err := runReadMostly(seed, seconds)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: run.ops, failed: run.failed, errs: run.errs}
	reportServe(rep, run)
	if !traced {
		return out, nil
	}
	clk := calibrateClock()
	if err := reportServeLayers(rep, run); err != nil {
		return out, err
	}
	replayOnce := func(timed bool) (*replay, int64) {
		rp := newReplay(rmKeyspace, false, timed, clk)
		rp.load(rmPreload(seed))
		rp.flush()
		rp.resetTiming()
		m, gen := rmModel(), newRMOps(seed)
		// The first round.
		start := cpuNow()
		for i := 0; i < rmRoundOps; i++ {
			if err := rp.do(gen.next(), m); err != nil {
				out.errs = append(out.errs, fmt.Errorf("replay: %v", err))
			}
		}
		ns := (cpuNow() - start).Nanoseconds()
		rp.flush()
		return rp, ns
	}
	_, plainNS := replayOnce(false)
	timed, timedNS := replayOnce(true)
	if err := reportReplayLayers(rep, timed, run); err != nil {
		return out, err
	}
	rep.set("trace.overhead_frac", float64(timedNS)/float64(plainNS)-1)
	return out, nil
}

func sortWorkload(seed uint64, seconds float64, traced bool, rep *report) (outcome, error) {
	run, err := runSort(seed, seconds)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: run.sorts, failed: run.failed, errs: run.errs}
	reportSort(rep, run)
	if !traced {
		return out, nil
	}
	// sort-aem runs no dictionary code.
	rep.zero("put_p50_us", "put_p99_us", "get_p50_us", "get_p99_us", "scan_p50_us", "scan_p99_us",
		"dictsrv.put_overhead_us", "dictsrv.get_overhead_us", "dictsrv.commit_stall_p99_us",
		"dictsrv.commit_stall_max_us", "dictsrv.debt_high_water", "dictsrv.flush_sections", "dictsrv.flush_max_us",
		"dict.apply_busy_s", "dict.apply_p50_us", "dict.flushstep_busy_s", "dict.node_flushes",
		"dict.snapshot_busy_s", "dict.snapshot_p50_us", "dict.snapshot_alloc_kb", "dict.get_p50_us",
		"dict.get_blocks_per_call", "dict.range_p50_us", "dict.range_blocks_per_call", "dict.height")
	rep.set("error_rate", float64(run.failed)/float64(run.sorts))
	return out, reportSortLayers(rep, run, seed, calibrateClock())
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %v", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
