package cli

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// dictloadRecord is the JSON report emitted by `aem dictload -json` and
// consumed by `aem stallgate`. One type in one place so the producer and
// the gate cannot drift.
type dictloadRecord struct {
	Type          string  `json:"type"` // "dictload"
	Scenario      string  `json:"scenario"`
	Engine        string  `json:"engine"`
	Shards        int     `json:"shards"`
	Goroutines    int     `json:"goroutines"`
	Deamortize    bool    `json:"deamortize"`
	Ops           int64   `json:"ops"`
	WallNS        int64   `json:"wall_ns"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	P50NS         int64   `json:"p50_ns"`
	P99NS         int64   `json:"p99_ns"`
	P999NS        int64   `json:"p999_ns"`
	MaxNS         int64   `json:"max_ns"`
	MaxStallNS    int64   `json:"max_stall_ns"`
	P999StallNS   int64   `json:"p999_stall_ns"`
	MaxFlushNS    int64   `json:"max_flush_ns"`
	DebtHighWater int64   `json:"debt_high_water"`
	Flushes       int64   `json:"flushes"`
	Reads         int64   `json:"reads"`
	Writes        int64   `json:"writes"`
	SnapReads     int64   `json:"snap_reads"`
	Cost          int64   `json:"cost"`
	CostPerOp     float64 `json:"cost_per_op"`
}

// stallBaseline is the committed absolute reference for the deamortized
// leg: the gate's ratio checks are machine-relative (both legs run on the
// same box), but a committed stall ceiling catches the regression where
// both legs degrade together.
type stallBaseline struct {
	Note       string  `json:"note"`
	MaxStallNS int64   `json:"max_stall_ns"`
	OpsPerSec  float64 `json:"ops_per_sec"`
}

// stallgateCmd compares an amortized and a deamortized `aem dictload
// -json` run and enforces the deamortization contract: the debt-queue
// commit path must cut the worst commit-path stall by at least -ratio
// while keeping at least -throughput of the amortized ops/sec. With
// -baseline it also caps the deamortized stall at -tol × the committed
// value, so a regression that slows both modes equally still fails.
//
//	aem dictload -gor 1 -json          > amortized.json
//	aem dictload -gor 1 -deamortize -json > deamortized.json
//	aem stallgate -amortized amortized.json -deamortized deamortized.json \
//	    -baseline testdata/stall_baseline.json
//
// -write-baseline rewrites the baseline file from the deamortized run
// instead of gating. Exit codes: 0 pass, 1 gate failure, 2 usage error.
func stallgateCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		amortizedPath   = fs.String("amortized", "", "dictload -json output from the amortized run (required)")
		deamortizedPath = fs.String("deamortized", "", "dictload -json output from the -deamortize run (required)")
		ratio           = fs.Float64("ratio", 10, "required worst-stall reduction: amortized ≥ ratio × deamortized")
		throughput      = fs.Float64("throughput", 0.9, "required throughput fraction: deamortized ≥ frac × amortized ops/sec")
		baselinePath    = fs.String("baseline", "", "committed stall baseline JSON (optional)")
		tol             = fs.Float64("tol", 3.0, "allowed deamortized stall vs baseline: current ≤ tol × baseline")
		writeBase       = fs.Bool("write-baseline", false, "rewrite -baseline from the deamortized run instead of gating")
		note            = fs.String("note", "", "note stored with -write-baseline")
		jsonOut         = fs.Bool("json", false, "emit one JSON verdict record after the human output")
	)
	fs.Parse(args)

	if *amortizedPath == "" || *deamortizedPath == "" {
		fail(prog, "-amortized and -deamortized are both required")
		return 2
	}
	am, err := readDictloadRecord(*amortizedPath)
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}
	de, err := readDictloadRecord(*deamortizedPath)
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}
	if am.Deamortize {
		fail(prog, "%s: record is from a -deamortize run, want the amortized leg", *amortizedPath)
		return 2
	}
	if !de.Deamortize {
		fail(prog, "%s: record is from an amortized run, want the -deamortize leg", *deamortizedPath)
		return 2
	}
	if am.MaxStallNS <= 0 || de.MaxStallNS <= 0 {
		fail(prog, "stall telemetry missing: amortized %dns, deamortized %dns — runs too small to flush?", am.MaxStallNS, de.MaxStallNS)
		return 2
	}

	if *writeBase {
		if *baselinePath == "" {
			fail(prog, "-write-baseline needs -baseline")
			return 2
		}
		base := stallBaseline{Note: *note, MaxStallNS: de.MaxStallNS, OpsPerSec: de.OpsPerSec}
		if err := writeStallBaseline(*baselinePath, base); err != nil {
			fail(prog, "%v", err)
			return 2
		}
		fmt.Printf("wrote %s: deamortized worst stall %dns at %.0f ops/sec\n", *baselinePath, base.MaxStallNS, base.OpsPerSec)
		return 0
	}

	gotRatio := float64(am.MaxStallNS) / float64(de.MaxStallNS)
	gotFrac := de.OpsPerSec / am.OpsPerSec
	failures := 0
	verdict := func(ok bool, format string, a ...interface{}) {
		tag := "ok  "
		if !ok {
			tag = "FAIL"
			failures++
		}
		fmt.Printf("%s  %s\n", tag, fmt.Sprintf(format, a...))
	}
	fmt.Printf("amortized    worst stall %.3fms at %.0f ops/sec (%s, %d shards, %d gor)\n",
		float64(am.MaxStallNS)/1e6, am.OpsPerSec, am.Scenario, am.Shards, am.Goroutines)
	fmt.Printf("deamortized  worst stall %.3fms at %.0f ops/sec (debt high-water %d)\n",
		float64(de.MaxStallNS)/1e6, de.OpsPerSec, de.DebtHighWater)
	verdict(gotRatio >= *ratio, "stall reduction %.1f× (need ≥ %.1f×)", gotRatio, *ratio)
	verdict(gotFrac >= *throughput, "throughput held %.2f× amortized (need ≥ %.2f×)", gotFrac, *throughput)

	var base stallBaseline
	haveBase := false
	if *baselinePath != "" {
		if base, err = readStallBaseline(*baselinePath); err != nil {
			fail(prog, "%v", err)
			return 2
		}
		haveBase = true
		ceil := float64(base.MaxStallNS) * *tol
		verdict(float64(de.MaxStallNS) <= ceil,
			"deamortized stall %.3fms vs baseline %.3fms (cap %.1f× = %.3fms)",
			float64(de.MaxStallNS)/1e6, float64(base.MaxStallNS)/1e6, *tol, ceil/1e6)
	}

	if *jsonOut {
		out := struct {
			Type        string  `json:"type"` // "stallgate"
			Pass        bool    `json:"pass"`
			StallRatio  float64 `json:"stall_ratio"`
			NeedRatio   float64 `json:"need_ratio"`
			Throughput  float64 `json:"throughput_fraction"`
			NeedFrac    float64 `json:"need_fraction"`
			DeamStallNS int64   `json:"deamortized_stall_ns"`
			BaselineNS  int64   `json:"baseline_stall_ns,omitempty"`
		}{"stallgate", failures == 0, gotRatio, *ratio, gotFrac, *throughput, de.MaxStallNS, 0}
		if haveBase {
			out.BaselineNS = base.MaxStallNS
		}
		if err := json.NewEncoder(os.Stdout).Encode(&out); err != nil {
			fail(prog, "%v", err)
			return 1
		}
	}
	if failures > 0 {
		fail(prog, "%d check(s) failed", failures)
		return 1
	}
	return 0
}

// readDictloadRecord scans a JSON Lines file and returns the last
// "dictload" record, so the gate tolerates logs with other record types
// (or repeated runs — last wins) interleaved.
func readDictloadRecord(path string) (dictloadRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return dictloadRecord{}, err
	}
	defer f.Close()
	var rec dictloadRecord
	found := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil || probe.Type != "dictload" {
			continue
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return dictloadRecord{}, fmt.Errorf("%s: %v", path, err)
		}
		found = true
	}
	if err := sc.Err(); err != nil {
		return dictloadRecord{}, fmt.Errorf("%s: %v", path, err)
	}
	if !found {
		return dictloadRecord{}, fmt.Errorf("%s: no dictload record found", path)
	}
	return rec, nil
}

func readStallBaseline(path string) (stallBaseline, error) {
	var base stallBaseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("%s: %v", path, err)
	}
	if base.MaxStallNS <= 0 {
		return base, fmt.Errorf("%s: baseline has no max_stall_ns", path)
	}
	return base, nil
}

func writeStallBaseline(path string, base stallBaseline) error {
	data, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
