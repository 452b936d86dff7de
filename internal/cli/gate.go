package cli

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The gate's fixed rules.
const (
	stallCutMin        = 10  // amortized ÷ deamortized worst stall, in ns and in Q
	stallThroughputMin = 0.9 // deamortized ÷ amortized ops/sec
	stallCeilingTol    = 10  // deamortized worst stall ÷ the baseline's
	profileNewMaxPct   = 10  // flat% above which a function the baseline lacks fails
)

// gateCmd is the one regression gate. It reads every input (stdin when no
// file is named) to the end, then runs each check its input carries
// evidence for against one committed baseline:
//
//	aem gate -json BENCH.json >> BENCH.json
//	aem gate -tol 6 LAT.json DICTLOAD.json
//	aem gate -write-baseline profile_summary.txt
//
// The checks:
//   - throughput: ns/point per experiment, from the wall_ns of timed
//     `aem bench -json -timing` rows, within -tol × the baseline's.
//     The tolerance is generous: it catches a re-boxed hot path or a
//     quadratic regression, not a noisy runner. Experiments the baseline
//     lacks are reported and skipped until pinned.
//   - stall: the last amortized and the last deamortized `aem dictload
//     -json` record must show a ≥10× cut of the worst commit stall, in
//     wall clock and in Q, at ≥0.9× the amortized ops/sec, with the
//     deamortized stall within 10× the baseline's.
//   - profile: no function in `go tool pprof -top` rows above 10% flat
//     that the baseline does not list.
//
// Under -json each check emits one "type":"gate" record to stdout and the
// human lines move to stderr; readers of timed streams skip typed records
// they do not know, so an artifact with its verdicts appended re-gates the
// same. -write-baseline rewrites only what the input has evidence for.
// Exit codes: 0 pass, 1 a check failed, 2 unusable input or baseline.
func gateCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		basePath = fs.String("baseline", "testdata/gate_baseline.json", "committed baseline `file` every check compares against")
		tol      = fs.Float64("tol", 3, "throughput check: maximum ns/point slowdown factor vs the baseline")
		write    = fs.Bool("write-baseline", false, "rewrite the baseline sections the input has evidence for instead of gating")
		jsonOut  = fs.Bool("json", false, "emit one \"type\":\"gate\" JSON record per check to stdout (human lines to stderr)")
	)
	fs.Parse(args)
	if !(*tol > 0) {
		fail(prog, "-tol must be positive, got %v", *tol)
		return 2
	}
	ev, err := readGateInputs(fs.Args())
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}
	base, err := readGateBaseline(*basePath)
	if *write && errors.Is(err, os.ErrNotExist) {
		base, err = &gateBaseline{}, nil
	}
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}
	if *write {
		ev.pin(base)
		raw, err := json.MarshalIndent(base, "", "  ")
		if err == nil {
			err = os.WriteFile(*basePath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fail(prog, "%v", err)
			return 2
		}
		fmt.Printf("baseline written: %s\n", *basePath)
		return 0
	}

	v := &verdicts{human: os.Stdout}
	if *jsonOut {
		v.human, v.enc = os.Stderr, json.NewEncoder(os.Stdout)
	}
	ev.gateThroughput(v, base, *tol)
	ev.gateStall(v, base)
	ev.gateProfile(v, base)
	if v.err != nil {
		fail(prog, "%v", v.err)
		return 1
	}
	if v.failures > 0 {
		fail(prog, "%d check(s) failed", v.failures)
		return 1
	}
	return 0
}

// gateBaseline is the committed reference, one section per check.
type gateBaseline struct {
	Note       string             `json:"note"`
	Throughput map[string]float64 `json:"throughput_ns_per_point"`
	StallNS    int64              `json:"deamortized_max_stall_ns"`
	Profile    []string           `json:"profile_functions"`
}

const gateBaselineNote = "`aem gate` reference: ns/point per experiment, the worst stall of `aem dictload -ops 160000 -gor 1 " +
	"-shards 2 -deamortize`, and the functions known to the profile check. `aem gate -write-baseline FILE` re-pins what FILE measured."

func readGateBaseline(path string) (*gateBaseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base gateBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &base, nil
}

// gateEvidence is what the gate read from its inputs.
type gateEvidence struct {
	order  []string // timed experiments in first-seen order
	points map[string]int
	wallNS map[string]int64
	legs   map[bool]*dictloadRecord // by Deamortize
	prof   map[string]float64       // function → its largest flat%
}

func (ev *gateEvidence) nsPerPoint(id string) float64 {
	return float64(ev.wallNS[id]) / float64(ev.points[id])
}

// readGateInputs reads the named files, or stdin when none is named, and
// rejects input that carries no evidence or half of a stall comparison.
func readGateInputs(paths []string) (*gateEvidence, error) {
	ev := &gateEvidence{points: map[string]int{}, wallNS: map[string]int64{},
		legs: map[bool]*dictloadRecord{}, prof: map[string]float64{}}
	if len(paths) == 0 {
		if err := ev.read("stdin", os.Stdin); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		err = ev.read(p, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	am, de := ev.legs[false], ev.legs[true]
	switch {
	case am == nil && de == nil:
		if len(ev.order) == 0 && len(ev.prof) == 0 {
			return nil, errors.New("no evidence: the input holds no timed records, dictload records or pprof -top rows")
		}
	case am == nil || de == nil:
		return nil, errors.New("stall evidence needs both an amortized and a -deamortize dictload record")
	case am.MaxStallNS <= 0 || de.MaxStallNS <= 0 || am.MaxStallQ <= 0 || de.MaxStallQ <= 0:
		return nil, fmt.Errorf("stall telemetry missing: amortized %dns Q %d, deamortized %dns Q %d — runs too small to flush?",
			am.MaxStallNS, am.MaxStallQ, de.MaxStallNS, de.MaxStallQ)
	}
	return ev, nil
}

// read takes one input line by line. A JSON line is a timed bench row
// (untyped, with wall_ns) or a dictload leg; other typed records are
// skipped. Any other line is a pprof -top row.
func (ev *gateEvidence) read(name string, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if raw[0] != '{' {
			ev.profileRow(string(raw))
			continue
		}
		var rec struct {
			Type       string `json:"type"`
			Experiment string `json:"experiment"`
			WallNS     *int64 `json:"wall_ns"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("%s:%d: %v", name, line, err)
		}
		switch {
		case rec.Type == "dictload":
			leg := new(dictloadRecord)
			if err := json.Unmarshal(raw, leg); err != nil {
				return fmt.Errorf("%s:%d: %v", name, line, err)
			}
			ev.legs[leg.Deamortize] = leg
		case rec.Type == "" && rec.Experiment != "" && rec.WallNS != nil:
			if ev.points[rec.Experiment] == 0 {
				ev.order = append(ev.order, rec.Experiment)
			}
			ev.points[rec.Experiment]++
			ev.wallNS[rec.Experiment] += *rec.WallNS
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	return nil
}

// profileRow takes one `go tool pprof -top` row,
//
//	1.2s 40.00% 40.00%  1.5s 50.00%  repro/internal/dict.(*BufferTree).flushNode
//
// (flat, flat%, sum%, cum, cum%, name). Banner lines lack the two
// percent-shaped columns and are skipped, so concatenated cpu and mem
// dumps read as one inventory; a function seen twice keeps its larger
// flat%.
func (ev *gateEvidence) profileRow(line string) {
	fields := strings.Fields(line)
	if len(fields) < 6 {
		return
	}
	pct, ok := parsePct(fields[1])
	if _, sumOK := parsePct(fields[2]); !ok || !sumOK {
		return
	}
	name := strings.Join(fields[5:], " ")
	if old, seen := ev.prof[name]; !seen || pct > old {
		ev.prof[name] = pct
	}
}

func parsePct(s string) (float64, bool) {
	if !strings.HasSuffix(s, "%") {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v, err == nil
}

// pin writes the evidence into the baseline sections it covers.
func (ev *gateEvidence) pin(base *gateBaseline) {
	if len(ev.order) > 0 {
		if base.Throughput == nil {
			base.Throughput = map[string]float64{}
		}
		for _, id := range ev.order {
			base.Throughput[id] = ev.nsPerPoint(id)
		}
	}
	if de := ev.legs[true]; de != nil {
		base.StallNS = de.MaxStallNS
	}
	if len(ev.prof) > 0 {
		base.Profile = base.Profile[:0]
		for name := range ev.prof {
			base.Profile = append(base.Profile, name)
		}
		sort.Strings(base.Profile)
	}
	base.Note = gateBaselineNote
}

// gateRecord is the machine-readable verdict of one check under -json.
// Limit is the bound Value is held to: a ceiling for ns/point, stall and
// flat%, a floor for the stall ratios and the throughput fraction. The
// "gate" type keeps it out of every wall_ns aggregation.
type gateRecord struct {
	Type    string  `json:"type"`    // "gate"
	Check   string  `json:"check"`   // throughput | stall | profile
	Subject string  `json:"subject"` // experiment, stall rule or function
	Value   float64 `json:"value"`
	Limit   float64 `json:"limit,omitempty"`
	Verdict string  `json:"verdict"` // ok | fail | no-baseline
}

// verdicts prints one human line per check and, under -json, its record.
type verdicts struct {
	human    io.Writer
	enc      *json.Encoder
	failures int
	err      error
}

var verdictTags = map[string]string{"ok": "ok", "fail": "FAIL", "no-baseline": "skip"}

// add records a check; ok picks its verdict unless rec already has one.
func (v *verdicts) add(rec gateRecord, ok bool, format string, a ...interface{}) {
	rec.Type = "gate"
	if rec.Verdict == "" {
		rec.Verdict = "fail"
		if ok {
			rec.Verdict = "ok"
		}
	}
	if rec.Verdict == "fail" {
		v.failures++
	}
	fmt.Fprintf(v.human, "%-4s  %-10s  %s\n", verdictTags[rec.Verdict], rec.Check, fmt.Sprintf(format, a...))
	if v.enc != nil && v.err == nil {
		v.err = v.enc.Encode(&rec)
	}
}

func (ev *gateEvidence) gateThroughput(v *verdicts, base *gateBaseline, tol float64) {
	for _, id := range ev.order {
		got, ref := ev.nsPerPoint(id), base.Throughput[id]
		rec := gateRecord{Check: "throughput", Subject: id, Value: got}
		if ref <= 0 {
			rec.Verdict = "no-baseline"
			v.add(rec, false, "%-10s %8.3f ms/point (%d points), no baseline: re-pin with -write-baseline",
				id, got/1e6, ev.points[id])
			continue
		}
		rec.Limit = tol * ref
		v.add(rec, got <= rec.Limit, "%-10s %8.3f ms/point vs baseline %8.3f ms/point: %.2fx (limit %gx)",
			id, got/1e6, ref/1e6, got/ref, tol)
	}
}

func (ev *gateEvidence) gateStall(v *verdicts, base *gateBaseline) {
	am, de := ev.legs[false], ev.legs[true]
	if am == nil {
		return
	}
	fmt.Fprintf(v.human, "amortized    worst stall %.3fms, Q %d at %.0f ops/sec (%s, %d shards, %d gor)\n",
		float64(am.MaxStallNS)/1e6, am.MaxStallQ, am.OpsPerSec, am.Scenario, am.Shards, am.Goroutines)
	fmt.Fprintf(v.human, "deamortized  worst stall %.3fms, Q %d at %.0f ops/sec (debt high-water %d)\n",
		float64(de.MaxStallNS)/1e6, de.MaxStallQ, de.OpsPerSec, de.DebtHighWater)
	floor := func(subject, what string, got, limit float64) {
		v.add(gateRecord{Check: "stall", Subject: subject, Value: got, Limit: limit},
			got >= limit, "%s %.2f× (need ≥ %.2f×)", what, got, limit)
	}
	floor("stall_ratio", "stall reduction", float64(am.MaxStallNS)/float64(de.MaxStallNS), stallCutMin)
	floor("stall_q_ratio", "stall Q reduction", float64(am.MaxStallQ)/float64(de.MaxStallQ), stallCutMin)
	floor("throughput_fraction", "throughput held vs amortized", de.OpsPerSec/am.OpsPerSec, stallThroughputMin)

	rec := gateRecord{Check: "stall", Subject: "deamortized_stall_ns", Value: float64(de.MaxStallNS)}
	if base.StallNS <= 0 {
		rec.Verdict = "no-baseline"
		v.add(rec, false, "deamortized stall %.3fms, no baseline: re-pin with -write-baseline", rec.Value/1e6)
		return
	}
	rec.Limit = float64(base.StallNS) * stallCeilingTol
	v.add(rec, rec.Value <= rec.Limit, "deamortized stall %.3fms vs baseline %.3fms (limit %d× = %.3fms)",
		rec.Value/1e6, float64(base.StallNS)/1e6, stallCeilingTol, rec.Limit/1e6)
}

func (ev *gateEvidence) gateProfile(v *verdicts, base *gateBaseline) {
	if len(ev.prof) == 0 {
		return
	}
	known := make(map[string]bool, len(base.Profile))
	for _, name := range base.Profile {
		known[name] = true
	}
	var heavy []string
	for name, pct := range ev.prof {
		if pct > profileNewMaxPct {
			heavy = append(heavy, name)
		}
	}
	sort.Strings(heavy)
	fmt.Fprintf(v.human, "profile      %d function(s), %d known; those above %d%% flat fail unless known:\n",
		len(ev.prof), len(base.Profile), profileNewMaxPct)
	for _, name := range heavy {
		v.add(gateRecord{Check: "profile", Subject: name, Value: ev.prof[name], Limit: profileNewMaxPct},
			known[name], "%6.2f%%  %s", ev.prof[name], name)
	}
}
