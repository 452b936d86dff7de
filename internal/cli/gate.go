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
)

// The gate's fixed rules.
const (
	allocGrowthMax     = 1.25     // heap objects and bytes per point ÷ the baseline's
	allocObjectsSlack  = 64       // objects per point allowed on top of that
	allocBytesSlack    = 64 << 10 // bytes per point allowed on top of that
	wallGrowthMax      = 3        // wall ns per point ÷ the baseline's
	wallJudgedMinNS    = 1e6      // baseline wall ns per point below which wall clock is not judged
	stallCutMin        = 10       // amortized ÷ deamortized worst stall Q
	stallThroughputMin = 0.9      // deamortized ÷ amortized ops/sec
)

// gateCmd is the one regression gate. It reads every input (stdin when no
// file is named) to the end, then runs each check its input carries
// evidence for against one committed baseline:
//
//	aem gate -json BENCH.json DICTLOAD.json >> BENCH.json
//	aem gate -write-baseline BENCH.json DICTLOAD.json
//
// It judges what repeats from run to run, so a check fails on a change,
// not on a busy machine:
//   - per point, from the rows of `aem bench -json -timing` (which runs
//     points one at a time): heap objects and bytes within 1.25× the
//     baseline's plus a small fixed slack, for every experiment; and wall
//     ns within 3× the baseline's, only where the baseline point takes at
//     least 1 ms, since shorter points move with the machine. Experiments
//     the baseline lacks are reported and skipped until pinned.
//   - stall: the last amortized and the last deamortized `aem dictload
//     -json` record must show a ≥10× cut of the worst commit stall's Q at
//     ≥0.9× the amortized ops/sec, and the deamortized stall Q may not
//     exceed the baseline's. Q is a count; wall-clock stalls are left to
//     the in-process test that times them in thread CPU time.
//
// Under -json each check emits one "type":"gate" record to stdout and the
// human lines move to stderr; the gate skips typed records it does not
// know, so an artifact with its verdicts appended re-gates the same.
// -write-baseline rewrites only what the input has evidence for.
// Exit codes: 0 pass, 1 a check failed, 2 unusable input or baseline.
func gateCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		basePath = fs.String("baseline", "testdata/gate_baseline.json", "committed baseline `file` every check compares against")
		write    = fs.Bool("write-baseline", false, "rewrite the baseline sections the input has evidence for instead of gating")
		jsonOut  = fs.Bool("json", false, "emit one \"type\":\"gate\" JSON record per check to stdout (human lines to stderr)")
	)
	fs.Parse(args)
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
	ev.gatePoints(v, base)
	ev.gateStall(v, base)
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
	Note   string               `json:"note"`
	Points map[string]pointCost `json:"per_point"`
	StallQ int64                `json:"deamortized_max_stall_q"`
}

// pointCost is one experiment's mean cost per grid point.
type pointCost struct {
	WallNS  float64 `json:"wall_ns"`
	Objects float64 `json:"alloc_objects"`
	Bytes   float64 `json:"alloc_bytes"`
}

const gateBaselineNote = "`aem gate` reference: per experiment, the mean wall ns, heap objects and heap bytes of one grid point " +
	"of `aem bench -json -timing`, and the worst commit stall Q of `aem dictload -ops 160000 -gor 1 -shards 2 -deamortize`. " +
	"`aem gate -write-baseline FILE...` re-pins what the files measured."

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
	sums   map[string]pointCost
	legs   map[bool]*dictloadRecord // by Deamortize
}

// perPoint is experiment id's mean cost per point.
func (ev *gateEvidence) perPoint(id string) pointCost {
	n, sum := float64(ev.points[id]), ev.sums[id]
	return pointCost{WallNS: sum.WallNS / n, Objects: sum.Objects / n, Bytes: sum.Bytes / n}
}

// readGateInputs reads the named files, or stdin when none is named, and
// rejects input that carries no evidence or half of a stall comparison.
func readGateInputs(paths []string) (*gateEvidence, error) {
	ev := &gateEvidence{points: map[string]int{}, sums: map[string]pointCost{}, legs: map[bool]*dictloadRecord{}}
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
		if len(ev.order) == 0 {
			return nil, errors.New("no evidence: the input holds no timed bench rows or dictload records")
		}
	case am == nil || de == nil:
		return nil, errors.New("stall evidence needs both an amortized and a -deamortize dictload record")
	case am.MaxStallQ <= 0 || de.MaxStallQ <= 0:
		return nil, fmt.Errorf("stall telemetry missing: amortized Q %d, deamortized Q %d — runs too small to flush?",
			am.MaxStallQ, de.MaxStallQ)
	}
	return ev, nil
}

// read takes one input of JSON lines. A line is a timed bench row
// (untyped, with wall_ns and the allocation fields) or a dictload leg;
// untimed rows and other typed records are skipped.
func (ev *gateEvidence) read(name string, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec struct {
			Type         string  `json:"type"`
			Experiment   string  `json:"experiment"`
			WallNS       *int64  `json:"wall_ns"`
			AllocObjects *uint64 `json:"alloc_objects"`
			AllocBytes   *uint64 `json:"alloc_bytes"`
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
			if rec.AllocObjects == nil || rec.AllocBytes == nil {
				return fmt.Errorf("%s:%d: timed %s row without alloc_objects and alloc_bytes: re-run it with this aem bench -timing",
					name, line, rec.Experiment)
			}
			if ev.points[rec.Experiment] == 0 {
				ev.order = append(ev.order, rec.Experiment)
			}
			ev.points[rec.Experiment]++
			sum := ev.sums[rec.Experiment]
			sum.WallNS += float64(*rec.WallNS)
			sum.Objects += float64(*rec.AllocObjects)
			sum.Bytes += float64(*rec.AllocBytes)
			ev.sums[rec.Experiment] = sum
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	return nil
}

// pin writes the evidence into the baseline sections it covers.
func (ev *gateEvidence) pin(base *gateBaseline) {
	if len(ev.order) > 0 && base.Points == nil {
		base.Points = map[string]pointCost{}
	}
	for _, id := range ev.order {
		base.Points[id] = ev.perPoint(id)
	}
	if de := ev.legs[true]; de != nil {
		base.StallQ = de.MaxStallQ
	}
	base.Note = gateBaselineNote
}

// gateRecord is the machine-readable verdict of one check under -json.
// Limit is the bound Value is held to: a ceiling for the per-point costs
// and the stall Q, a floor for the stall Q ratio and the throughput
// fraction.
type gateRecord struct {
	Type    string  `json:"type"`    // "gate"
	Check   string  `json:"check"`   // objects | bytes | wall | stall
	Subject string  `json:"subject"` // experiment or stall rule
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
	fmt.Fprintf(v.human, "%-4s  %-7s  %s\n", verdictTags[rec.Verdict], rec.Check, fmt.Sprintf(format, a...))
	if v.enc != nil && v.err == nil {
		v.err = v.enc.Encode(&rec)
	}
}

// gatePoints holds every timed experiment's per-point costs to their
// ceilings: objects and bytes always, wall clock where the baseline point
// takes at least wallJudgedMinNS.
func (ev *gateEvidence) gatePoints(v *verdicts, base *gateBaseline) {
	for _, id := range ev.order {
		got := ev.perPoint(id)
		ref, pinned := base.Points[id]
		if !pinned {
			v.add(gateRecord{Check: "objects", Subject: id, Value: got.Objects, Verdict: "no-baseline"}, false,
				"%-8s %.1f objects/point (%d points), no baseline: re-pin with -write-baseline", id, got.Objects, ev.points[id])
			continue
		}
		ceiling := func(check, unit string, got, ref, factor, slack float64) {
			rec := gateRecord{Check: check, Subject: id, Value: got, Limit: factor*ref + slack}
			v.add(rec, got <= rec.Limit, "%-8s %14.1f %s/point vs baseline %14.1f (limit %gx + %g = %.1f)",
				id, got, unit, ref, factor, slack, rec.Limit)
		}
		ceiling("objects", "objects", got.Objects, ref.Objects, allocGrowthMax, allocObjectsSlack)
		ceiling("bytes", "bytes", got.Bytes, ref.Bytes, allocGrowthMax, allocBytesSlack)
		if ref.WallNS >= wallJudgedMinNS {
			ceiling("wall", "ns", got.WallNS, ref.WallNS, wallGrowthMax, 0)
		}
	}
}

func (ev *gateEvidence) gateStall(v *verdicts, base *gateBaseline) {
	am, de := ev.legs[false], ev.legs[true]
	if am == nil {
		return
	}
	fmt.Fprintf(v.human, "amortized    worst stall Q %d (%.3fms) at %.0f ops/sec (%s, %d shards, %d gor)\n",
		am.MaxStallQ, float64(am.MaxStallNS)/1e6, am.OpsPerSec, am.Scenario, am.Shards, am.Goroutines)
	fmt.Fprintf(v.human, "deamortized  worst stall Q %d (%.3fms) at %.0f ops/sec (debt high-water %d)\n",
		de.MaxStallQ, float64(de.MaxStallNS)/1e6, de.OpsPerSec, de.DebtHighWater)
	floor := func(subject, what string, got, limit float64) {
		v.add(gateRecord{Check: "stall", Subject: subject, Value: got, Limit: limit},
			got >= limit, "%s %.2f× (need ≥ %.2f×)", what, got, limit)
	}
	floor("stall_q_ratio", "stall Q reduction", float64(am.MaxStallQ)/float64(de.MaxStallQ), stallCutMin)
	floor("throughput_fraction", "throughput held vs amortized", de.OpsPerSec/am.OpsPerSec, stallThroughputMin)

	rec := gateRecord{Check: "stall", Subject: "deamortized_stall_q", Value: float64(de.MaxStallQ)}
	if base.StallQ <= 0 {
		rec.Verdict = "no-baseline"
		v.add(rec, false, "deamortized stall Q %d, no baseline: re-pin with -write-baseline", de.MaxStallQ)
		return
	}
	rec.Limit = float64(base.StallQ)
	v.add(rec, de.MaxStallQ <= base.StallQ, "deamortized stall Q %d (limit: the baseline's %d)", de.MaxStallQ, base.StallQ)
}
