package cli

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchRow renders one timed `aem bench -json -timing` row.
func benchRow(id string, row int, wallNS int64, objects, bytes uint64) string {
	return fmt.Sprintf(`{"experiment":%q,"title":"t","row":%d,"columns":["x"],"values":["1"],"wall_ns":%d,"alloc_objects":%d,"alloc_bytes":%d}`+"\n",
		id, row, wallNS, objects, bytes)
}

// benchLines fabricates a timed stream: four EXP-A rows costing one unit
// each (a 2 ms point allocating 1,000 objects and 100,000 bytes) and two
// EXP-B rows costing slow units each, amid foreign typed records the gate
// must skip.
func benchLines(slow float64) string {
	var b strings.Builder
	for i := 0; i < 4; i++ {
		b.WriteString(benchRow("EXP-A", i, 2_000_000, 1000, 100_000))
	}
	b.WriteString(`{"type":"gate","check":"objects","subject":"EXP-A","value":1,"verdict":"fail"}` + "\n")
	for i := 0; i < 2; i++ {
		b.WriteString(benchRow("EXP-B", i, int64(slow*2_000_000), uint64(slow*1000), uint64(slow*100_000)))
	}
	return b.String()
}

// unitCost is the per-point cost of one benchLines unit.
var unitCost = pointCost{WallNS: 2_000_000, Objects: 1000, Bytes: 100_000}

// pointsBase is a baseline pinning EXP-A and EXP-B at one unit.
var pointsBase = gateBaseline{Points: map[string]pointCost{"EXP-A": unitCost, "EXP-B": unitCost}}

// dictloadLine renders one `aem dictload -json` record.
func dictloadLine(deam bool, stallNS, stallQ int64, opsPerSec float64) string {
	raw, _ := json.Marshal(&dictloadRecord{
		Type: "dictload", Scenario: "drift", Engine: "slice", Shards: 2, Goroutines: 1,
		Deamortize: deam, Ops: 160000, OpsPerSec: opsPerSec,
		MaxStallNS: stallNS, MaxStallQ: stallQ, DebtHighWater: 7,
	})
	return string(raw) + "\n"
}

// stallLegs fabricates a dictload log: each leg's record follows a stale
// record of the same leg that would fail every rule, amid foreign typed
// records — the gate must read the last record of each leg.
func stallLegs(amQ int64, amOps float64, deQ int64, deOps float64) string {
	return `{"type":"gate","check":"stall","subject":"stall_q_ratio","value":1,"verdict":"fail"}` + "\n" +
		dictloadLine(false, 120_000, amQ/100, amOps) +
		dictloadLine(true, 50_000_000, deQ*100, deOps/100) +
		dictloadLine(false, 12_000_000, amQ, amOps) +
		`{"type":"throughput","experiment":"EXP-X","points":1}` + "\n" +
		dictloadLine(true, 500_000, deQ, deOps)
}

// writeFile writes content to a fresh temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// baselineFile writes a gate baseline to a fresh temp file.
func baselineFile(t *testing.T, base gateBaseline) string {
	t.Helper()
	raw, err := json.Marshal(&base)
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, "baseline.json", string(raw))
}

// gateArgs writes each input to its own temp file and appends the paths
// to args.
func gateArgs(t *testing.T, args []string, inputs ...string) []string {
	t.Helper()
	for i, in := range inputs {
		args = append(args, writeFile(t, fmt.Sprint("input", i), in))
	}
	return args
}

// gateRun runs the gate on args plus the inputs, returning the exit code
// and stdout.
func gateRun(t *testing.T, args []string, inputs ...string) (int, string) {
	t.Helper()
	args = gateArgs(t, args, inputs...)
	var code int
	out := captureStdout(t, func() {
		code = gateCmd("aem gate", args)
	})
	return code, string(out)
}

// gateJSON runs the gate under -json and returns the exit code, the
// records on stdout and the human lines on stderr.
func gateJSON(t *testing.T, args []string, inputs ...string) (int, []gateRecord, string) {
	t.Helper()
	args = gateArgs(t, append([]string{"-json"}, args...), inputs...)
	var code int
	var human []byte
	out := captureStdout(t, func() {
		human = captureStderr(t, func() {
			code = gateCmd("aem gate", args)
		})
	})
	var recs []gateRecord
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" {
			continue
		}
		var rec gateRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stdout line is not a JSON record: %v\n%s", err, line)
		}
		if rec.Type != "gate" {
			t.Errorf("record type %q, want gate", rec.Type)
		}
		recs = append(recs, rec)
	}
	return code, recs, string(human)
}

// lineWith returns the first output line containing every substring.
func lineWith(out string, substrs ...string) string {
	for _, line := range strings.Split(out, "\n") {
		all := true
		for _, s := range substrs {
			all = all && strings.Contains(line, s)
		}
		if all {
			return line
		}
	}
	return ""
}

// TestGateWriteThenPass: pinning a baseline from a run and gating the
// same run must pass every per-point check, with the foreign typed
// records left out of the means.
func TestGateWriteThenPass(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	stream := benchLines(4)

	code, out := gateRun(t, []string{"-baseline", base, "-write-baseline"}, stream)
	if code != 0 {
		t.Fatalf("write-baseline exit %d\n%s", code, out)
	}
	pinned, err := readGateBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := pinned.Points["EXP-A"]; got != unitCost {
		t.Errorf("pinned EXP-A %+v, want %+v", got, unitCost)
	}
	if got, want := pinned.Points["EXP-B"], (pointCost{WallNS: 8_000_000, Objects: 4000, Bytes: 400_000}); got != want {
		t.Errorf("pinned EXP-B %+v, want %+v", got, want)
	}

	code, out = gateRun(t, []string{"-baseline", base}, stream)
	if code != 0 {
		t.Fatalf("self-gate exit %d\n%s", code, out)
	}
	for _, id := range []string{"EXP-A", "EXP-B"} {
		for _, check := range []string{"objects", "bytes", "wall"} {
			if line := lineWith(out, check, id); !strings.HasPrefix(line, "ok") {
				t.Errorf("self-gate %s line for %s is not ok: %q", check, id, line)
			}
		}
	}
}

// TestGateFailsOnPathologicalSlowdown: a cost past its ceiling fails the
// gate and names the experiment and the check; growth within it does
// not. Wall clock is judged only where the baseline point takes ≥ 1 ms.
func TestGateFailsOnPathologicalSlowdown(t *testing.T) {
	base := baselineFile(t, pointsBase)

	// 1.2× on every cost: within 1.25× and 3×.
	if code, out := gateRun(t, []string{"-baseline", base}, benchLines(1.2)); code != 0 {
		t.Fatalf("1.2x growth failed the gate\n%s", out)
	}
	// 2× on EXP-B only: its objects and bytes fail, its wall passes.
	code, out := gateRun(t, []string{"-baseline", base}, benchLines(2))
	if code != 1 {
		t.Fatalf("2x growth exit %d, want 1\n%s", code, out)
	}
	for check, want := range map[string]string{"objects": "FAIL", "bytes": "FAIL", "wall": "ok"} {
		if line := lineWith(out, check, "EXP-B"); !strings.HasPrefix(line, want) {
			t.Errorf("EXP-B %s line %q, want %s", check, line, want)
		}
		if line := lineWith(out, check, "EXP-A"); !strings.HasPrefix(line, "ok") {
			t.Errorf("EXP-A %s line %q, want ok", check, line)
		}
	}
	// 4× wall clock at unchanged allocations fails the wall check only.
	slow := strings.Repeat(benchRow("EXP-B", 0, 8_000_000, 1000, 100_000), 2)
	code, out = gateRun(t, []string{"-baseline", base}, slow)
	if line := lineWith(out, "wall", "EXP-B"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("4x wall clock exit %d, want 1 with a FAIL wall line: %q\n%s", code, line, out)
	}
	// The same 4× on a sub-millisecond baseline point is not judged.
	fast := baselineFile(t, gateBaseline{Points: map[string]pointCost{"EXP-B": {WallNS: 900_000, Objects: 1000, Bytes: 100_000}}})
	code, out = gateRun(t, []string{"-baseline", fast}, slow)
	if code != 0 || lineWith(out, "wall") != "" {
		t.Errorf("sub-ms baseline point: exit %d, want 0 with no wall line\n%s", code, out)
	}
	// The fixed slack lets a point that allocates next to nothing in the
	// baseline grow by a few objects, not more.
	tiny := baselineFile(t, gateBaseline{Points: map[string]pointCost{"EXP-P": {WallNS: 5_000}}})
	if code, out := gateRun(t, []string{"-baseline", tiny}, benchRow("EXP-P", 0, 9_000, allocObjectsSlack, allocBytesSlack)); code != 0 {
		t.Errorf("growth within the slack failed the gate\n%s", out)
	}
	code, out = gateRun(t, []string{"-baseline", tiny}, benchRow("EXP-P", 0, 9_000, allocObjectsSlack+1, 0))
	if line := lineWith(out, "objects", "EXP-P"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("growth past the slack exit %d, want 1 with a FAIL objects line: %q", code, line)
	}
}

// TestGateSkipsUnknownExperiments: measurements missing from the baseline
// are reported but never fail the gate — adding an experiment must not
// break CI until the baseline is re-pinned.
func TestGateSkipsUnknownExperiments(t *testing.T) {
	base := baselineFile(t, gateBaseline{Points: map[string]pointCost{"EXP-A": unitCost}})
	code, out := gateRun(t, []string{"-baseline", base}, benchLines(50))
	if code != 0 {
		t.Fatalf("unknown experiment failed the gate (exit %d)\n%s", code, out)
	}
	if line := lineWith(out, "EXP-B"); !strings.HasPrefix(line, "skip") || !strings.Contains(line, "no baseline") {
		t.Errorf("skipped experiment not reported: %q", line)
	}
}

// TestGateServingExperimentsAgainstCommittedBaseline: the committed
// baseline carries both sections, the gate's CI selection among its
// experiments, and rows at each pinned cost gate ok.
func TestGateServingExperimentsAgainstCommittedBaseline(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "gate_baseline.json")
	base, err := readGateBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.StallQ <= 0 {
		t.Fatalf("committed baseline lacks the stall Q: %d", base.StallQ)
	}
	var b strings.Builder
	for _, id := range []string{"EXP-MG1", "EXP-P2", "EXP-F2", "EXP-B1", "EXP-L1", "EXP-L2", "EXP-L3"} {
		c, ok := base.Points[id]
		if !ok {
			t.Fatalf("committed baseline lacks %s: %v", id, base.Points)
		}
		b.WriteString(benchRow(id, 0, int64(c.WallNS), uint64(c.Objects), uint64(c.Bytes)))
	}
	code, out := gateRun(t, []string{"-baseline", path}, b.String())
	if code != 0 {
		t.Fatalf("pinned costs failed the committed gate (exit %d)\n%s", code, out)
	}
	for _, id := range []string{"EXP-L1", "EXP-L2", "EXP-L3", "EXP-MG1"} {
		if line := lineWith(out, "wall", id); !strings.HasPrefix(line, "ok") {
			t.Errorf("wall line for %s is not ok: %q", id, line)
		}
	}
}

// TestGateRejectsUntimedInput: a bench stream without wall_ns fields (run
// without -timing) is no evidence: unusable input, not a silent pass.
func TestGateRejectsUntimedInput(t *testing.T) {
	base := baselineFile(t, pointsBase)
	untimed := `{"experiment":"EXP-A","title":"t","row":0,"columns":["x"],"values":["1"]}` + "\n"
	if code, _ := gateRun(t, []string{"-baseline", base}, untimed); code != 2 {
		t.Fatalf("untimed input exit %d, want 2", code)
	}
}

// TestGateJSONRecords pins the -json trend surface: each check emits one
// "type":"gate" record to stdout (the human lines move to stderr), and
// the gate skips those records when it reads — so the artifact with its
// verdicts appended re-gates to the same records.
func TestGateJSONRecords(t *testing.T) {
	base := baselineFile(t, pointsBase)
	stream := benchLines(1.5) // EXP-B's allocations grow 1.5x
	code, recs, human := gateJSON(t, []string{"-baseline", base}, stream)
	if code != 1 {
		t.Fatalf("1.5x allocation growth exit %d, want 1", code)
	}
	if !strings.HasPrefix(lineWith(human, "objects", "EXP-B"), "FAIL") {
		t.Errorf("human lines missing from stderr under -json:\n%s", human)
	}
	want := []gateRecord{
		{Type: "gate", Check: "objects", Subject: "EXP-A", Value: 1000, Limit: 1314, Verdict: "ok"},
		{Type: "gate", Check: "bytes", Subject: "EXP-A", Value: 100_000, Limit: 190_536, Verdict: "ok"},
		{Type: "gate", Check: "wall", Subject: "EXP-A", Value: 2e6, Limit: 6e6, Verdict: "ok"},
		{Type: "gate", Check: "objects", Subject: "EXP-B", Value: 1500, Limit: 1314, Verdict: "fail"},
		{Type: "gate", Check: "bytes", Subject: "EXP-B", Value: 150_000, Limit: 190_536, Verdict: "ok"},
		{Type: "gate", Check: "wall", Subject: "EXP-B", Value: 3e6, Limit: 6e6, Verdict: "ok"},
	}
	if fmt.Sprint(recs) != fmt.Sprint(want) {
		t.Fatalf("records %+v, want %+v", recs, want)
	}

	var appended strings.Builder
	appended.WriteString(stream)
	for _, rec := range recs {
		raw, _ := json.Marshal(&rec)
		appended.Write(append(raw, '\n'))
	}
	code, again, _ := gateJSON(t, []string{"-baseline", base}, appended.String())
	if code != 1 || fmt.Sprint(again) != fmt.Sprint(want) {
		t.Errorf("appended artifact re-gates with exit %d and %+v, want exit 1 and the same records", code, again)
	}
}

// TestGateNoBaselineRecordVerdict: experiments missing from the baseline
// carry the no-baseline verdict in their record and never fail the gate.
func TestGateNoBaselineRecordVerdict(t *testing.T) {
	base := baselineFile(t, gateBaseline{Points: map[string]pointCost{"EXP-A": unitCost}})
	code, recs, _ := gateJSON(t, []string{"-baseline", base}, benchLines(9))
	if code != 0 {
		t.Fatalf("no-baseline experiment failed the gate (exit %d)", code)
	}
	if len(recs) != 4 {
		t.Fatalf("%d records, want 3 for EXP-A and 1 for EXP-B", len(recs))
	}
	if rec := recs[3]; rec.Subject != "EXP-B" || rec.Verdict != "no-baseline" || rec.Limit != 0 {
		t.Errorf("EXP-B record %+v, want no-baseline with no limit", rec)
	}
}

// The stall check: a deamortized dictload leg against its amortized twin
// and the baseline's stall Q ceiling.

var stallBase = gateBaseline{StallQ: 1_625}

// TestStallgatePassAndRatioFail: a 26× Q cut at equal throughput passes
// whatever the wall-clock stalls read; shrinking the Q cut below 10×
// fails that rule.
func TestStallgatePassAndRatioFail(t *testing.T) {
	base := baselineFile(t, gateBaseline{StallQ: 5_000})
	code, out := gateRun(t, []string{"-baseline", base}, stallLegs(43_011, 96000, 1_625, 97000))
	if code != 0 {
		t.Fatalf("26x Q reduction failed the 10x gate (exit %d)\n%s", code, out)
	}
	if !strings.Contains(out, "stall Q reduction 26.47×") {
		t.Errorf("output lacks the measured ratio:\n%s", out)
	}
	code, out = gateRun(t, []string{"-baseline", base}, stallLegs(43_011, 96000, 5_000, 97000))
	if line := lineWith(out, "stall Q reduction"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("8.6x Q cut exit %d, want 1 with a FAIL line: %q", code, line)
	}
}

// TestStallgateThroughputFail: a deamortized run that gives up more than
// a tenth of the amortized throughput fails even with a huge stall win.
func TestStallgateThroughputFail(t *testing.T) {
	base := baselineFile(t, stallBase)
	code, out := gateRun(t, []string{"-baseline", base}, stallLegs(43_011, 100000, 1_625, 50000))
	if line := lineWith(out, "throughput held"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("half throughput exit %d, want 1 with a FAIL line: %q", code, line)
	}
}

// TestStallgateBaselineRoundTrip: -write-baseline pins the last
// deamortized record's stall Q; the same run and a smaller Q pass the
// ceiling, and one more Q than pinned fails it.
func TestStallgateBaselineRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	legs := func(deQ int64) string { return stallLegs(100_000, 96000, deQ, 97000) }
	if code, out := gateRun(t, []string{"-baseline", base, "-write-baseline"}, legs(1_591)); code != 0 {
		t.Fatalf("write-baseline exit %d\n%s", code, out)
	}
	pinned, err := readGateBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.StallQ != 1_591 {
		t.Fatalf("pinned stall Q %d, want 1591", pinned.StallQ)
	}
	for _, q := range []int64{1_591, 1_000} {
		if code, out := gateRun(t, []string{"-baseline", base}, legs(q)); code != 0 {
			t.Errorf("stall Q %d failed the 1591 ceiling\n%s", q, out)
		}
	}
	code, out := gateRun(t, []string{"-baseline", base}, legs(1_592))
	if line := lineWith(out, "deamortized stall Q"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("stall Q 1592 exit %d, want 1 with a FAIL line: %q", code, line)
	}
}

// TestStallgateRejectsMislabeledLegs: stall evidence missing a leg, or
// without stall telemetry, is unusable input (exit 2), not a comparison.
func TestStallgateRejectsMislabeledLegs(t *testing.T) {
	base := baselineFile(t, stallBase)
	am := dictloadLine(false, 12_000_000, 43_011, 96000)
	de := dictloadLine(true, 500_000, 1_625, 97000)
	for name, input := range map[string]string{
		"two amortized records":   am + am,
		"two deamortized records": de + de,
		"no stall Q":              am + dictloadLine(true, 500_000, 0, 97000),
		"leg beside timings":      benchLines(1) + am,
	} {
		if code, out := gateRun(t, []string{"-baseline", base}, input); code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", name, code, out)
		}
	}
}

// TestStallgateJSONVerdict: -json emits one record per stall rule,
// carrying the measured value, its limit and the verdict.
func TestStallgateJSONVerdict(t *testing.T) {
	base := baselineFile(t, stallBase)
	code, recs, _ := gateJSON(t, []string{"-baseline", base}, stallLegs(40_000, 96000, 1_600, 96000))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	want := []gateRecord{
		{Type: "gate", Check: "stall", Subject: "stall_q_ratio", Value: 25, Limit: 10, Verdict: "ok"},
		{Type: "gate", Check: "stall", Subject: "throughput_fraction", Value: 1, Limit: 0.9, Verdict: "ok"},
		{Type: "gate", Check: "stall", Subject: "deamortized_stall_q", Value: 1_600, Limit: 1_625, Verdict: "ok"},
	}
	if fmt.Sprint(recs) != fmt.Sprint(want) {
		t.Fatalf("records %+v, want %+v", recs, want)
	}
}

// TestGateUsageErrors: input that carries no evidence, a line that is
// not JSON (a pprof -top dump, say), a malformed JSON line, a timed row
// without the allocation fields (as `aem bench -timing` wrote before it
// measured allocations), or a missing file or baseline is unusable (exit
// 2), distinct from a failed check.
func TestGateUsageErrors(t *testing.T) {
	base := baselineFile(t, pointsBase)
	row := benchLines(1)
	for name, input := range map[string]string{
		"empty input":     "",
		"pprof -top dump": row + "     1.20s 40.00% 40.00%      1.50s 50.00%  runtime.memmove\n",
		"malformed JSON":  row + `{"experiment":` + "\n",
		"foreign records": `{"type":"gate","check":"wall","subject":"EXP-A","value":1,"verdict":"ok"}` + "\n",
		"timed row without allocations": row +
			`{"experiment":"EXP-A","title":"t","row":0,"columns":["x"],"values":["1"],"wall_ns":2000000}` + "\n",
	} {
		if code, _ := gateRun(t, []string{"-baseline", base}, input); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
	if code, _ := gateRun(t, []string{"-baseline", base, filepath.Join(t.TempDir(), "missing.txt")}); code != 2 {
		t.Error("missing input file accepted")
	}
	if code, _ := gateRun(t, []string{"-baseline", filepath.Join(t.TempDir(), "missing.json")}, row); code != 2 {
		t.Error("missing baseline accepted")
	}
}

// TestGateMixedEvidence: one call judges bench rows and stall legs
// together, one record per check, and one failing check fails the call
// without hiding the others.
func TestGateMixedEvidence(t *testing.T) {
	base := baselineFile(t, gateBaseline{Points: pointsBase.Points, StallQ: 1_625})
	legs := stallLegs(43_011, 96000, 3_250, 97000) // the stall Q doubled
	code, recs, _ := gateJSON(t, []string{"-baseline", base}, benchLines(1), legs)
	if code != 1 {
		t.Fatalf("exit %d, want 1 from the stall Q ceiling", code)
	}
	verdicts := map[string]string{}
	for _, rec := range recs {
		verdicts[rec.Check+" "+rec.Subject] = rec.Verdict
	}
	want := map[string]string{
		"objects EXP-A": "ok", "bytes EXP-A": "ok", "wall EXP-A": "ok",
		"objects EXP-B": "ok", "bytes EXP-B": "ok", "wall EXP-B": "ok",
		"stall stall_q_ratio": "ok", "stall throughput_fraction": "ok",
		"stall deamortized_stall_q": "fail",
	}
	if fmt.Sprint(verdicts) != fmt.Sprint(want) {
		t.Fatalf("verdicts %v, want %v", verdicts, want)
	}
}

// TestGateWriteBaselineKeepsOtherSections: -write-baseline rewrites only
// what its input measured and keeps every other section and experiment.
func TestGateWriteBaselineKeepsOtherSections(t *testing.T) {
	base := baselineFile(t, gateBaseline{
		Points: map[string]pointCost{"EXP-A": {WallNS: 7}, "EXP-Z": {WallNS: 9}},
		StallQ: 1_591,
	})
	if code, out := gateRun(t, []string{"-baseline", base, "-write-baseline"}, benchLines(2)); code != 0 {
		t.Fatalf("per-point write-baseline exit %d\n%s", code, out)
	}
	got, err := readGateBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Points["EXP-A"] != unitCost || got.Points["EXP-B"].Objects != 2000 || got.Points["EXP-Z"].WallNS != 9 {
		t.Errorf("per-point %v, want EXP-A and EXP-B re-pinned and EXP-Z kept", got.Points)
	}
	if got.StallQ != 1_591 {
		t.Errorf("stall Q %d, want 1591 kept", got.StallQ)
	}
	if code, out := gateRun(t, []string{"-baseline", base, "-write-baseline"}, stallLegs(43_011, 96000, 1_700, 97000)); code != 0 {
		t.Fatalf("stall write-baseline exit %d\n%s", code, out)
	}
	if got, _ = readGateBaseline(base); got.StallQ != 1_700 || len(got.Points) != 3 {
		t.Errorf("after the stall re-pin: stall Q %d, %d experiments; want 1700 and 3 kept", got.StallQ, len(got.Points))
	}
}
