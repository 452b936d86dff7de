package cli

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchLines fabricates a timed `aem bench -json -timing` stream: rows
// for two experiments with known wall_ns, plus a throughput summary
// record the gate must ignore (it re-derives from the raw points).
func benchLines(fastNS, slowNS int64) string {
	var b strings.Builder
	for i := 0; i < 4; i++ {
		b.WriteString(`{"experiment":"EXP-A","title":"t","row":` + itoa(i) + `,"columns":["x"],"values":["1"],"wall_ns":` + i64toa(fastNS) + "}\n")
	}
	for i := 0; i < 2; i++ {
		b.WriteString(`{"experiment":"EXP-B","title":"t","row":` + itoa(i) + `,"columns":["x"],"values":["1"],"wall_ns":` + i64toa(slowNS) + "}\n")
	}
	b.WriteString(`{"type":"throughput","experiment":"EXP-A","points":4,"wall_ns":1,"ns_per_point":0.25,"points_per_sec":4e9}` + "\n")
	return b.String()
}

func itoa(i int) string { return string(rune('0' + i)) }
func i64toa(n int64) string {
	raw, _ := json.Marshal(n)
	return string(raw)
}

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
func stallLegs(amNS, amQ int64, amOps float64, deNS, deQ int64, deOps float64) string {
	return `{"type":"gate","check":"stall","subject":"stall_ratio","value":1,"verdict":"fail"}` + "\n" +
		dictloadLine(false, amNS/100, amQ/100, amOps) +
		dictloadLine(true, deNS*100, deQ*100, deOps/100) +
		dictloadLine(false, amNS, amQ, amOps) +
		`{"type":"throughput","experiment":"EXP-X","points":1}` + "\n" +
		dictloadLine(true, deNS, deQ, deOps)
}

// pprofTop fabricates a `go tool pprof -top` dump with the given rows
// under a realistic banner.
func pprofTop(rows ...string) string {
	var b strings.Builder
	b.WriteString("File: aem\nType: cpu\nTime: Aug 8, 2026 at 9:00am (UTC)\n")
	b.WriteString("Showing nodes accounting for 2.40s, 80.00% of 3s total\n")
	b.WriteString("Dropped 61 nodes (cum <= 0.015s)\n")
	b.WriteString("Showing top 15 nodes out of 120\n")
	b.WriteString("      flat  flat%   sum%        cum   cum%\n")
	for _, r := range rows {
		b.WriteString(r + "\n")
	}
	return b.String()
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
		args = append(args, writeFile(t, "input"+itoa(i), in))
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

// lineWith returns the first output line containing substr.
func lineWith(out, substr string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

// TestGateWriteThenPass: pinning a baseline from a run and gating the
// same run must pass with ratio 1.00 for every experiment.
func TestGateWriteThenPass(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	stream := benchLines(1_000_000, 4_000_000)

	code, out := gateRun(t, []string{"-baseline", base, "-write-baseline"}, stream)
	if code != 0 {
		t.Fatalf("write-baseline exit %d\n%s", code, out)
	}
	pinned, err := readGateBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := pinned.Throughput["EXP-A"]; got != 1_000_000 {
		t.Errorf("pinned EXP-A ns/point = %v, want 1e6 (summary record must not skew aggregation)", got)
	}
	if got := pinned.Throughput["EXP-B"]; got != 4_000_000 {
		t.Errorf("pinned EXP-B ns/point = %v, want 4e6", got)
	}

	code, out = gateRun(t, []string{"-baseline", base}, stream)
	if code != 0 {
		t.Fatalf("self-gate exit %d\n%s", code, out)
	}
	for _, id := range []string{"EXP-A", "EXP-B"} {
		if line := lineWith(out, id); !strings.HasPrefix(line, "ok") || !strings.Contains(line, "1.00x") {
			t.Errorf("self-gate line for %s is not ok at 1.00x: %q", id, line)
		}
	}
}

// TestGateFailsOnPathologicalSlowdown: a >tol slowdown on one experiment
// must fail the gate and name it; within-tolerance noise must not.
func TestGateFailsOnPathologicalSlowdown(t *testing.T) {
	base := baselineFile(t, gateBaseline{Throughput: map[string]float64{"EXP-A": 1_000_000, "EXP-B": 1_000_000}})

	// 2x slower: within the default 3x tolerance.
	if code, out := gateRun(t, []string{"-baseline", base}, benchLines(2_000_000, 2_000_000)); code != 0 {
		t.Fatalf("2x slowdown failed the 3x gate\n%s", out)
	}
	// 4x slower on EXP-B only: pathological, must fail.
	code, out := gateRun(t, []string{"-baseline", base}, benchLines(1_000_000, 4_000_000))
	if code != 1 {
		t.Fatalf("4x slowdown exit %d, want 1\n%s", code, out)
	}
	if !strings.HasPrefix(lineWith(out, "EXP-B"), "FAIL") || !strings.HasPrefix(lineWith(out, "EXP-A"), "ok") {
		t.Errorf("failure output does not single out the regressed experiment:\n%s", out)
	}
	// Tightening the tolerance flips the verdict for the 2x case.
	if code, _ := gateRun(t, []string{"-baseline", base, "-tol", "1.5"}, benchLines(2_000_000, 2_000_000)); code != 1 {
		t.Error("2x slowdown passed a 1.5x tolerance")
	}
}

// TestGateSkipsUnknownExperiments: measurements missing from the baseline
// are reported but never fail the gate — adding an experiment must not
// break CI until the baseline is re-pinned.
func TestGateSkipsUnknownExperiments(t *testing.T) {
	base := baselineFile(t, gateBaseline{Throughput: map[string]float64{"EXP-A": 1_000_000}})
	code, out := gateRun(t, []string{"-baseline", base}, benchLines(1_000_000, 50_000_000))
	if code != 0 {
		t.Fatalf("unknown experiment failed the gate (exit %d)\n%s", code, out)
	}
	if line := lineWith(out, "EXP-B"); !strings.HasPrefix(line, "skip") || !strings.Contains(line, "no baseline") {
		t.Errorf("skipped experiment not reported: %q", line)
	}
}

// TestGateServingExperimentsAgainstCommittedBaseline: the committed
// baseline carries all three sections, and EXP-L1/EXP-L2 bench rows at
// its pinned rate gate at 1.00x.
func TestGateServingExperimentsAgainstCommittedBaseline(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "gate_baseline.json")
	base, err := readGateBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.StallNS <= 0 || len(base.Profile) == 0 {
		t.Fatalf("committed baseline lacks a section: stall %d ns, %d profile functions", base.StallNS, len(base.Profile))
	}
	l1, l2 := base.Throughput["EXP-L1"], base.Throughput["EXP-L2"]
	if l1 <= 0 || l2 <= 0 {
		t.Fatalf("committed baseline lacks EXP-L1/EXP-L2: %v", base.Throughput)
	}
	var b strings.Builder
	for i := 0; i < 4; i++ {
		b.WriteString(`{"experiment":"EXP-L1","title":"t","row":` + itoa(i) + `,"columns":["x"],"values":["1"],"wall_ns":` + i64toa(int64(l1)) + "}\n")
	}
	for i := 0; i < 6; i++ {
		b.WriteString(`{"experiment":"EXP-L2","title":"t","row":` + itoa(i) + `,"columns":["x"],"values":["1"],"wall_ns":` + i64toa(int64(l2)) + "}\n")
	}
	code, out := gateRun(t, []string{"-baseline", path}, b.String())
	if code != 0 {
		t.Fatalf("serving experiments failed the committed gate (exit %d)\n%s", code, out)
	}
	for _, id := range []string{"EXP-L1", "EXP-L2"} {
		if line := lineWith(out, id); !strings.HasPrefix(line, "ok") {
			t.Errorf("gate line for %s is not ok: %q", id, line)
		}
	}
}

// TestGateRejectsUntimedInput: a bench stream without wall_ns fields (run
// without -timing) is no evidence: unusable input, not a silent pass.
func TestGateRejectsUntimedInput(t *testing.T) {
	base := baselineFile(t, gateBaseline{Throughput: map[string]float64{"EXP-A": 1}})
	untimed := `{"experiment":"EXP-A","title":"t","row":0,"columns":["x"],"values":["1"]}` + "\n"
	if code, _ := gateRun(t, []string{"-baseline", base}, untimed); code != 2 {
		t.Fatalf("untimed input exit %d, want 2", code)
	}
}

// TestGateJSONRecords pins the -json trend surface: each comparison emits
// one "type":"gate" record to stdout (the human lines move to stderr),
// and the records are invisible to timing aggregation — so the artifact
// with its verdicts appended re-gates to the same records.
func TestGateJSONRecords(t *testing.T) {
	base := baselineFile(t, gateBaseline{Throughput: map[string]float64{"EXP-A": 1_000_000, "EXP-B": 1_000_000}})
	stream := benchLines(1_000_000, 4_000_000) // EXP-B regresses 4x
	code, recs, human := gateJSON(t, []string{"-baseline", base}, stream)
	if code != 1 {
		t.Fatalf("4x regression exit %d, want 1", code)
	}
	if !strings.HasPrefix(lineWith(human, "EXP-B"), "FAIL") {
		t.Errorf("human lines missing from stderr under -json:\n%s", human)
	}
	want := []gateRecord{
		{Type: "gate", Check: "throughput", Subject: "EXP-A", Value: 1e6, Limit: 3e6, Verdict: "ok"},
		{Type: "gate", Check: "throughput", Subject: "EXP-B", Value: 4e6, Limit: 3e6, Verdict: "fail"},
	}
	if len(recs) != len(want) || recs[0] != want[0] || recs[1] != want[1] {
		t.Fatalf("records %+v, want %+v", recs, want)
	}

	var appended strings.Builder
	appended.WriteString(stream)
	for _, rec := range recs {
		raw, _ := json.Marshal(&rec)
		appended.Write(append(raw, '\n'))
	}
	code, again, _ := gateJSON(t, []string{"-baseline", base}, appended.String())
	if code != 1 || len(again) != 2 || again[0] != want[0] || again[1] != want[1] {
		t.Errorf("appended artifact re-gates with exit %d and %+v, want exit 1 and the same records", code, again)
	}
}

// TestGateNoBaselineRecordVerdict: experiments missing from the baseline
// carry the no-baseline verdict in their record and never fail the gate.
func TestGateNoBaselineRecordVerdict(t *testing.T) {
	base := baselineFile(t, gateBaseline{Throughput: map[string]float64{"EXP-A": 1_000_000}})
	code, recs, _ := gateJSON(t, []string{"-baseline", base}, benchLines(1_000_000, 9_000_000))
	if code != 0 {
		t.Fatalf("no-baseline experiment failed the gate (exit %d)", code)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if rec := recs[1]; rec.Subject != "EXP-B" || rec.Verdict != "no-baseline" || rec.Limit != 0 {
		t.Errorf("EXP-B record %+v, want no-baseline with no limit", rec)
	}
}

// The stall check: a deamortized dictload leg against its amortized twin
// and the baseline's stall ceiling.

var stallBase = gateBaseline{StallNS: 500_000}

// TestStallgatePassAndRatioFail: a 24× wall-clock and 26× Q cut at equal
// throughput passes; shrinking either cut below 10× fails that rule.
func TestStallgatePassAndRatioFail(t *testing.T) {
	base := baselineFile(t, stallBase)
	code, out := gateRun(t, []string{"-baseline", base}, stallLegs(12_000_000, 43_011, 96000, 500_000, 1_625, 97000))
	if code != 0 {
		t.Fatalf("24x reduction failed the 10x gate (exit %d)\n%s", code, out)
	}
	if !strings.Contains(out, "stall reduction 24.00×") || !strings.Contains(out, "stall Q reduction 26.47×") {
		t.Errorf("output lacks the measured ratios:\n%s", out)
	}

	code, out = gateRun(t, []string{"-baseline", base}, stallLegs(12_000_000, 43_011, 96000, 3_000_000, 1_625, 97000))
	if line := lineWith(out, "stall reduction"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("4x wall-clock cut exit %d, want 1 with a FAIL line: %q", code, line)
	}
	code, out = gateRun(t, []string{"-baseline", base}, stallLegs(12_000_000, 43_011, 96000, 500_000, 5_000, 97000))
	if line := lineWith(out, "stall Q reduction"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("8.6x Q cut exit %d, want 1 with a FAIL line: %q", code, line)
	}
}

// TestStallgateThroughputFail: a deamortized run that gives up more than
// a tenth of the amortized throughput fails even with a huge stall win.
func TestStallgateThroughputFail(t *testing.T) {
	base := baselineFile(t, stallBase)
	code, out := gateRun(t, []string{"-baseline", base}, stallLegs(12_000_000, 43_011, 100000, 100_000, 1_625, 50000))
	if line := lineWith(out, "throughput held"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("half throughput exit %d, want 1 with a FAIL line: %q", code, line)
	}
}

// TestStallgateBaselineRoundTrip: -write-baseline pins the last
// deamortized record's stall; the same run gates at 1×, a 5× drift
// passes the 10× ceiling, and a 12× drift fails it.
func TestStallgateBaselineRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	legs := func(deNS int64) string { return stallLegs(100_000_000, 43_011, 96000, deNS, 1_625, 97000) }
	if code, out := gateRun(t, []string{"-baseline", base, "-write-baseline"}, legs(500_000)); code != 0 {
		t.Fatalf("write-baseline exit %d\n%s", code, out)
	}
	pinned, err := readGateBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.StallNS != 500_000 {
		t.Fatalf("pinned stall %d, want 500000", pinned.StallNS)
	}
	if code, out := gateRun(t, []string{"-baseline", base}, legs(500_000)); code != 0 {
		t.Fatalf("self-gate exit %d\n%s", code, out)
	}
	if code, out := gateRun(t, []string{"-baseline", base}, legs(2_500_000)); code != 0 {
		t.Errorf("5x baseline drift failed the 10x ceiling\n%s", out)
	}
	code, out := gateRun(t, []string{"-baseline", base}, legs(6_000_000))
	if line := lineWith(out, "vs baseline"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("12x baseline drift exit %d, want 1 with a FAIL line: %q", code, line)
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
		"leg beside timings":      benchLines(1, 1) + am,
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
	code, recs, _ := gateJSON(t, []string{"-baseline", base}, stallLegs(10_000_000, 40_000, 96000, 500_000, 2_000, 96000))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	want := []gateRecord{
		{Type: "gate", Check: "stall", Subject: "stall_ratio", Value: 20, Limit: 10, Verdict: "ok"},
		{Type: "gate", Check: "stall", Subject: "stall_q_ratio", Value: 20, Limit: 10, Verdict: "ok"},
		{Type: "gate", Check: "stall", Subject: "throughput_fraction", Value: 1, Limit: 0.9, Verdict: "ok"},
		{Type: "gate", Check: "stall", Subject: "deamortized_stall_ns", Value: 500_000, Limit: 5_000_000, Verdict: "ok"},
	}
	if len(recs) != len(want) {
		t.Fatalf("records %+v, want %+v", recs, want)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
}

// The profile check: pprof -top rows against the baseline's known
// functions.

var profileBase = gateBaseline{Profile: []string{
	"repro/internal/dict.(*BufferTree).flushNode",
	"repro/internal/aem.(*Machine).Read",
	"runtime.memmove",
}}

// TestProfdiffPassAndNewEntrant: known functions may shift weight
// freely, but one above 10% flat that the baseline lacks fails the gate
// and is named; a newcomer below the line passes.
func TestProfdiffPassAndNewEntrant(t *testing.T) {
	base := baselineFile(t, profileBase)
	shifted := pprofTop(
		"     1.50s 50.00% 50.00%      1.80s 60.00%  repro/internal/aem.(*Machine).Read",
		"     0.90s 30.00% 80.00%      1.00s 33.33%  repro/internal/dict.(*BufferTree).flushNode",
	)
	if code, out := gateRun(t, []string{"-baseline", base}, shifted); code != 0 {
		t.Fatalf("weight shift failed the gate (exit %d)\n%s", code, out)
	}
	hot := pprofTop(
		"     1.20s 40.00% 40.00%      1.50s 50.00%  repro/internal/dict.(*BufferTree).flushNode",
		"     0.75s 25.00% 65.00%      0.80s 26.67%  repro/internal/dict.(*BufferTree).accidentalQuadratic",
	)
	code, out := gateRun(t, []string{"-baseline", base}, hot)
	if line := lineWith(out, "accidentalQuadratic"); code != 1 || !strings.HasPrefix(line, "FAIL") {
		t.Fatalf("new 25%% entrant exit %d, want 1 with a FAIL line naming it\n%s", code, out)
	}
	if line := lineWith(out, "flushNode"); !strings.HasPrefix(line, "ok") {
		t.Errorf("known function not ok: %q", line)
	}
	small := pprofTop("     0.27s  9.00%  9.00%      0.30s 10.00%  repro/internal/dict.newLeak")
	if code, out := gateRun(t, []string{"-baseline", base}, small); code != 0 {
		t.Errorf("9%% entrant failed the 10%% line\n%s", out)
	}
}

// TestProfdiffConcatenatedDumps: CI concatenates the cpu and mem -top
// dumps into one summary; both sections count, " (inline)" suffixes stay
// part of the name, and a function seen twice keeps its larger flat%.
func TestProfdiffConcatenatedDumps(t *testing.T) {
	summary := pprofTop("     1.20s 40.00% 40.00%      1.50s 50.00%  runtime.mallocgc (inline)") +
		pprofTop(
			"  512.04MB 60.00% 60.00%   512.04MB 60.00%  repro/internal/dict.newChainWriter",
			"  256.02MB 30.00% 90.00%   256.02MB 30.00%  runtime.mallocgc (inline)",
		)
	ev, err := readGateInputs([]string{writeFile(t, "summary.txt", summary)})
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.prof["runtime.mallocgc (inline)"]; got != 40 {
		t.Errorf("duplicate function flat%% = %v, want max 40", got)
	}
	if got := ev.prof["repro/internal/dict.newChainWriter"]; got != 60 {
		t.Errorf("mem section not read: %v", ev.prof)
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if code, out := gateRun(t, []string{"-baseline", base, "-write-baseline"}, summary); code != 0 {
		t.Fatalf("write-baseline exit %d\n%s", code, out)
	}
	if code, out := gateRun(t, []string{"-baseline", base}, summary); code != 0 {
		t.Fatalf("self-gate of the concatenated summary exit %d\n%s", code, out)
	}
}

// TestProfdiffUsageErrors: input that carries no evidence, a malformed
// JSON line, or a missing file or baseline is unusable (exit 2), distinct
// from a failed check.
func TestProfdiffUsageErrors(t *testing.T) {
	base := baselineFile(t, profileBase)
	row := "     1.20s 40.00% 40.00%      1.50s 50.00%  runtime.memmove\n"
	if code, _ := gateRun(t, []string{"-baseline", base}, pprofTop()); code != 2 {
		t.Error("banner-only summary accepted")
	}
	if code, _ := gateRun(t, []string{"-baseline", base}, row+`{"experiment":`+"\n"); code != 2 {
		t.Error("malformed JSON line accepted")
	}
	if code, _ := gateRun(t, []string{"-baseline", base, filepath.Join(t.TempDir(), "missing.txt")}); code != 2 {
		t.Error("missing input file accepted")
	}
	if code, _ := gateRun(t, []string{"-baseline", filepath.Join(t.TempDir(), "missing.json")}, row); code != 2 {
		t.Error("missing baseline accepted")
	}
}

// TestGateMixedEvidence: one call judges timings, stall legs and profile
// rows together, one record per check, and one failing check fails the
// call without hiding the others.
func TestGateMixedEvidence(t *testing.T) {
	base := baselineFile(t, gateBaseline{
		Throughput: map[string]float64{"EXP-A": 1_000_000, "EXP-B": 1_000_000},
		StallNS:    500_000,
		Profile:    profileBase.Profile,
	})
	legs := stallLegs(12_000_000, 43_011, 96000, 500_000, 1_625, 97000)
	newcomer := pprofTop("     0.75s 25.00% 25.00%      0.80s 26.67%  repro/internal/dict.accidentalQuadratic")
	code, recs, _ := gateJSON(t, []string{"-baseline", base}, benchLines(1_000_000, 1_000_000)+legs, newcomer)
	if code != 1 {
		t.Fatalf("exit %d, want 1 from the profile check", code)
	}
	verdicts := map[string]string{}
	for _, rec := range recs {
		verdicts[rec.Check+" "+rec.Subject] = rec.Verdict
	}
	want := map[string]string{
		"throughput EXP-A": "ok", "throughput EXP-B": "ok",
		"stall stall_ratio": "ok", "stall stall_q_ratio": "ok",
		"stall throughput_fraction": "ok", "stall deamortized_stall_ns": "ok",
		"profile repro/internal/dict.accidentalQuadratic": "fail",
	}
	if len(verdicts) != len(want) {
		t.Fatalf("verdicts %v, want %v", verdicts, want)
	}
	for k, v := range want {
		if verdicts[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, verdicts[k], v)
		}
	}
}

// TestGateWriteBaselineKeepsOtherSections: -write-baseline rewrites only
// what its input measured and keeps every other section and experiment.
func TestGateWriteBaselineKeepsOtherSections(t *testing.T) {
	base := baselineFile(t, gateBaseline{
		Throughput: map[string]float64{"EXP-A": 7, "EXP-Z": 9},
		StallNS:    208_911,
		Profile:    []string{"runtime.memmove"},
	})
	newcomer := pprofTop("     0.75s 25.00% 25.00%      0.80s 26.67%  repro/internal/dict.accidentalQuadratic")
	if code, out := gateRun(t, []string{"-baseline", base, "-write-baseline"}, newcomer); code != 0 {
		t.Fatalf("profile write-baseline exit %d\n%s", code, out)
	}
	if code, out := gateRun(t, []string{"-baseline", base, "-write-baseline"}, benchLines(1_000_000, 2_000_000)); code != 0 {
		t.Fatalf("throughput write-baseline exit %d\n%s", code, out)
	}
	got, err := readGateBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Throughput["EXP-A"] != 1_000_000 || got.Throughput["EXP-B"] != 2_000_000 || got.Throughput["EXP-Z"] != 9 {
		t.Errorf("throughput %v, want EXP-A and EXP-B re-pinned and EXP-Z kept", got.Throughput)
	}
	if got.StallNS != 208_911 {
		t.Errorf("stall %d, want 208911 kept", got.StallNS)
	}
	if len(got.Profile) != 1 || got.Profile[0] != "repro/internal/dict.accidentalQuadratic" {
		t.Errorf("profile %v, want the re-pinned inventory", got.Profile)
	}
}

// TestGateBaselineProfileFunctionsExist keeps the profile check's list of
// known functions honest: every repro/... entry in the committed baseline
// must name a function declared in the module's non-test source, so a
// deleted or renamed function cannot linger on the list. Profile
// decorations are stripped first: " (inline)", generic shapes
// ("[go.shape…]") and closure suffixes (".func1", ".func2.3").
func TestGateBaselineProfileFunctionsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	base, err := readGateBaseline(filepath.Join(root, "testdata", "gate_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{} // package path → declared names
	for _, entry := range base.Profile {
		s := stripTypeArgs(strings.TrimSuffix(entry, " (inline)"))
		if !strings.HasPrefix(s, "repro/") {
			continue
		}
		slash := strings.LastIndex(s, "/")
		dot := slash + strings.Index(s[slash:], ".")
		pkg := s[:dot]
		name := strings.NewReplacer("(*", "", ")", "").Replace(closureSuffix.ReplaceAllString(s[dot+1:], ""))
		if declared[pkg] == nil {
			declared[pkg] = funcDecls(t, filepath.Join(root, strings.TrimPrefix(pkg, "repro/")))
		}
		if !declared[pkg][name] {
			t.Errorf("profile baseline entry %q: %s declares no %s", entry, pkg, name)
		}
	}
	if len(declared) == 0 {
		t.Fatal("the profile baseline names no repro/... function")
	}
}

// closureSuffix matches the names the compiler gives closures.
var closureSuffix = regexp.MustCompile(`(\.func\d+)+(\.\d+)*$`)

// stripTypeArgs drops every bracketed group: the type arguments of a
// generic declaration, or the shapes pprof prints for them.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcDecls returns the functions ("F") and methods ("T.M") declared in
// the non-test Go files of dir.
func funcDecls(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go")) // fails only on a malformed pattern
	names := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			switch {
			case !ok:
			case fn.Recv == nil:
				names[fn.Name.Name] = true
			default:
				recv := strings.TrimPrefix(stripTypeArgs(types.ExprString(fn.Recv.List[0].Type)), "*")
				names[recv+"."+fn.Name.Name] = true
			}
		}
	}
	return names
}
