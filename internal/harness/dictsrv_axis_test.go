package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/aem"
	"repro/internal/dictsrv"
	"repro/internal/workload"
)

func TestFmtNS(t *testing.T) {
	cases := map[int64]string{
		400:           "400ns",
		4_200:         "4.2µs",
		7_300_000:     "7.3ms",
		2_500_000_000: "2.50s",
	}
	for ns, want := range cases {
		if got := FmtNS(ns); got != want {
			t.Errorf("FmtNS(%d) = %q, want %q", ns, got, want)
		}
	}
}

// TestServingRegistered: the serving sweeps resolve by id, stay out of
// All() (golden stability), and EXP-L1's grid is the ω axis.
func TestServingRegistered(t *testing.T) {
	for _, id := range []string{"EXP-L1", "EXP-L2", "EXP-L3"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("%s missing from the auxiliary registry", id)
		}
		for _, s := range All() {
			if s.ID == id {
				t.Fatalf("%s leaked into All()", id)
			}
		}
	}
}

// TestServingFrontier is the acceptance criterion for the serving arc,
// run on EXP-L1's own spec at its committed grid: as ω grows, amortized
// write count per op must decrease (the buffer absorbs more before
// flushing) and flush count must fall steeply, while every latency column
// is populated and at least one configuration records a real stall. The
// wall-clock columns themselves are not compared — machines differ — but
// the accounting trend is deterministic.
func TestServingFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the full EXP-L1 grid")
	}
	s, ok := ByID("EXP-L1")
	if !ok {
		t.Fatal("EXP-L1 not registered")
	}
	tbl := s.Table()
	if len(tbl.Rows) != 4 {
		t.Fatalf("EXP-L1 has %d rows, want 4 (ω axis)", len(tbl.Rows))
	}
	col := func(name string) int {
		for i, c := range tbl.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("EXP-L1 lacks column %q (have %v)", name, tbl.Columns)
		return -1
	}
	wpo, fl := col("writes/op"), col("flushes")
	lat := []int{col("p50"), col("p99"), col("p99.9"), col("max"), col("max stall")}
	var prevW float64
	var prevF int64
	for i, row := range tbl.Rows {
		w, err := strconv.ParseFloat(row[wpo], 64)
		if err != nil {
			t.Fatalf("row %d writes/op %q: %v", i, row[wpo], err)
		}
		f, err := strconv.ParseInt(row[fl], 10, 64)
		if err != nil {
			t.Fatalf("row %d flushes %q: %v", i, row[fl], err)
		}
		if i > 0 {
			if w >= prevW {
				t.Errorf("writes/op did not fall with ω: row %d has %.3f after %.3f", i, w, prevW)
			}
			if f > prevF {
				t.Errorf("flushes grew with ω: row %d has %d after %d", i, f, prevF)
			}
		}
		prevW, prevF = w, f
		for _, c := range lat {
			if row[c] == "" || row[c] == "0ns" {
				// max stall may be 0 at the largest ω if no flush fired;
				// every per-op latency column must be populated.
				if tbl.Columns[c] != "max stall" {
					t.Errorf("row %d: latency column %q empty: %q", i, tbl.Columns[c], row[c])
				}
			}
		}
	}
	// The smallest-ω row flushes constantly: its stall column must be real.
	if st := tbl.Rows[0][col("max stall")]; st == "0ns" || st == "" {
		t.Errorf("ω=1 recorded no flush stall: %q", st)
	}
	if strings.HasPrefix(tbl.Rows[0][col("max stall")], "-") {
		t.Error("negative stall")
	}
}

// TestDeamortizedStallAcceptance is the acceptance criterion for the
// deamortization arc, run at EXP-L3's committed drift/ω=16 point: the
// debt-queue commit path must cut the worst commit-path stall by at least
// an order of magnitude versus run-to-completion cascades, without giving
// up throughput. The stall ratio is deterministic in structure (one
// bounded node-flush vs a whole cascade) even though both wall-clock
// cells are not, so it is checked in model cost as well. The throughput
// bar uses a wide margin because absolute ops/sec on a shared CI box is
// noisy — CI's `aem gate` stall check holds the tighter 0.9× line next
// to a committed stall ceiling.
func TestDeamortizedStallAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two full EXP-L3 points")
	}
	run := func(deam bool) (dictsrv.LoadReport, dictsrv.Stats) {
		cfg := dictsrv.Config{
			Shards:  2,
			Machine: aem.Config{M: 1024, B: 32, Omega: 16},
			KeyLo:   0, KeyHi: 65536,
			Deamortize: deam,
		}
		return serveRow(cfg, workload.DriftOps, 1, 160000, Seed+42)
	}
	arep, ast := run(false)
	drep, dst := run(true)
	if ast.MaxStallNS == 0 || dst.MaxStallNS == 0 {
		t.Fatalf("stall telemetry missing: amortized %d ns, deamortized %d ns", ast.MaxStallNS, dst.MaxStallNS)
	}
	t.Logf("worst stall: amortized %.2fms, Q %d; deamortized %.2fms, Q %d",
		float64(ast.MaxStallNS)/1e6, ast.MaxStallQ, float64(dst.MaxStallNS)/1e6, dst.MaxStallQ)
	if dst.MaxStallNS*10 > ast.MaxStallNS {
		t.Errorf("worst stall not reduced ≥10×: amortized %.2fms vs deamortized %.2fms",
			float64(ast.MaxStallNS)/1e6, float64(dst.MaxStallNS)/1e6)
	}
	// The same claim in the paper's currency: the worst batch's tree work
	// priced as Q = reads + ω·writes, which no scheduler or collector
	// pause can inflate.
	if ast.MaxStallQ == 0 || dst.MaxStallQ == 0 {
		t.Fatalf("stall Q telemetry missing: amortized %d, deamortized %d", ast.MaxStallQ, dst.MaxStallQ)
	}
	if dst.MaxStallQ*10 > ast.MaxStallQ {
		t.Errorf("worst stall Q not reduced ≥10×: amortized %d vs deamortized %d", ast.MaxStallQ, dst.MaxStallQ)
	}
	// Each mode's measured worst stall stays within EXP-L3's predicted
	// worst pause at this point.
	spec := specL3()
	var pred func(Point) float64
	for _, c := range spec.Columns {
		if c.Name == "pred stall Q" {
			pred = c.Pred
		}
	}
	for _, m := range []struct {
		mode string
		q    int64
	}{{"amortized", ast.MaxStallQ}, {"deamortized", dst.MaxStallQ}} {
		want := pred(Point{axes: spec.Axes, vals: []interface{}{"drift", 16, m.mode}})
		if float64(m.q) > want {
			t.Errorf("%s worst stall Q %d exceeds the predicted %.0f", m.mode, m.q, want)
		}
	}
	if drep.OpsPerSec() < 0.7*arep.OpsPerSec() {
		t.Errorf("deamortized throughput collapsed: %.0f ops/sec vs amortized %.0f",
			drep.OpsPerSec(), arep.OpsPerSec())
	}
	if dst.DebtHighWater == 0 {
		t.Error("deamortized run recorded no debt high-water mark")
	}
}
