package harness

import (
	"strings"
	"testing"
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
	tbl := registryTable(t, "EXP-L1")
	if len(tbl.Rows) != 4 {
		t.Fatalf("EXP-L1 has %d rows, want 4 (ω axis)", len(tbl.Rows))
	}
	wpo, fl := floats(t, column(t, tbl, "writes/op")), floats(t, column(t, tbl, "flushes"))
	for i := 1; i < len(tbl.Rows); i++ {
		if wpo[i] >= wpo[i-1] {
			t.Errorf("writes/op did not fall with ω: row %d has %.3f after %.3f", i, wpo[i], wpo[i-1])
		}
		if fl[i] > fl[i-1] {
			t.Errorf("flushes grew with ω: row %d has %.0f after %.0f", i, fl[i], fl[i-1])
		}
	}
	// Every per-op latency column must be populated; max stall may be 0
	// at the largest ω if no flush fired.
	for _, name := range []string{"p50", "p99", "p99.9", "max"} {
		for i, cell := range column(t, tbl, name) {
			if cell == "" || cell == "0ns" {
				t.Errorf("row %d: latency column %q empty: %q", i, name, cell)
			}
		}
	}
	// The smallest-ω row flushes constantly: its stall column must be real.
	stall := column(t, tbl, "max stall")
	if st := stall[0]; st == "0ns" || st == "" {
		t.Errorf("ω=1 recorded no flush stall: %q", st)
	}
	if strings.HasPrefix(stall[0], "-") {
		t.Error("negative stall")
	}
}
