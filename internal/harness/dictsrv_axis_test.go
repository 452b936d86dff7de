package harness

import (
	"strconv"
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
