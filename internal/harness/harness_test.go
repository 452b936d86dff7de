package harness

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestByID(t *testing.T) {
	if _, ok := ByID("EXP-M1"); !ok {
		t.Error("EXP-M1 not found")
	}
	if _, ok := ByID("EXP-NOPE"); ok {
		t.Error("bogus id found")
	}
}

func TestProofPipelineExperimentsReportPreserved(t *testing.T) {
	for _, id := range []string{"EXP-R1", "EXP-F1"} {
		for _, cell := range column(t, registryTable(t, id), "placement") {
			if cell != "preserved" {
				t.Errorf("%s: placement %q", id, cell)
			}
		}
	}
}

func TestMergeConstantsAreFlat(t *testing.T) {
	// The reproduction criterion for EXP-M1: the normalized read and write
	// constants vary by at most 4× across the entire sweep (they are
	// Theorem 3.2's O(1) factors).
	tbl := registryTable(t, "EXP-M1")
	for _, col := range []string{"reads/(w(n+m))", "writes/(n+m)"} {
		vals := floats(t, column(t, tbl, col))
		if lo, hi := slices.Min(vals), slices.Max(vals); hi/lo > 4 {
			t.Errorf("column %q spread %.2f–%.2f exceeds 4x", col, lo, hi)
		}
	}
}

// registryTable runs the registered experiment id and returns its table.
func registryTable(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s is not registered", id)
	}
	return mustTable(t, e)
}

// mustTable runs s's grid and fails the test if a point fails.
func mustTable(t *testing.T, s *Spec) *Table {
	t.Helper()
	tbl, err := s.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// column returns the cells of tbl's column name, one per row.
func column(t *testing.T, tbl *Table, name string) []string {
	t.Helper()
	i := slices.Index(tbl.Columns, name)
	if i < 0 {
		t.Fatalf("%s has no column %q (have %v)", tbl.ID, name, tbl.Columns)
	}
	cells := make([]string, len(tbl.Rows))
	for r, row := range tbl.Rows {
		cells[r] = row[i]
	}
	return cells
}

// checkBands checks every measured/predicted ("m/p") cell of tbl against
// the [0.5, 2] band the predictors are held to.
func checkBands(t *testing.T, tbl *Table) {
	t.Helper()
	bands := 0
	for _, col := range tbl.Columns {
		if !strings.HasSuffix(col, " m/p") {
			continue
		}
		bands++
		for row, r := range floats(t, column(t, tbl, col)) {
			if r < 0.5 || r > 2 {
				t.Errorf("%s row %v: %s = %v outside [0.5, 2]", tbl.ID, tbl.Rows[row][:2], col, r)
			}
		}
	}
	if bands == 0 {
		t.Fatalf("%s has no m/p column", tbl.ID)
	}
}

// byScenario calls f with each scenario's row range [lo, hi) of tbl,
// whose rows are grouped by scenario.
func byScenario(t *testing.T, tbl *Table, f func(sc string, lo, hi int)) {
	sc := column(t, tbl, "scenario")
	for lo, hi := 0, 0; lo < len(sc); lo = hi {
		for hi = lo + 1; hi < len(sc) && sc[hi] == sc[lo]; hi++ {
		}
		f(sc[lo], lo, hi)
	}
}

// checkCostGrowth checks one scenario's cost/op across ω (ascending) for a
// buffered structure and its unbatched baseline: over the ω span the
// buffered cost must grow by well under half of it, while the baseline —
// paying ω on its ~constant writes/op — is ~affine in ω, so the gap
// between them widens.
func checkCostGrowth(t *testing.T, sc string, w, buffered, baseline []float64) {
	t.Helper()
	last := len(w) - 1
	if last < 3 {
		t.Fatalf("%s: %d ω values, want at least 4", sc, last+1)
	}
	if span, growth := w[last]/w[0], buffered[last]/buffered[0]; growth > span/2 {
		t.Errorf("%s: buffered cost grew %.1f× over a %.0f× ω span — not sublinear", sc, growth, span)
	}
	// Affine: compare the baseline's marginal cost over the top octave
	// with the one between the second and third ω.
	top := (baseline[last] - baseline[last-1]) / (w[last] - w[last-1])
	bottom := (baseline[2] - baseline[1]) / (w[2] - w[1])
	if top < 0.5*bottom || top > 2*bottom {
		t.Errorf("%s: baseline marginal cost/ω drifted (%.3f vs %.3f) — not ~linear in ω", sc, top, bottom)
	}
	if baseline[last]/buffered[last] <= baseline[0]/buffered[0] {
		t.Errorf("%s: baseline/buffered cost gap did not widen with ω", sc)
	}
}

// floats parses rendered numeric cells.
func floats(t *testing.T, cells []string) []float64 {
	t.Helper()
	vals := make([]float64, len(cells))
	for i, c := range cells {
		v, err := strconv.ParseFloat(c, 64)
		if err != nil {
			t.Fatalf("cell %q: %v", c, err)
		}
		vals[i] = v
	}
	return vals
}

func TestFmtVal(t *testing.T) {
	cases := []struct {
		in   interface{}
		want string
	}{
		{0.0, "0"},
		{12345.6, "12346"},
		{3.14159, "3.14"},
		{0.1234, "0.1234"},
		{"x", "x"},
		{42, "42"},
	}
	for _, tc := range cases {
		if got := fmtVal(tc.in); got != tc.want {
			t.Errorf("fmtVal(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestCSVQuoting(t *testing.T) {
	tbl := &Table{ID: "T", Columns: []string{"a", "b"}}
	tbl.AddRow(`has,comma`, `has"quote`)
	var buf bytes.Buffer
	tbl.CSV(&buf)
	want := "a,b\n\"has,comma\",\"has\"\"quote\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}
