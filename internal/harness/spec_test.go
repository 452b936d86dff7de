package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestPointsEnumeration: cross products enumerate in row order (first
// axis outermost), dynamic axes see the outer assignment, and Skip
// prunes individual points — the EXP-B1 grid shape.
func TestPointsEnumeration(t *testing.T) {
	s := &Spec{
		ID: "T",
		Axes: []Axis{
			{Name: "w", Values: Ints(1, 4)},
			{Name: "mult", Dyn: func(outer Point) []interface{} {
				w := outer.Int("w")
				return Ints(1, w/2, w)
			}},
		},
		Skip: func(p Point) bool { return p.Int("mult") < 1 },
	}
	var got [][2]int
	for _, p := range s.Points() {
		got = append(got, [2]int{p.Int("w"), p.Int("mult")})
	}
	// w=1 yields mult values {1, 0, 1}: the 0 is skipped, the duplicate kept.
	want := [][2]int{{1, 1}, {1, 1}, {4, 1}, {4, 2}, {4, 4}}
	if len(got) != len(want) {
		t.Fatalf("enumerated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d = %v, want %v (full %v)", i, got[i], want[i], got)
		}
	}
}

// TestSpecTableMatchesRun: the one-worker convenience path and a
// four-worker pool must assemble identical tables.
func TestSpecTableMatchesRun(t *testing.T) {
	s, ok := ByID("EXP-B1")
	if !ok {
		t.Fatal("EXP-B1 missing")
	}
	var viaRun *Table
	execute(t, []*Spec{s}, 4, func(tbl *Table) { viaRun = tbl })
	serial := mustTable(t, s)
	var a, b bytes.Buffer
	viaRun.Render(&a)
	serial.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Run and Table renderings differ:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestPredColumns: a Pred hook divides the measured Row entry by the
// prediction, or emits the prediction itself on a nil entry.
func TestPredColumns(t *testing.T) {
	s := &Spec{
		ID:   "T",
		Axes: []Axis{{Name: "x", Values: Ints(3)}},
		Columns: append(Cols("x"),
			Column{Name: "ratio", Pred: func(p Point) float64 { return 2.0 }},
			Column{Name: "pred", Pred: func(p Point) float64 { return 7.5 }},
		),
		Point: func(p Point) Row { return Row{p.Int("x"), 3, nil} },
	}
	tbl := mustTable(t, s)
	if got := tbl.Rows[0]; got[1] != "1.50" || got[2] != "7.50" {
		t.Fatalf("pred cells = %v, want ratio 1.50 and prediction 7.50", got)
	}
}

// TestMemoPointSharesComputation: several hooks asking for the same
// point's params trigger one computation.
func TestMemoPointSharesComputation(t *testing.T) {
	calls := 0
	memo := MemoPoint(func(p Point) int {
		calls++
		return p.Int("x") * 10
	})
	p := Point{axes: []Axis{{Name: "x"}}, vals: []interface{}{4}}
	q := Point{axes: []Axis{{Name: "x"}}, vals: []interface{}{5}}
	if memo(p) != 40 || memo(p) != 40 || memo(q) != 50 {
		t.Fatal("memoized values wrong")
	}
	if calls != 2 {
		t.Fatalf("computed %d times for 2 distinct points", calls)
	}
}

// TestSelect: comma-separated selection in user order, "all"/empty for
// the registry, duplicate collapse with a warning, and full unknown-ID
// diagnostics.
func TestSelect(t *testing.T) {
	all, warns, err := Select("all")
	if err != nil || len(warns) != 0 || len(all) != len(All()) {
		t.Fatalf("Select(all) = %d specs, warns %v, err %v", len(all), warns, err)
	}
	if empty, warns, err := Select(""); err != nil || len(warns) != 0 || len(empty) != len(All()) {
		t.Fatalf("Select(\"\") should select the registry, got %d specs, warns %v, err %v", len(empty), warns, err)
	}

	specs, warns, err := Select("EXP-D1, EXP-Q1,EXP-D1")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].ID != "EXP-D1" || specs[1].ID != "EXP-Q1" {
		ids := make([]string, len(specs))
		for i, s := range specs {
			ids[i] = s.ID
		}
		t.Fatalf("Select order/dedup wrong: %v", ids)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "EXP-D1") || !strings.Contains(warns[0], "duplicate") {
		t.Fatalf("duplicate id must warn, got %v", warns)
	}

	_, _, err = Select("EXP-D1,EXP-NOPE,EXP-ALSO-NOPE")
	if err == nil {
		t.Fatal("unknown ids accepted")
	}
	for _, want := range []string{"EXP-NOPE", "EXP-ALSO-NOPE"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if strings.Contains(err.Error(), "EXP-D1") {
		t.Errorf("error %q names the known id EXP-D1", err)
	}
}

// TestTableJSON: one record per row, valid JSON Lines, columns and
// formatted values carried through.
func TestTableJSON(t *testing.T) {
	tbl := &Table{ID: "EXP-T", Title: "json shape", Columns: []string{"a", "b"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x,y", `q"r`)
	var buf bytes.Buffer
	if err := tbl.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d records for 2 rows:\n%s", len(lines), buf.String())
	}
	if want := `{"experiment":"EXP-T","title":"json shape","row":0,"columns":["a","b"],"values":["1","2.50"]}`; lines[0] != want {
		t.Errorf("record 0 = %s, want %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `"x,y"`) || !strings.Contains(lines[1], `q\"r`) {
		t.Errorf("record 1 did not JSON-escape cells: %s", lines[1])
	}
}
