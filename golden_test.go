package repro

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// renderAll renders every experiment table exactly as `aem bench` does,
// returning both the aligned-text and the JSON Lines (-json) forms. It
// checks each table's shape on the way: rows exist, every row has one
// cell per column, and the CSV is a header plus one line per row.
func renderAll(t *testing.T, par int) (text, jsonOut []byte) {
	var buf, jbuf, csv bytes.Buffer
	err := (&harness.LocalPool{Par: par}).Execute(harness.All(), func(tbl *harness.Table) {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", tbl.ID)
		}
		for i, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s row %d has %d cells for %d columns", tbl.ID, i, len(row), len(tbl.Columns))
			}
		}
		csv.Reset()
		tbl.CSV(&csv)
		if lines := bytes.Count(csv.Bytes(), []byte("\n")); lines != len(tbl.Rows)+1 {
			t.Errorf("%s CSV has %d lines, want %d", tbl.ID, lines, len(tbl.Rows)+1)
		}
		tbl.Render(&buf)
		if err := tbl.JSON(&jbuf); err != nil {
			t.Fatalf("JSON render: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), jbuf.Bytes()
}

// TestAembenchGolden pins the full `aem bench` output byte-for-byte, in
// both its rendered-table and JSON Lines forms: every experiment is
// deterministic from its seeds, so any diff is a real behavior change —
// in an algorithm, a cost model, a bounds formula, a spec grid or the
// renderers — and must be reviewed (and re-recorded with
// `go test -run TestAembenchGolden -update`).
//
// The same rendering is produced at -par 1 and -par 8 and compared, so
// ordered-emission regressions in the point-granular harness fail loudly
// here rather than flaking downstream.
func TestAembenchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment twice")
	}
	seq, seqJSON := renderAll(t, 1)
	par, parJSON := renderAll(t, 8)
	if !bytes.Equal(seq, par) || !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("aem bench output differs between -par 1 and -par 8: ordered emission broken")
	}

	golden := filepath.Join("testdata", "aembench.golden")
	goldenJSON := filepath.Join("testdata", "aembench_json.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, seq, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenJSON, seqJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(seq, want) {
		t.Errorf("aem bench output diverged from %s — if intentional, regenerate with `go test -run TestAembenchGolden -update`\n%s",
			golden, diffHint(want, seq))
	}
	wantJSON, err := os.ReadFile(goldenJSON)
	if err != nil {
		t.Fatalf("missing JSON golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(seqJSON, wantJSON) {
		t.Errorf("aem bench -json output diverged from %s — if intentional, regenerate with `go test -run TestAembenchGolden -update`\n%s",
			goldenJSON, diffHint(wantJSON, seqJSON))
	}
}

// diffHint returns the first differing line pair, so the failure message
// points at the drifted experiment without dumping both renderings.
func diffHint(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return "first diff at line " + itoa(i+1) + ":\n  want: " + string(w[i]) + "\n  got:  " + string(g[i])
		}
	}
	return "length differs: want " + itoa(len(w)) + " lines, got " + itoa(len(g))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
