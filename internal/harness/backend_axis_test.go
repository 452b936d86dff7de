package harness

import (
	"strings"
	"testing"
)

// TestBackendAxisStatsEquality runs the auxiliary storage-backend sweeps
// and pins the ROADMAP claim they exist for: at every grid point, every
// engine that serves the point produces I/O accounting identical to the
// slice reference — the "vs slice" cell must read "=" (or "ref" for the
// reference row itself), never DIFF.
func TestBackendAxisStatsEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every algorithm on every backend")
	}
	for _, id := range []string{"EXP-BE1", "EXP-BE2"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			s, ok := ByID(id)
			if !ok {
				t.Fatalf("%s missing from the auxiliary registry", id)
			}
			var tbl *Table
			Run([]*Spec{s}, 4, func(x *Table) { tbl = x })
			if len(tbl.Rows) == 0 {
				t.Fatal("backend sweep produced no rows")
			}
			eq := len(tbl.Columns) - 1
			if tbl.Columns[eq] != "vs slice" {
				t.Fatalf("last column is %q, want the vs slice equality column", tbl.Columns[eq])
			}
			perAlg := map[string]int{}
			for _, row := range tbl.Rows {
				if row[eq] != "=" && row[eq] != "ref" {
					t.Errorf("%s on %s: cross-engine accounting diverged: %s", row[0], row[1], row[eq])
				}
				perAlg[row[0]]++
				if row[1] == "counting" && !(id == "EXP-BE2" && row[0] == "naive") {
					t.Errorf("counting engine served %s/%s, which branches on block contents", row[0], row[1])
				}
			}
			// Every algorithm must have run on both data-bearing engines
			// (slice + file), so the equality column compared something.
			for alg, n := range perAlg {
				if n < 2 {
					t.Errorf("%s ran on %d backend(s); the axis must span at least slice and file", alg, n)
				}
			}
		})
	}
}

// TestAuxRegistrySeparation: auxiliary specs resolve by id and are listed
// separately, but never leak into All() — which is what keeps the default
// `aem bench` output and its goldens byte-stable.
func TestAuxRegistrySeparation(t *testing.T) {
	for _, s := range Aux() {
		if _, ok := ByID(s.ID); !ok {
			t.Errorf("aux spec %s not resolvable by id", s.ID)
		}
		for _, reg := range All() {
			if reg.ID == s.ID {
				t.Errorf("aux spec %s leaked into All()", s.ID)
			}
		}
	}
	specs, warns, err := Select("EXP-BE1,EXP-BE2")
	if err != nil || len(warns) != 0 || len(specs) != 2 {
		t.Fatalf("Select over aux ids: %d specs, warns %v, err %v", len(specs), warns, err)
	}
	all, _, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if strings.HasPrefix(s.ID, "EXP-BE") {
			t.Errorf("Select(all) included aux spec %s", s.ID)
		}
	}
}
