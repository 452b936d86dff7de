package harness

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/aem"
)

// TestFitDeviceOmegaColumns pins the derived-column wiring on synthetic
// rows: the fit is computed per engine value, reads the right columns,
// and accepts numbers widened to float64.
func TestFitDeviceOmegaColumns(t *testing.T) {
	// Engine "a": wall = 100·Qr + 300·Qw (ω̂ = 3); engine "b": wall =
	// 100·Qr + 800·Qw (ω̂ = 8). Two read/write mixes per engine keep each
	// fit identifiable. Numbers arrive as float64.
	mk := func(engine string, qr, qw float64, alpha, beta float64) Row {
		return Row{"alg", float64(64), engine, qr, qw, 0, alpha*qr + beta*qw}
	}
	rows := []Row{
		mk("a", 300, 100, 100, 300),
		mk("a", 100, 100, 100, 300),
		mk("b", 300, 100, 100, 800),
		mk("b", 100, 100, 100, 800),
	}
	cols := fitDeviceOmega(2, 3, 6)
	for i, want := range []string{"3.00", "3.00", "8.00", "8.00"} {
		if got := cols[0].From(rows, i); got != want {
			t.Errorf("row %d fitted ω = %v, want %s", i, got, want)
		}
		if got := cols[1].From(rows, i); got != "1.000" {
			t.Errorf("row %d R² = %v on noise-free data", i, got)
		}
	}

	// A single-mix engine is collinear: the columns degrade to n/a
	// rather than panicking mid-assembly.
	collinear := []Row{
		mk("c", 100, 100, 1, 1),
		mk("c", 200, 200, 1, 1),
	}
	if got := cols[0].From(collinear, 0); got != "n/a" {
		t.Errorf("collinear engine fitted %v, want n/a", got)
	}
}

// TestIOAxisEndToEnd runs EXP-IO1 for real (tmpdir-backed): every grid
// point executes on an owned file engine, wall cells are positive, and
// the fitted-ω column carries a finite positive fit per engine.
func TestIOAxisEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts on file-backed storage")
	}
	t.Setenv(aem.FileDirEnv, t.TempDir())
	s, ok := ByID("EXP-IO1")
	if !ok {
		t.Fatal("EXP-IO1 missing from the auxiliary registry")
	}
	var tbl *Table
	execute(t, []*Spec{s}, 4, func(x *Table) { tbl = x })
	if len(tbl.Rows) != len(s.Points()) {
		t.Fatalf("grid produced %d rows for %d points", len(tbl.Rows), len(s.Points()))
	}
	nc := len(tbl.Columns)
	if tbl.Columns[nc-2] != "fitted ω" || tbl.Columns[nc-1] != "fit R²" {
		t.Fatalf("trailing columns %v, want fitted ω / fit R²", tbl.Columns[nc-3:])
	}
	wallCol := 6
	if tbl.Columns[wallCol] != "wall ns" {
		t.Fatalf("column %d is %q, want wall ns", wallCol, tbl.Columns[wallCol])
	}
	for _, row := range tbl.Rows {
		wall, err := strconv.ParseFloat(row[wallCol], 64)
		if err != nil || wall <= 0 {
			t.Errorf("%s/%s: wall cell %q not a positive duration", row[0], row[2], row[wallCol])
		}
		if cell := row[nc-2]; cell != "n/a" {
			om, err := strconv.ParseFloat(cell, 64)
			if err != nil || om <= 0 {
				t.Errorf("%s/%s: fitted ω cell %q not finite positive", row[0], row[2], cell)
			}
		}
	}
	// The fit must actually converge for at least one engine on real
	// measurements — an all-n/a table means the grid's mixes collapsed.
	converged := 0
	for _, row := range tbl.Rows {
		if row[nc-2] != "n/a" {
			converged++
		}
	}
	if converged == 0 {
		t.Error("no engine's (Qr, Qw, wall) regression converged")
	}
	// The grid leaves no backing files behind: every point closed its
	// engine on release.
	dir := os.Getenv(aem.FileDirEnv)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d backing files leaked into %s after the sweep", len(entries), dir)
	}
}

// TestPooledMachinePersistentIdentity pins the pooling policy for
// stateful engines: concurrent requests never alias one machine (one
// backing file per live point), and release closes the engine instead of
// recycling it — its temp file is gone, and the next request constructs
// a genuinely fresh machine.
func TestPooledMachinePersistentIdentity(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(aem.FileDirEnv, dir)
	cfg := aem.Config{M: 64, B: 8, Omega: 4}

	a, relA := PooledMachine(cfg, "file")
	b, relB := PooledMachine(cfg, "file")
	if a == b {
		t.Fatal("two live points share one file-backed machine")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("%d backing files for 2 live machines, want 2", len(entries))
	}
	relA()
	relA() // idempotent: double release must not double-close
	relB()
	entries, _ = os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("%d backing files survived release, want 0 (close, not recycle)", len(entries))
	}

	c, relC := PooledMachine(cfg, "file")
	defer relC()
	if c == a || c == b {
		t.Fatal("released persistent machine was recycled; persistent engines pool by identity")
	}
	poolWorkload(c, 64)
}
