package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// sleepSpec is a single-point spec that sleeps and then emits one row —
// the minimal unit for scheduler-behavior tests.
func sleepSpec(id string, d time.Duration, body func()) *Spec {
	return &Spec{
		ID:      id,
		Columns: Cols("x"),
		Point: func(Point) Row {
			if body != nil {
				body()
			}
			time.Sleep(d)
			return Row{1}
		},
	}
}

// execute runs specs on a LocalPool of par workers and fails the test on
// an experiment failure.
func execute(t *testing.T, specs []*Spec, par int, emit func(*Table)) {
	t.Helper()
	if err := (&LocalPool{Par: par}).Execute(specs, emit); err != nil {
		t.Fatal(err)
	}
}

// TestRunEmitsInOrder: emission order must be input order even when later
// experiments finish first.
func TestRunEmitsInOrder(t *testing.T) {
	const n = 8
	specs := make([]*Spec, n)
	for i := range specs {
		specs[i] = sleepSpec(fmt.Sprintf("T-%d", i), time.Duration(n-i)*time.Millisecond, nil)
	}
	var got []string
	execute(t, specs, n, func(tbl *Table) { got = append(got, tbl.ID) })
	for i, id := range got {
		if want := fmt.Sprintf("T-%d", i); id != want {
			t.Fatalf("emission %d = %s, want %s (full order %v)", i, id, want, got)
		}
	}
	if len(got) != n {
		t.Fatalf("emitted %d tables, want %d", len(got), n)
	}
}

// TestRunBoundsConcurrency: no more than par points may run at once, even
// across specs sharing the pool.
func TestRunBoundsConcurrency(t *testing.T) {
	const n, par = 12, 3
	var inFlight, peak int64
	specs := make([]*Spec, n)
	for i := range specs {
		specs[i] = sleepSpec(fmt.Sprintf("T-%d", i), 2*time.Millisecond, func() {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
					break
				}
			}
		})
		spec := specs[i]
		inner := spec.Point
		spec.Point = func(p Point) Row {
			defer atomic.AddInt64(&inFlight, -1)
			return inner(p)
		}
	}
	execute(t, specs, par, func(*Table) {})
	if p := atomic.LoadInt64(&peak); p > par {
		t.Fatalf("observed %d concurrent points, budget %d", p, par)
	}
}

// TestRunSchedulesPointsNotExperiments: one artificially slow experiment
// must spread its points across the pool, so total wall-clock stays
// measurably below the serial sum. The bound is deliberately coarse
// (half the serial sum, where perfect scheduling gives a quarter) to stay
// robust on loaded CI machines.
func TestRunSchedulesPointsNotExperiments(t *testing.T) {
	const points, sleep, par = 8, 40 * time.Millisecond, 4
	slow := &Spec{
		ID:      "SLOW",
		Axes:    []Axis{{Name: "i", Values: Ints(0, 1, 2, 3, 4, 5, 6, 7)}},
		Columns: Cols("i"),
		Point: func(p Point) Row {
			time.Sleep(sleep)
			return Row{p.Int("i")}
		},
	}
	start := time.Now()
	var rows int
	execute(t, []*Spec{slow}, par, func(tbl *Table) { rows = len(tbl.Rows) })
	elapsed := time.Since(start)
	if rows != points {
		t.Fatalf("emitted %d rows, want %d", rows, points)
	}
	serial := time.Duration(points) * sleep
	if elapsed >= serial/2 {
		t.Errorf("wall-clock %v not measurably below the serial sum %v at par %d — points not scheduled individually", elapsed, serial, par)
	}
}

// TestRunPanicPropagates: a panicking experiment must not deadlock the
// pool, and the failure must surface with the experiment's ID.
func TestRunPanicPropagates(t *testing.T) {
	specs := []*Spec{
		sleepSpec("OK-1", 0, nil),
		{ID: "BOOM", Columns: Cols("x"), Point: func(Point) Row { panic("kaput") }},
		sleepSpec("OK-2", 0, nil),
	}
	err := (&LocalPool{Par: 2}).Execute(specs, func(*Table) {})
	if err == nil {
		t.Fatal("failure did not propagate")
	}
	if msg := err.Error(); !strings.Contains(msg, "BOOM") || !strings.Contains(msg, "kaput") {
		t.Fatalf("error %q lacks experiment context", msg)
	}
}

// TestRunAggregatesAllFailures: with several failing experiments the
// returned error must name every failed experiment ID, not just the
// first, and tables ahead of the first failure must still be emitted.
func TestRunAggregatesAllFailures(t *testing.T) {
	specs := []*Spec{
		sleepSpec("OK-1", 0, nil),
		{ID: "BOOM-1", Columns: Cols("x"), Point: func(Point) Row { panic("first failure") }},
		sleepSpec("OK-2", 0, nil),
		{ID: "BOOM-2", Columns: Cols("x"), Point: func(Point) Row { panic("second failure") }},
	}
	var emitted []string
	err := (&LocalPool{Par: 4}).Execute(specs, func(tbl *Table) { emitted = append(emitted, tbl.ID) })
	if err == nil {
		t.Fatal("no error despite two failing experiments")
	}
	for _, want := range []string{"BOOM-1", "first failure", "BOOM-2", "second failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error %q is missing %q", err, want)
		}
	}
	if len(emitted) != 1 || emitted[0] != "OK-1" {
		t.Errorf("emitted %v, want the deterministic prefix [OK-1]", emitted)
	}
}

// TestRunEnumerationPanicCarriesID: a panic inside grid enumeration (a
// Dyn axis or Skip hook — spec-authored code) must be reported with the
// experiment's ID like any point failure, and must not block the
// deterministic prefix ahead of it.
func TestRunEnumerationPanicCarriesID(t *testing.T) {
	specs := []*Spec{
		sleepSpec("OK-1", 0, nil),
		{
			ID:      "BAD-GRID",
			Axes:    []Axis{{Name: "x", Dyn: func(Point) []interface{} { panic("axis exploded") }}},
			Columns: Cols("x"),
			Point:   func(p Point) Row { return Row{p.Int("x")} },
		},
		sleepSpec("OK-2", 0, nil),
	}
	var emitted []string
	err := (&LocalPool{Par: 4}).Execute(specs, func(tbl *Table) { emitted = append(emitted, tbl.ID) })
	if err == nil {
		t.Fatal("enumeration failure did not propagate")
	}
	if msg := err.Error(); !strings.Contains(msg, "BAD-GRID") || !strings.Contains(msg, "axis exploded") {
		t.Fatalf("error %q lacks the failing experiment's ID", msg)
	}
	if len(emitted) != 1 || emitted[0] != "OK-1" {
		t.Errorf("emitted %v, want the deterministic prefix [OK-1]", emitted)
	}
}

// runQuiet renders the specs at the given par, returning the failure
// message (the failure-path output) beside the rendered bytes.
func runQuiet(specs []*Spec, par int) (out []byte, failure string) {
	var buf bytes.Buffer
	if err := (&LocalPool{Par: par}).Execute(specs, func(tbl *Table) { tbl.Render(&buf) }); err != nil {
		failure = err.Error()
	}
	return buf.Bytes(), failure
}

// TestRunRandomizedParByteIdentity is the scheduler's property test:
// across randomized par values, emitted bytes must be byte-identical to
// par 1 — including with a panic-injecting spec in the mix, where the
// emitted prefix and the aggregated failure message must also be stable.
func TestRunRandomizedParByteIdentity(t *testing.T) {
	mkSpecs := func(withPanic bool) []*Spec {
		grid := &Spec{
			ID:    "GRID",
			Title: "synthetic multi-axis grid",
			Axes: []Axis{
				{Name: "a", Values: Ints(1, 2, 3)},
				{Name: "b", Values: Ints(10, 20, 30, 40)},
				{Name: "c", Dyn: func(outer Point) []interface{} { return Ints(0, outer.Int("a")) }},
			},
			Skip: func(p Point) bool { return p.Int("b") == 30 && p.Int("c") == 0 },
			Columns: append(Cols("a", "b", "c", "sum"),
				Column{Name: "ratio", Pred: func(p Point) float64 { return float64(p.Int("b")) }}),
			Derived: []DerivedColumn{
				{Name: "vs first", From: func(rows []Row, i int) interface{} {
					return toFloat(rows[i][3]) / toFloat(rows[0][3])
				}},
			},
			Point: func(p Point) Row {
				s := p.Int("a") + p.Int("b") + p.Int("c")
				return Row{p.Int("a"), p.Int("b"), p.Int("c"), s, s}
			},
		}
		specs := []*Spec{grid}
		if withPanic {
			bomb := &Spec{
				ID:      "BOMB",
				Axes:    []Axis{{Name: "i", Values: Ints(0, 1, 2, 3, 4, 5)}},
				Columns: Cols("i"),
				Point: func(p Point) Row {
					if p.Int("i") >= 3 {
						panic(fmt.Sprintf("injected at %d", p.Int("i")))
					}
					return Row{p.Int("i")}
				},
			}
			specs = append(specs, bomb, sleepSpec("AFTER", 0, nil))
		}
		return specs
	}

	for _, withPanic := range []bool{false, true} {
		wantOut, wantFail := runQuiet(mkSpecs(withPanic), 1)
		if withPanic == (wantFail == "") {
			t.Fatalf("withPanic=%v but failure=%q", withPanic, wantFail)
		}
		r := rng.New(42)
		for trial := 0; trial < 12; trial++ {
			par := 2 + int(r.Intn(15))
			out, fail := runQuiet(mkSpecs(withPanic), par)
			if !bytes.Equal(out, wantOut) {
				t.Fatalf("withPanic=%v par=%d: output differs from par=1", withPanic, par)
			}
			if fail != wantFail {
				t.Fatalf("withPanic=%v par=%d: failure %q != par=1 failure %q", withPanic, par, fail, wantFail)
			}
		}
	}
}

// TestParallelHarnessDeterminism renders a set of real experiments at
// par=1 and par=8 and demands byte-identical output — the acceptance
// criterion behind aem bench's -par flag. Fast, bounds-oriented
// experiments keep the test snappy; every experiment derives its inputs
// from fixed seeds, so any divergence means shared mutable state.
func TestParallelHarnessDeterminism(t *testing.T) {
	ids := []string{"EXP-B1", "EXP-P2", "EXP-F2", "EXP-R1"}
	var specs []*Spec
	for _, id := range ids {
		s, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		specs = append(specs, s)
	}
	render := func(par int) []byte {
		var buf bytes.Buffer
		execute(t, specs, par, func(tbl *Table) { tbl.Render(&buf) })
		return buf.Bytes()
	}
	seq := render(1)
	parl := render(8)
	if !bytes.Equal(seq, parl) {
		t.Fatalf("par=1 and par=8 outputs differ:\n--- par=1 ---\n%s\n--- par=8 ---\n%s", seq, parl)
	}
	if len(seq) == 0 {
		t.Fatal("experiments rendered nothing")
	}
}

// TestRunAllCoversEveryExperiment: running All() emits one table per
// registered experiment, in index order.
func TestRunAllCoversEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is multi-second")
	}
	all := All()
	var tables []*Table
	execute(t, all, 8, func(tbl *Table) { tables = append(tables, tbl) })
	if len(tables) != len(all) {
		t.Fatalf("emitted %d tables for %d experiments", len(tables), len(all))
	}
	for i, tbl := range tables {
		if tbl.ID != all[i].ID {
			t.Errorf("table %d is %s, want %s", i, tbl.ID, all[i].ID)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", tbl.ID)
		}
	}
}

// gridSpecs builds a small multi-spec registry exercising every table
// feature: a multi-axis grid with a dynamic axis, Skip, predicted-bound
// columns and a derived column over the finished grid; and a second
// plain spec of strings and floats.
func gridSpecs() []*Spec {
	grid := &Spec{
		ID:    "GRID",
		Title: "synthetic multi-axis grid",
		Axes: []Axis{
			{Name: "a", Values: Ints(1, 2, 3)},
			{Name: "b", Values: Ints(10, 20, 30, 40)},
			{Name: "c", Dyn: func(outer Point) []interface{} { return Ints(0, outer.Int("a")) }},
		},
		Skip: func(p Point) bool { return p.Int("b") == 30 && p.Int("c") == 0 },
		Columns: append(Cols("a", "b", "c", "sum"),
			Column{Name: "ratio", Pred: func(p Point) float64 { return float64(p.Int("b")) }}),
		Derived: []DerivedColumn{
			{Name: "vs first", From: func(rows []Row, i int) interface{} {
				return toFloat(rows[i][3]) / toFloat(rows[0][3])
			}},
		},
		Point: func(p Point) Row {
			s := p.Int("a") + p.Int("b") + p.Int("c")
			return Row{p.Int("a"), p.Int("b"), p.Int("c"), s, s}
		},
	}
	labels := &Spec{
		ID:      "LABELS",
		Title:   "strings and floats",
		Axes:    []Axis{{Name: "s", Values: Vals("x", "y,z", `q"r`)}},
		Columns: Cols("s", "third"),
		Point: func(p Point) Row {
			return Row{p.Str("s"), 1.0 / 3.0}
		},
	}
	return []*Spec{grid, labels}
}

// timingSink keeps TestLocalPoolTiming's allocations on the heap.
var timingSink atomic.Value

// TestLocalPoolTiming: a timed pool runs one point at a time whatever its
// Par, and every emitted table carries one cost entry per row — a
// trailing "wall ms" column and wall_ns, alloc_objects and alloc_bytes
// JSON fields, with each point's own 1 MiB allocation counted. With
// Timing unset nothing changes, which is what keeps the recorded goldens
// stable.
func TestLocalPoolTiming(t *testing.T) {
	var inFlight, peak int64
	specs := gridSpecs()
	for _, s := range specs {
		inner := s.Point
		s.Point = func(p Point) Row {
			cur := atomic.AddInt64(&inFlight, 1)
			defer atomic.AddInt64(&inFlight, -1)
			for old := atomic.LoadInt64(&peak); cur > old && !atomic.CompareAndSwapInt64(&peak, old, cur); old = atomic.LoadInt64(&peak) {
			}
			timingSink.Store(make([]byte, 1<<20))
			time.Sleep(time.Millisecond)
			return inner(p)
		}
	}
	var timed, plain []*Table
	if err := (&LocalPool{Par: 4, Timing: true}).Execute(specs, func(tbl *Table) { timed = append(timed, tbl) }); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p != 1 {
		t.Errorf("a timed pool at Par 4 ran %d points at once, want 1", p)
	}
	execute(t, gridSpecs(), 4, func(tbl *Table) { plain = append(plain, tbl) })
	if len(timed) != 2 || len(plain) != 2 {
		t.Fatalf("emitted %d timed and %d plain tables, want 2 each", len(timed), len(plain))
	}

	for i, tbl := range timed {
		if len(tbl.Timing) != len(tbl.Rows) {
			t.Fatalf("%s: %d cost entries for %d rows", tbl.ID, len(tbl.Timing), len(tbl.Rows))
		}
		var text bytes.Buffer
		tbl.Render(&text)
		if !strings.Contains(text.String(), "wall ms") || !strings.Contains(text.String(), "allocs") {
			t.Errorf("%s: timed rendering lacks the wall ms and allocs columns", tbl.ID)
		}
		var jb bytes.Buffer
		if err := tbl.JSON(&jb); err != nil {
			t.Fatal(err)
		}
		for r, line := range strings.Split(strings.TrimSpace(jb.String()), "\n") {
			var rec struct {
				WallNS       *int64  `json:"wall_ns"`
				AllocObjects *uint64 `json:"alloc_objects"`
				AllocBytes   *uint64 `json:"alloc_bytes"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.WallNS == nil || rec.AllocObjects == nil || rec.AllocBytes == nil {
				t.Fatalf("%s row %d: timed JSON record lacks a cost field: %s", tbl.ID, r, line)
			}
			if *rec.AllocObjects < 1 || *rec.AllocBytes < 1<<20 {
				t.Errorf("%s row %d: %d objects, %d bytes; the point allocated one 1 MiB object", tbl.ID, r, *rec.AllocObjects, *rec.AllocBytes)
			}
		}

		if plain[i].Timing != nil {
			t.Fatalf("%s: timing attached without Timing", plain[i].ID)
		}
		var ptext bytes.Buffer
		plain[i].Render(&ptext)
		if strings.Contains(ptext.String(), "wall ms") {
			t.Errorf("%s: untimed rendering grew a wall ms column", plain[i].ID)
		}
	}
}
