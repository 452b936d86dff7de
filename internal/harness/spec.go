package harness

import (
	"fmt"
	"sync"
)

// This file is the declarative scenario engine. A Spec describes one
// experiment as a parameter grid (named axes: ω, N, machine shape,
// workload scenario, …), a point function measuring one grid point, and
// column definitions — optionally carrying predicted-bound hooks from
// internal/bounds and derived columns computed over the finished grid.
// The engine enumerates the grid, schedules the points (see LocalPool), and
// assembles the table deterministically in grid order, so the rendered
// output is identical at every parallelism level.

// Axis is one named dimension of a Spec's grid. Either Values or Dyn is
// set; Dyn computes the axis values from the assignment of the axes
// declared before it, for grids whose inner range depends on an outer
// value (e.g. the small-sort sweep, where N' ranges over multiples of M
// chosen relative to ω).
type Axis struct {
	Name   string
	Values []interface{}
	Dyn    func(outer Point) []interface{}
}

// Point is one grid point: an assignment of one value to every axis of
// its spec, looked up by axis name.
type Point struct {
	axes []Axis
	vals []interface{}
}

// Value returns the point's value on the named axis. It panics on an
// unknown axis name — a spec authoring bug, not a runtime condition.
func (p Point) Value(name string) interface{} {
	for i := range p.axes {
		if p.axes[i].Name == name {
			return p.vals[i]
		}
	}
	panic(fmt.Sprintf("harness: point has no axis %q", name))
}

// Int returns the named axis value as an int.
func (p Point) Int(name string) int { return p.Value(name).(int) }

// Str returns the named axis value as a string.
func (p Point) Str(name string) string { return p.Value(name).(string) }

// key is a deterministic identity for the point's assignment, used by
// MemoPoint caches.
func (p Point) key() string { return fmt.Sprintf("%v", p.vals) }

// Row is one grid point's measurements, raw and unformatted: one entry
// per (non-derived) column. Entries for predicted-bound columns hold the
// measured numerator (or nil to emit the prediction itself); everything
// else is formatted with the table's value formatter at assembly.
type Row []interface{}

// Column defines one table column. A plain column takes its cell from
// the point function's Row positionally. A column with Pred set is a
// predicted-bound column: the hook (typically an internal/bounds
// formula) is evaluated at the grid point and the cell becomes
// measured/predicted — or the prediction itself when the Row entry at
// this position is nil.
type Column struct {
	Name string
	Pred func(Point) float64
}

// Cols builds plain columns from names.
func Cols(names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n}
	}
	return out
}

// DerivedColumn is computed after every grid point has run, from the full
// raw row set — for summary cells that relate rows to each other, like a
// cost ratio against a baseline row.
// From hooks should treat numeric entries generically (toFloat accepts
// int, int64, uint64 and float64 alike) rather than type-asserting
// concrete integer types.
type DerivedColumn struct {
	Name string
	From func(rows []Row, i int) interface{}
}

// Spec is a declarative experiment: a grid, a point function, and the
// table shape. The engine owns iteration, scheduling and assembly;
// the spec owns only what is measured at one point.
type Spec struct {
	ID    string
	Title string // table heading
	Claim string // the paper statement, as the rendered table states it
	Notes []string

	// Index is the registry's one-line entry, printed by `aem bench
	// -list`; the rendered table states its claim in Title, Claim and
	// Notes.
	Index string

	// Axes span the grid; points enumerate in row order with the first
	// axis outermost (the last axis varies fastest), matching the nested
	// loops specs replace. Skip prunes individual points.
	Axes []Axis
	Skip func(Point) bool

	Columns []Column
	Derived []DerivedColumn

	// Point measures one grid point and returns one raw value per entry
	// of Columns. It must be deterministic and self-contained (private
	// machine, fixed seeds): points run concurrently.
	Point func(Point) Row
}

// Points enumerates the grid. Dynamic axes see the outer assignment;
// Skip prunes points after full assignment.
func (s *Spec) Points() []Point {
	var pts []Point
	vals := make([]interface{}, len(s.Axes))
	var rec func(d int)
	rec = func(d int) {
		if d == len(s.Axes) {
			p := Point{axes: s.Axes, vals: append([]interface{}(nil), vals...)}
			if s.Skip != nil && s.Skip(p) {
				return
			}
			pts = append(pts, p)
			return
		}
		values := s.Axes[d].Values
		if s.Axes[d].Dyn != nil {
			values = s.Axes[d].Dyn(Point{axes: s.Axes[:d], vals: vals[:d]})
		}
		for _, v := range values {
			vals[d] = v
			rec(d + 1)
		}
	}
	rec(0)
	return pts
}

// cells renders one point's Row into formatted cells, applying the
// predicted-bound hooks. It runs on the worker that measured the point,
// so hook evaluation parallelizes with the grid.
func (s *Spec) cells(p Point, row Row) []string {
	if len(row) != len(s.Columns) {
		panic(fmt.Sprintf("harness: %s: point returned %d values for %d columns", s.ID, len(row), len(s.Columns)))
	}
	out := make([]string, len(s.Columns), len(s.Columns)+len(s.Derived))
	for i, c := range s.Columns {
		v := row[i]
		if c.Pred != nil {
			pred := c.Pred(p)
			if v == nil {
				out[i] = fmtVal(pred)
			} else {
				out[i] = fmtVal(toFloat(v) / pred)
			}
			continue
		}
		out[i] = fmtVal(v)
	}
	return out
}

// assemble builds the final table from the grid's raw rows and
// pre-rendered cells, appending derived columns. It runs serially after
// the spec's last point completes.
func (s *Spec) assemble(rows []Row, cells [][]string) *Table {
	t := &Table{ID: s.ID, Title: s.Title, Claim: s.Claim, Notes: s.Notes}
	for _, c := range s.Columns {
		t.Columns = append(t.Columns, c.Name)
	}
	for _, d := range s.Derived {
		t.Columns = append(t.Columns, d.Name)
	}
	for i, cs := range cells {
		for _, d := range s.Derived {
			cs = append(cs, fmtVal(d.From(rows, i)))
		}
		t.Rows = append(t.Rows, cs)
	}
	return t
}

// Table runs the spec's grid on a one-worker LocalPool, the path `aem
// bench` runs, and returns the table or the error naming the failed
// point.
func (s *Spec) Table() (*Table, error) {
	var tbl *Table
	err := (&LocalPool{Par: 1}).Execute([]*Spec{s}, func(t *Table) { tbl = t })
	return tbl, err
}

// MemoPoint caches an expensive per-point computation — typically the
// bounds parameters shared by several predicted-bound hooks of one spec —
// so each grid point pays for it once no matter how many hooks ask.
// f must be deterministic; concurrent first calls may both compute, which
// is harmless.
func MemoPoint[T any](f func(Point) T) func(Point) T {
	var mu sync.Mutex
	cache := map[string]T{}
	return func(p Point) T {
		k := p.key()
		mu.Lock()
		v, ok := cache[k]
		mu.Unlock()
		if ok {
			return v
		}
		v = f(p)
		mu.Lock()
		cache[k] = v
		mu.Unlock()
		return v
	}
}

// Ints wraps ints as axis values.
func Ints(vs ...int) []interface{} {
	out := make([]interface{}, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// Vals wraps arbitrary values as axis values.
func Vals(vs ...interface{}) []interface{} { return vs }

// toFloat widens a raw measurement for a predicted-bound division.
func toFloat(v interface{}) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	}
	panic(fmt.Sprintf("harness: non-numeric measurement %T for a predicted-bound column", v))
}
