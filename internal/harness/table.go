// Package harness runs the repository's experiments: one per theorem,
// lemma or claim of the paper (the experiment index lives in README.md,
// "Experiments").
// Each experiment sweeps a parameter range on the AEM simulator, measures
// I/O costs, evaluates the paper's predicted bound at the same points, and
// emits a table of measured-vs-predicted values. Tables render as aligned
// text (for the terminal and recorded results) and as CSV (for plotting).
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Claim   string   // the paper statement being reproduced
	Notes   []string // caveats, deviations, interpretation
	Columns []string
	Rows    [][]string

	// Timing holds each row's grid-point cost to the process when a pool
	// ran with Timing set (nil otherwise — the default, so recorded
	// goldens stay byte-identical). When set, Render and CSV append
	// "wall ms", "allocs" and "alloc KiB" columns and JSON records carry
	// wall_ns, alloc_objects and alloc_bytes fields: the simulator's own
	// performance rides along with the model cost.
	Timing []PointTiming
}

// PointTiming is what one grid point cost the process that ran it.
type PointTiming struct {
	WallNS       int64  `json:"wall_ns"`
	AllocObjects uint64 `json:"alloc_objects"` // heap objects allocated
	AllocBytes   uint64 `json:"alloc_bytes"`   // heap bytes allocated
}

// timedColumns returns the column headers including the timing columns
// when per-point costs are attached.
func (t *Table) timedColumns() []string {
	if t.Timing == nil {
		return t.Columns
	}
	return append(append([]string(nil), t.Columns...), "wall ms", "allocs", "alloc KiB")
}

// timedRow returns row i's cells including the timing cells when
// per-point costs are attached.
func (t *Table) timedRow(i int) []string {
	if t.Timing == nil {
		return t.Rows[i]
	}
	c := t.Timing[i]
	return append(append([]string(nil), t.Rows[i]...),
		fmtVal(float64(c.WallNS)/1e6), fmtVal(c.AllocObjects), fmtVal(float64(c.AllocBytes)/1024))
}

// AddRow appends a row, formatting each value with %v (floats get
// 3 significant decimals via fmtVal).
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		row[i] = fmtVal(v)
	}
	if len(row) != len(t.Columns) {
		panic(fmt.Sprintf("harness: row has %d values for %d columns", len(row), len(t.Columns)))
	}
	t.Rows = append(t.Rows, row)
}

func fmtVal(v interface{}) string {
	switch x := v.(type) {
	case float64:
		switch {
		case x == 0:
			return "0"
		case x >= 1000:
			return fmt.Sprintf("%.0f", x)
		case x >= 1:
			return fmt.Sprintf("%.2f", x)
		default:
			return fmt.Sprintf("%.4f", x)
		}
	case string:
		return x
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	cols := t.timedColumns()
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for ri := range t.Rows {
		for i, cell := range t.timedRow(ri) {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for ri := range t.Rows {
		line(t.timedRow(ri))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values (quoted where needed).
func (t *Table) CSV(w io.Writer) {
	writeCSVRow(w, t.timedColumns())
	for ri := range t.Rows {
		writeCSVRow(w, t.timedRow(ri))
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		parts[i] = c
	}
	fmt.Fprintln(w, strings.Join(parts, ","))
}

// JSON writes the table as JSON Lines: one record per row carrying the
// experiment identity and the formatted cells (measured and predicted
// columns included) — the structured form benchmark artifacts are built
// from. With timing attached, each record additionally carries the grid
// point's PointTiming fields.
func (t *Table) JSON(w io.Writer) error {
	type record struct {
		Experiment string   `json:"experiment"`
		Title      string   `json:"title"`
		Row        int      `json:"row"`
		Columns    []string `json:"columns"`
		Values     []string `json:"values"`
		*PointTiming
	}
	enc := json.NewEncoder(w)
	for i, row := range t.Rows {
		rec := record{t.ID, t.Title, i, t.Columns, row, nil}
		if t.Timing != nil {
			rec.PointTiming = &t.Timing[i]
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Aux returns the auxiliary experiment registry: specs selectable by id
// (`aem bench -exp EXP-L1`) and listed by -list, but not part of All(),
// so the default `aem bench` output and its recorded goldens are
// unaffected by their presence.
func Aux() []*Spec {
	return []*Spec{specL1(), specL2(), specL3()}
}

// ByID returns the spec with the given experiment id, searching the
// default registry (All) and then the auxiliary one (Aux).
func ByID(id string) (*Spec, bool) {
	for _, s := range All() {
		if s.ID == id {
			return s, true
		}
	}
	for _, s := range Aux() {
		if s.ID == id {
			return s, true
		}
	}
	return nil, false
}

// Select resolves a comma-separated list of experiment ids into specs, in
// the order given. The empty string and "all" select the full default
// registry (auxiliary specs must be named explicitly). Duplicate ids
// collapse to the first mention and produce one warning each, so a
// selection like -exp EXP-D1,EXP-D1 does not silently run — or appear to
// run — a spec twice. Unknown ids produce one error naming every unknown
// id, so a long selection fails with full diagnostics instead of on the
// first typo.
func Select(ids string) (specs []*Spec, warnings []string, err error) {
	if s := strings.TrimSpace(ids); s == "" || s == "all" {
		return All(), nil, nil
	}
	var unknown []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(ids, ",") {
		id := strings.TrimSpace(raw)
		if id == "" {
			continue
		}
		if seen[id] {
			warnings = append(warnings, fmt.Sprintf("duplicate experiment id %s ignored", id))
			continue
		}
		seen[id] = true
		s, ok := ByID(id)
		if !ok {
			unknown = append(unknown, id)
			continue
		}
		specs = append(specs, s)
	}
	if len(unknown) > 0 {
		return nil, warnings, fmt.Errorf("unknown experiment(s) %s (see -list for the index)", strings.Join(unknown, ", "))
	}
	if len(specs) == 0 {
		return nil, warnings, fmt.Errorf("no experiments selected")
	}
	return specs, warnings, nil
}
