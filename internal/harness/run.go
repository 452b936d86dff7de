package harness

// Run executes the specs' grids on one shared in-process worker pool of
// at most par goroutines — it is shorthand for LocalPool. emit is called
// exactly once per spec, in the order of specs, as soon as each table and
// all of its predecessors are assembled. Every point owns a private
// machine and derives its inputs from fixed seeds, so points are
// embarrassingly parallel and the emitted tables are byte-identical for
// every par — parallelism changes wall-clock time, never output. par < 1
// is treated as 1.
//
// If points panic, Run drains the in-flight work, skips emission from the
// first failed spec onward, and re-panics with every failed experiment ID
// and its first panic message — multiple failures are aggregated, not
// dropped.
func Run(specs []*Spec, par int, emit func(*Table)) {
	if err := (&LocalPool{Par: par}).Execute(specs, emit); err != nil {
		panic(err.Error())
	}
}

// RunAll runs every experiment at the given parallelism and returns the
// tables in All()'s order.
func RunAll(par int) []*Table {
	var tables []*Table
	Run(All(), par, func(t *Table) { tables = append(tables, t) })
	return tables
}
