package harness

import (
	"fmt"

	"repro/internal/aem"
	"repro/internal/pq"
	"repro/internal/sorting"
	"repro/internal/spmxv"
	"repro/internal/workload"
)

// This file is the ROADMAP's storage-backend axis sweep: the sorting and
// SpMxV experiments re-declared with one extra grid axis — the storage
// engine — plus a derived column that pins cross-engine Stats equality
// per grid point. The counting engine moves no data, so it is pruned
// (Skip) from every point whose I/O schedule branches on block contents:
// all the sorts and the sort-based SpMxV qualify, while the naive SpMxV
// program is data-oblivious (its schedule is conformation-driven program
// knowledge) and keeps every engine.

// Aux returns the auxiliary experiment registry: specs selectable by id
// (`aem bench -exp EXP-BE1`) and listed by -list, but not part of All(),
// so the default `aem bench` output and its recorded goldens are
// unaffected by their presence.
func Aux() []*Spec {
	return []*Spec{specBE1(), specBE2(), specMG1(), specIO1(), specIO2(), specL1(), specL2(), specL3()}
}

// backendNames spans the storage-backend axis: every registered engine.
// The file engines appear through their mmap flavor; file-direct is
// exercised by the EXP-IO sweeps, where its transfer path is the point.
var backendNames = Vals("slice", "counting", "file")

// backendMachine builds a machine on the named storage engine via the
// aem registry — the same constructor the CLI flag resolves through. An
// unknown name inside a spec is an authoring bug, so it panics with the
// registry's canonical error (which lists the valid names).
func backendMachine(cfg aem.Config, name string) *aem.Machine {
	st, err := aem.StorageByName(name, cfg.B)
	if err != nil {
		panic("harness: " + err.Error())
	}
	return aem.NewWithStorage(cfg, st)
}

// backendServesData reports whether the named engine retains block
// contents — the capability that decides grid pruning: an engine without
// a data plane cannot serve any program whose I/O schedule branches on
// values it reads back. Asking the registry (rather than matching the
// name "counting") keeps the predicate correct for every future
// counting-like engine.
func backendServesData(name string) bool {
	e, ok := aem.EngineByName(name)
	return ok && e.Caps.RetainsData
}

// backendRow runs fn on the named backend and returns the standard
// backend-sweep row: identity, I/O counts, cost, memory peak and blocks.
// Machines come from the per-point pool: Recycle's
// indistinguishable-from-fresh contract keeps rows independent of pool
// hits, so pooling changes allocation pressure, never cells.
func backendRow(cfg aem.Config, alg, backend string, fn func(ma *aem.Machine)) Row {
	ma, release := PooledMachine(cfg, backend)
	defer release()
	fn(ma)
	st := ma.Stats()
	return Row{alg, backend, st.Reads, st.Writes, ma.Cost(), ma.MemPeak(), ma.NumBlocks()}
}

// backendEquality is the per-grid-point cross-engine assertion, computed
// over the finished grid: every row's accounting must equal the slice
// reference row of the same algorithm. The acceptance test demands that
// no cell reads DIFF.
var backendEquality = DerivedColumn{
	Name: "vs slice",
	From: func(rows []Row, i int) interface{} {
		if rows[i][1] == "slice" {
			return "ref"
		}
		for _, r := range rows {
			if r[0] == rows[i][0] && r[1] == "slice" {
				for c := 2; c < len(r); c++ {
					if toFloat(rows[i][c]) != toFloat(r[c]) {
						return fmt.Sprintf("DIFF(%v != %v)", rows[i][c], r[c])
					}
				}
				return "="
			}
		}
		return "DIFF(no slice reference row)"
	},
}

func specBE1() *Spec {
	cfg := aem.Config{M: 128, B: 8, Omega: 8}
	const n = 1 << 12
	runs := map[string]func(ma *aem.Machine){
		"mergesort": func(ma *aem.Machine) {
			in := workload.Keys(workload.NewRNG(Seed+20), workload.Random, n)
			sorting.MergeSort(ma, aem.Load(ma, in))
		},
		"em-mergesort": func(ma *aem.Machine) {
			in := workload.Keys(workload.NewRNG(Seed+20), workload.Random, n)
			sorting.EMMergeSort(ma, aem.Load(ma, in))
		},
		"samplesort": func(ma *aem.Machine) {
			in := workload.Keys(workload.NewRNG(Seed+20), workload.Random, n)
			sorting.EMSampleSort(ma, aem.Load(ma, in), Seed)
		},
		"heapsort": func(ma *aem.Machine) {
			in := workload.Keys(workload.NewRNG(Seed+20), workload.Random, n)
			pq.HeapSort(ma, aem.Load(ma, in))
		},
		"smallsort": func(ma *aem.Machine) {
			in := workload.Keys(workload.NewRNG(Seed+21), workload.Random, cfg.M*4)
			sorting.SmallSort(ma, aem.Load(ma, in))
		},
	}
	return &Spec{
		ID:    "EXP-BE1",
		Index: "sorting: storage-backend axis (Stats equality per point)",
		Title: "sorting across storage backends",
		Claim: "identical Stats/cost/peak/blocks on every engine that can serve the point",
		Axes: []Axis{
			{Name: "alg", Values: Vals("mergesort", "em-mergesort", "samplesort", "heapsort", "smallsort")},
			{Name: "backend", Values: backendNames},
		},
		// Comparison sorts branch on key values; engines without a data
		// plane (per registry caps) cannot serve any of their points.
		Skip:    func(p Point) bool { return !backendServesData(p.Str("backend")) },
		Columns: Cols("alg", "backend", "reads", "writes", "cost", "mem peak", "blocks"),
		Derived: []DerivedColumn{backendEquality},
		Point: func(p Point) Row {
			alg := p.Str("alg")
			return backendRow(cfg, alg, p.Str("backend"), runs[alg])
		},
		Notes: []string{
			"the backend axis is one extra Axis declaration on the engine; the conformance suite's cross-engine guarantee becomes a table",
		},
	}
}

func specBE2() *Spec {
	cfg := aem.Config{M: 128, B: 8, Omega: 8}
	const n, delta = 512, 4
	mkInput := func() (*workload.Conformation, []int64, []int64) {
		rng := workload.NewRNG(Seed + 22)
		conf := workload.NewConformation(rng, n, delta)
		values := make([]int64, conf.H())
		for i := range values {
			values[i] = int64(rng.Intn(100))
		}
		x := make([]int64, n)
		for i := range x {
			x[i] = int64(rng.Intn(100))
		}
		return conf, values, x
	}
	runs := map[string]func(ma *aem.Machine){
		"naive": func(ma *aem.Machine) {
			conf, values, x := mkInput()
			spmxv.Naive(ma, spmxv.NewMatrix(ma, conf, values), spmxv.LoadDense(ma, x))
		},
		"sort": func(ma *aem.Machine) {
			conf, values, x := mkInput()
			spmxv.SortBased(ma, spmxv.NewMatrix(ma, conf, values), spmxv.LoadDense(ma, x))
		},
	}
	return &Spec{
		ID:    "EXP-BE2",
		Index: "spmxv: storage-backend axis (counting serves the oblivious naive program)",
		Title: "SpMxV across storage backends",
		Claim: "identical Stats/cost/peak/blocks per point; counting serves only the data-oblivious naive program",
		Axes: []Axis{
			{Name: "alg", Values: Vals("naive", "sort")},
			{Name: "backend", Values: backendNames},
		},
		// The sort-based program orders elementary products by key value,
		// so engines without a data plane cannot serve its points; the
		// naive program's schedule is pure program knowledge (the
		// conformation), so counting serves it.
		Skip: func(p Point) bool {
			return !backendServesData(p.Str("backend")) && p.Str("alg") != "naive"
		},
		Columns: Cols("alg", "backend", "reads", "writes", "cost", "mem peak", "blocks"),
		Derived: []DerivedColumn{backendEquality},
		Point: func(p Point) Row {
			alg := p.Str("alg")
			return backendRow(cfg, alg, p.Str("backend"), runs[alg])
		},
		Notes: []string{
			"naive on counting is the paper's lower-bound setting made executable: pure Q accounting with a free data plane",
		},
	}
}
