package harness

import (
	"fmt"
	"time"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/dict"
	"repro/internal/pq"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// This file is the real-I/O axis: the sorting and dictionary experiments
// re-run on the file-backed engines, with wall time measured per grid
// point and regressed against the model's (Qr, Qw) accounting. The model
// charges Q = Qr + ω·Qw with ω configured a priori; the regression
// wall ≈ α·Qr + β·Qw (bounds.FitOmega) recovers the per-read and
// per-write costs the device actually exhibited, and reports β/α — the
// device's effective ω — next to the configured one. The grids
// deliberately mix algorithms with different read/write ratios (the
// ω-adaptive mergesort is read-heavy; the classic one balanced), because
// a single-ratio grid makes α and β unidentifiable.
//
// Wall-clock cells make these sweeps machine-dependent by construction,
// which is why they live in the auxiliary registry: `aem bench` goldens
// stay byte-stable, and EXP-IO1/EXP-IO2 are selected explicitly (CI runs
// them tmpdir-backed; point AEM_FILE_DIR at a mounted device to measure
// that device).

// ioEngines spans the file-transfer axis: mmap and O_DIRECT positional
// I/O (buffered fallback where O_DIRECT is unavailable).
var ioEngines = Vals("file", "file-direct")

// ioRow runs fn on a machine over the named file engine — owned by this
// point and closed on release, per the pool's persistent-engine policy —
// and returns the standard I/O-axis row: identity, accounting, wall.
func ioRow(cfg aem.Config, id0, id1 interface{}, engine string, fn func(ma *aem.Machine)) Row {
	ma, release := PooledMachine(cfg, engine)
	defer release()
	start := time.Now()
	fn(ma)
	wall := time.Since(start).Nanoseconds()
	st := ma.Stats()
	return Row{id0, id1, engine, st.Reads, st.Writes, ma.Cost(), wall}
}

// fitDeviceOmega builds the fitted-ω derived columns over an I/O-axis
// grid: one least-squares fit per engine value (column engineCol), using
// the reads/writes/wall columns at qrCol, qrCol+1 and wallCol. Every row
// of an engine shows that engine's fit — the table reads as "this device
// behaved like ω ≈ x" next to the configured ω column.
func fitDeviceOmega(engineCol, qrCol, wallCol int) []DerivedColumn {
	fit := func(rows []Row, i int) (bounds.OmegaFit, error) {
		var qr, qw, wall []float64
		for _, r := range rows {
			if r[engineCol] != rows[i][engineCol] {
				continue
			}
			qr = append(qr, toFloat(r[qrCol]))
			qw = append(qw, toFloat(r[qrCol+1]))
			wall = append(wall, toFloat(r[wallCol]))
		}
		return bounds.FitOmega(qr, qw, wall)
	}
	return []DerivedColumn{
		{
			Name: "fitted ω",
			From: func(rows []Row, i int) interface{} {
				f, err := fit(rows, i)
				if err != nil {
					return "n/a"
				}
				return fmt.Sprintf("%.2f", f.Omega)
			},
		},
		{
			Name: "fit R²",
			From: func(rows []Row, i int) interface{} {
				f, err := fit(rows, i)
				if err != nil {
					return "n/a"
				}
				return fmt.Sprintf("%.3f", f.R2)
			},
		},
	}
}

func specIO1() *Spec {
	cfg := aem.Config{M: 128, B: 8, Omega: 8}
	runs := map[string]func(ma *aem.Machine, n int){
		"mergesort": func(ma *aem.Machine, n int) {
			in := workload.Keys(workload.NewRNG(Seed+30), workload.Random, n)
			sorting.MergeSort(ma, aem.Load(ma, in))
		},
		"em-mergesort": func(ma *aem.Machine, n int) {
			in := workload.Keys(workload.NewRNG(Seed+30), workload.Random, n)
			sorting.EMMergeSort(ma, aem.Load(ma, in))
		},
		"samplesort": func(ma *aem.Machine, n int) {
			in := workload.Keys(workload.NewRNG(Seed+30), workload.Random, n)
			sorting.EMSampleSort(ma, aem.Load(ma, in), Seed)
		},
		"heapsort": func(ma *aem.Machine, n int) {
			in := workload.Keys(workload.NewRNG(Seed+30), workload.Random, n)
			pq.HeapSort(ma, aem.Load(ma, in))
		},
	}
	return &Spec{
		ID:    "EXP-IO1",
		Index: "sorting on file storage: wall time vs (Qr, Qw), fitted device ω",
		Title: "sorting on file-backed storage: fitted device ω",
		Claim: "wall regresses on (Qr, Qw) with finite α, β > 0; fitted ω = β/α is the device's measured write/read ratio",
		Axes: []Axis{
			{Name: "alg", Values: Vals("mergesort", "em-mergesort", "samplesort", "heapsort")},
			{Name: "n", Values: Ints(1<<12, 1<<13)},
			{Name: "engine", Values: ioEngines},
		},
		Columns: Cols("alg", "n", "engine", "reads", "writes", "cost", "wall ns"),
		Derived: append([]DerivedColumn{{
			Name: "ω cfg",
			From: func([]Row, int) interface{} { return cfg.Omega },
		}}, fitDeviceOmega(2, 3, 6)...),
		Point: func(p Point) Row {
			alg, n := p.Str("alg"), p.Int("n")
			return ioRow(cfg, alg, n, p.Str("engine"), func(ma *aem.Machine) { runs[alg](ma, n) })
		},
		Notes: []string{
			"wall-clock cells are machine-dependent by construction; the fit, not the cells, is the result",
			"algorithms with different read/write mixes keep the (Qr, Qw) design non-collinear, which is what makes α and β identifiable",
			"tmpfs-backed runs fit ω̂ near the per-block copy cost ratio, not a real device's asymmetry; point AEM_FILE_DIR at a mounted device to measure it",
		},
	}
}

func specIO2() *Spec {
	cfg := aem.Config{M: 256, B: 16, Omega: 8}
	const keyspace = 4096
	runs := map[string]func(ma *aem.Machine, n int){
		"buffertree": func(ma *aem.Machine, n int) {
			ops := workload.DictOps(workload.NewRNG(Seed+31), workload.UniformOps, n, keyspace)
			dict.NewBufferTree(ma).Apply(ops)
		},
		"btree": func(ma *aem.Machine, n int) {
			ops := workload.DictOps(workload.NewRNG(Seed+31), workload.UniformOps, n, keyspace)
			dict.NewBTree(ma).Apply(ops)
		},
	}
	return &Spec{
		ID:    "EXP-IO2",
		Index: "dictionary on file storage: buffered vs unbatched wall time, fitted device ω",
		Title: "dictionary on file-backed storage: fitted device ω",
		Claim: "buffer tree vs B-tree span write-heavy and read-heavy mixes; wall regresses on (Qr, Qw) with a finite fitted ω",
		Axes: []Axis{
			{Name: "structure", Values: Vals("buffertree", "btree")},
			{Name: "ops", Values: Ints(6000, 12000)},
			{Name: "engine", Values: ioEngines},
		},
		Columns: Cols("structure", "ops", "engine", "reads", "writes", "cost", "wall ns"),
		Derived: append([]DerivedColumn{{
			Name: "ω cfg",
			From: func([]Row, int) interface{} { return cfg.Omega },
		}}, fitDeviceOmega(2, 3, 6)...),
		Point: func(p Point) Row {
			st, n := p.Str("structure"), p.Int("ops")
			return ioRow(cfg, st, n, p.Str("engine"), func(ma *aem.Machine) { runs[st](ma, n) })
		},
		Notes: []string{
			"the buffer tree defers and batches writes while the B-tree pays ~1 write/update — two ends of the read/write mix in one grid",
			"caveat the grid exists to show: the structures also differ in CPU work per I/O, and when CPU dominates wall the two-term fit misattributes it — the fitted ω can even go negative; EXP-IO1's sorting grid, whose algorithms are I/O-shaped, is the fit to trust",
		},
	}
}
