package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the execution substrate of the scenario engine. A Spec
// describes *what* a grid point measures; LocalPool decides *where* it
// runs. The split mirrors the paper's own separation of cost model from
// machine: the grid is the model, the pool is the machine.

// job addresses one grid point of one spec.
type job struct{ si, pi int }

// specState accumulates one spec's per-point results while its grid runs.
type specState struct {
	pts     []Point
	rows    []Row
	cells   [][]string
	timing  []PointTiming // set by a timed run only
	panicAt []string      // per point, "" = ok
	nfail   int64
	pending int64
	done    chan struct{} // closed once every point has finished
}

// newSpecStates enumerates every spec's grid into a fresh state. Grid
// enumeration runs spec-authored hooks (Dyn axes, Skip), so a panic there
// is an experiment failure like any other: it is recorded with the
// "grid enumeration:" prefix.
func newSpecStates(specs []*Spec) []*specState {
	sts := make([]*specState, len(specs))
	for si, s := range specs {
		st := &specState{done: make(chan struct{})}
		func() {
			defer func() {
				if r := recover(); r != nil {
					st.panicAt = []string{fmt.Sprintf("grid enumeration: %v", r)}
					st.nfail = 1
				}
			}()
			st.pts = s.Points()
		}()
		st.rows = make([]Row, len(st.pts))
		st.cells = make([][]string, len(st.pts))
		if st.nfail == 0 {
			st.panicAt = make([]string, len(st.pts))
		}
		st.pending = int64(len(st.pts))
		if st.pending == 0 {
			close(st.done)
		}
		sts[si] = st
	}
	return sts
}

// timePoint runs one grid point and records what it cost the process:
// wall clock and the heap objects and bytes allocated meanwhile. The heap
// counters are process-wide, so they belong to the point only while
// nothing else runs beside it.
func (st *specState) timePoint(s *Spec, pi int, heap []metrics.Sample) {
	metrics.Read(heap)
	objects, bytes := heap[0].Value.Uint64(), heap[1].Value.Uint64()
	start := time.Now()
	st.runPoint(s, pi)
	wall := time.Since(start).Nanoseconds()
	metrics.Read(heap)
	st.timing[pi] = PointTiming{WallNS: wall,
		AllocObjects: heap[0].Value.Uint64() - objects, AllocBytes: heap[1].Value.Uint64() - bytes}
}

// runPoint measures one grid point on the calling goroutine, recording
// the raw row, the rendered cells, and — if the point function or a
// column hook panics — the panic message. The last point of the spec to
// finish closes its done channel.
func (st *specState) runPoint(s *Spec, pi int) {
	defer func() {
		if r := recover(); r != nil {
			st.panicAt[pi] = fmt.Sprint(r)
			atomic.AddInt64(&st.nfail, 1)
		}
		if atomic.AddInt64(&st.pending, -1) == 0 {
			close(st.done)
		}
	}()
	p := st.pts[pi]
	row := s.Point(p)
	st.cells[pi] = s.cells(p, row)
	st.rows[pi] = row
}

// failureMsg aggregates the state's failures into one message: the first
// failed point in grid order — deterministic at any parallelism — plus a
// count of the rest.
func (st *specState) failureMsg() (string, bool) {
	nfail := atomic.LoadInt64(&st.nfail)
	if nfail == 0 {
		return "", false
	}
	var msg string
	for _, pm := range st.panicAt {
		if pm != "" {
			msg = pm
			break
		}
	}
	if nfail > 1 {
		msg = fmt.Sprintf("%s (and %d more failed points)", msg, nfail-1)
	}
	return msg, true
}

// completeSpec turns one finished spec state into either an emitted
// table or an entry in the aggregated failure list. Nothing is emitted
// from the first failed spec onward, so the emitted prefix is
// deterministic. A timed run's per-point costs are attached to the table
// as opt-in timing columns.
func completeSpec(s *Spec, st *specState, failures *[]string, emit func(*Table)) {
	if msg, failed := st.failureMsg(); failed {
		*failures = append(*failures, fmt.Sprintf("%s: %s", s.ID, msg))
		return
	}
	if len(*failures) > 0 {
		return
	}
	var tbl *Table
	if perr := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		tbl = s.assemble(st.rows, st.cells)
		return ""
	}(); perr != "" {
		*failures = append(*failures, fmt.Sprintf("%s: %s", s.ID, perr))
		return
	}
	tbl.Timing = st.timing
	emit(tbl)
}

// failuresError aggregates every failed experiment into one error —
// multiple failures are reported, not dropped.
func failuresError(failures []string) error {
	switch len(failures) {
	case 0:
		return nil
	case 1:
		return errors.New("harness: experiment " + failures[0])
	default:
		return fmt.Errorf("harness: %d experiments failed: %s", len(failures), strings.Join(failures, "; "))
	}
}

// LocalPool runs every grid point of every spec on one shared in-process
// worker pool of at most Par goroutines — the scheduler behind
// `aem bench`. Scheduling is point-granular: a single slow experiment
// spreads across the pool instead of pinning one worker. Every point owns
// a private machine and fixed seeds, so the emitted tables are
// byte-identical at every Par — parallelism changes wall-clock time,
// never output. Par < 1 is treated as 1.
//
// Timing runs the points one at a time on the calling goroutine, each
// table emitted before the next spec's first point, and attaches each
// point's wall clock and heap allocations to the emitted tables (see
// Table.Timing). The heap counters are process-wide, so a second worker
// would charge its allocations to whichever point is running. Each spec
// starts from a collected heap: runtime/metrics counts small objects when
// their span is flushed, so a collection that lands inside a point would
// otherwise bill it for an earlier spec's allocations. Timing is off by
// default so recorded goldens stay stable.
type LocalPool struct {
	Par    int
	Timing bool
}

// Execute runs the specs' grids and calls emit once per spec, in spec
// order, as soon as each table and all of its predecessors are assembled.
// If points panic, Execute drains the in-flight work, skips emission from
// the first failed spec onward, and returns an error naming every failed
// experiment ID with its first panic message.
func (e *LocalPool) Execute(specs []*Spec, emit func(*Table)) error {
	sts := newSpecStates(specs)
	var failures []string
	if e.Timing {
		heap := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
		for si, s := range specs {
			st := sts[si]
			st.timing = make([]PointTiming, len(st.pts))
			runtime.GC()
			for pi := range st.pts {
				st.timePoint(s, pi, heap)
			}
			completeSpec(s, st, &failures, emit)
		}
		return failuresError(failures)
	}
	jobs := make(chan job)
	go func() {
		for si, st := range sts {
			for pi := range st.pts {
				jobs <- job{si, pi}
			}
		}
		close(jobs)
	}()
	var wg sync.WaitGroup
	for w := 0; w < max(e.Par, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sts[j.si].runPoint(specs[j.si], j.pi)
			}
		}()
	}

	for si, s := range specs {
		<-sts[si].done
		completeSpec(s, sts[si], &failures, emit)
	}
	wg.Wait()
	return failuresError(failures)
}
