package harness

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the execution substrate of the scenario engine. A Spec
// describes *what* a grid point measures; the substrate decides *where*
// it runs. The split mirrors the paper's own separation of cost model
// from machine: the grid is the model, the substrate is the machine.
// There are two halves, sharing runJobs and specState so they cannot
// measure a point differently:
//
//   - LocalPool   — every point of the selection on one in-process,
//     point-granular worker pool, emitting tables (Run, `aem bench`);
//   - PointRunner — an explicit list of GridRefs, emitting a point
//     stream (runner.go): a static `-shard i/m` slice, a fleet lease or
//     a residual resume. MergeShards (merge.go) turns any set of point
//     streams back into the tables LocalPool emits.

// job addresses one grid point of one spec.
type job struct{ si, pi int }

// specState accumulates one spec's per-point results while its grid runs,
// on either half. The same state is rebuilt from point records at
// merge time, so the assembly and failure-aggregation paths downstream of
// it are shared — sharded and unsharded runs cannot drift apart.
type specState struct {
	pts     []Point
	rows    []Row
	cells   [][]string
	wallNS  []int64
	panicAt []string // per point, "" = ok
	nfail   int64
	pending int64
	done    chan struct{}
}

// newSpecStates enumerates every spec's grid into a fresh state. Grid
// enumeration runs spec-authored hooks (Dyn axes, Skip), so a panic there
// is an experiment failure like any other: it is recorded exactly as Run
// has always reported it, with the "grid enumeration:" prefix.
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
		st.wallNS = make([]int64, len(st.pts))
		if st.nfail == 0 {
			st.panicAt = make([]string, len(st.pts))
		}
		st.pending = int64(len(st.pts))
		sts[si] = st
	}
	return sts
}

// enumFailed reports whether grid enumeration itself panicked (the state
// then has no per-point slots).
func (st *specState) enumFailed() bool {
	return st.nfail > 0 && len(st.pts) == 0
}

// runPoint measures one grid point on the calling goroutine, recording
// the raw row, the rendered cells, the wall-clock spent, and — if the
// point function or a column hook panics — the panic message.
func (st *specState) runPoint(s *Spec, pi int) {
	start := time.Now()
	defer func() {
		st.wallNS[pi] = time.Since(start).Nanoseconds()
		if r := recover(); r != nil {
			st.panicAt[pi] = fmt.Sprint(r)
			atomic.AddInt64(&st.nfail, 1)
		}
	}()
	p := st.pts[pi]
	row := s.Point(p)
	st.cells[pi] = s.cells(p, row)
	st.rows[pi] = row
}

// runJobs measures the given grid points on a pool of at most par
// goroutines (par ≥ 1), invoking onDone — if non-nil — on the worker
// after each point completes. It returns without waiting; callers that
// need a barrier Wait on the returned group. LocalPool and PointRunner
// both schedule through here, so their point-level behavior cannot drift
// apart.
func runJobs(specs []*Spec, sts []*specState, jobs []job, par int, onDone func(job)) *sync.WaitGroup {
	jobCh := make(chan job)
	go func() {
		for _, j := range jobs {
			jobCh <- j
		}
		close(jobCh)
	}()
	workers := par
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				sts[j.si].runPoint(specs[j.si], j.pi)
				if onDone != nil {
					onDone(j)
				}
			}
		}()
	}
	return &wg
}

// failureMsg aggregates the state's failures into the message Run has
// always paniced with: the first failed point in grid order —
// deterministic at any parallelism — plus a count of the rest.
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

// completeSpec is the shared tail of every table-producing path: it turns
// one finished spec state into either an emitted table or an entry in the
// aggregated failure list. Nothing is emitted from the first failed spec
// onward, so the emitted prefix is deterministic. With timing set, the
// per-point wall-clock is attached to the table as opt-in timing columns.
func completeSpec(s *Spec, st *specState, failures *[]string, timing bool, emit func(*Table)) {
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
	if timing {
		tbl.WallNS = st.wallNS
	}
	emit(tbl)
}

// panicOnFailures re-panics with every failed experiment aggregated —
// multiple failures are reported, not dropped.
func panicOnFailures(failures []string) {
	switch len(failures) {
	case 0:
	case 1:
		panic("harness: experiment " + failures[0])
	default:
		panic(fmt.Sprintf("harness: %d experiments failed: %s", len(failures), strings.Join(failures, "; ")))
	}
}

// LocalPool runs every grid point of every spec on one shared in-process
// worker pool of at most Par goroutines — the substrate behind Run and
// the default `aem bench` path. Scheduling is point-granular: a single slow
// experiment spreads across the pool instead of pinning one worker. Every
// point owns a private machine and fixed seeds, so the emitted tables are
// byte-identical at every Par — parallelism changes wall-clock time,
// never output. Par < 1 is treated as 1.
//
// Timing attaches each point's wall-clock to the emitted tables (see
// Table.WallNS). It is off by default so recorded goldens stay stable;
// the timing values themselves are naturally nondeterministic.
//
// If points panic, Execute drains the in-flight work, skips emission from
// the first failed spec onward, and panics with every failed experiment
// ID and its first panic message, exactly as Run documents.
type LocalPool struct {
	Par    int
	Timing bool
}

// Execute runs the specs' grids and calls emit exactly once per spec, in
// spec order. It always returns nil: local execution has no
// infrastructure failure mode, and experiment failures panic per the
// harness contract.
func (e *LocalPool) Execute(specs []*Spec, emit func(*Table)) error {
	par := e.Par
	if par < 1 {
		par = 1
	}
	if len(specs) == 0 {
		return nil
	}

	sts := newSpecStates(specs)
	var jobs []job
	for si, st := range sts {
		if st.enumFailed() || len(st.pts) == 0 {
			close(st.done)
			continue
		}
		for pi := range st.pts {
			jobs = append(jobs, job{si, pi})
		}
	}

	wg := runJobs(specs, sts, jobs, par, func(j job) {
		st := sts[j.si]
		if atomic.AddInt64(&st.pending, -1) == 0 {
			close(st.done)
		}
	})

	var failures []string
	for si, s := range specs {
		st := sts[si]
		<-st.done
		completeSpec(s, st, &failures, e.Timing, emit)
	}
	wg.Wait()
	panicOnFailures(failures)
	return nil
}
