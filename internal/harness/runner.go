package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// This file is the one execution path behind every point stream. A
// PointRunner is handed GridRefs — a static shard's round-robin slice, a
// coordinator lease, a residual spec's missing list — measures them on
// the same runJobs pool LocalPool uses, and produces self-describing
// PointRecords; MergeShards feeds records back into a PointRunner point
// by point. A CI shard, a fleet worker and a resume job therefore cannot
// measure, stream or validate a point differently.

// PointRunner enumerates a selection's grids once and then runs any
// subset of their points on demand, streaming one PointRecord per
// point. Results are memoized per point: re-running a ref (a
// speculative lease that lost the race, a duplicated residual entry)
// delivers the already-measured record instead of paying for the point
// again.
type PointRunner struct {
	specs  []*Spec
	sts    []*specState
	bySpec map[string]int
	base   []int // each spec's first global point index
	total  int

	mu   sync.Mutex     // serializes delivery and memo bookkeeping
	done []map[int]bool // per spec, point index → already measured
}

// NewPointRunner enumerates every spec's grid. A spec whose enumeration
// panics deterministically contributes no points — exactly as it does in
// LocalPool; the failure surfaces at merge time from the registry.
func NewPointRunner(specs []*Spec) *PointRunner {
	r := &PointRunner{
		specs:  specs,
		sts:    newSpecStates(specs),
		bySpec: make(map[string]int, len(specs)),
		base:   make([]int, len(specs)),
	}
	for si, s := range specs {
		r.bySpec[s.ID] = si
		r.base[si] = r.total
		r.total += len(r.sts[si].pts)
		r.done = append(r.done, make(map[int]bool))
	}
	return r
}

// Total returns the global grid size across all specs — the number a
// stream manifest carries as grid_points.
func (r *PointRunner) Total() int { return r.total }

// Manifest returns the header line of every point stream of this run.
func (r *PointRunner) Manifest() ShardManifest {
	ids := make([]string, len(r.specs))
	for i, s := range r.specs {
		ids[i] = s.ID
	}
	return ShardManifest{Type: "shard", Experiments: ids, GridPoints: r.total}
}

// Refs returns every grid point of the selection in global order: spec
// order, grid order within each spec. This is the point list a fleet
// coordinator leases from.
func (r *PointRunner) Refs() []GridRef {
	refs := make([]GridRef, 0, r.total)
	for si, s := range r.specs {
		for pi := range r.sts[si].pts {
			refs = append(refs, GridRef{Experiment: s.ID, Index: pi})
		}
	}
	return refs
}

// ShardRefs returns static shard i of m: the refs whose global index g
// has g % m == i. Round-robin over global order keeps the shards
// balanced even when one experiment dominates the grid.
func (r *PointRunner) ShardRefs(i, m int) []GridRef {
	var refs []GridRef
	for g, ref := range r.Refs() {
		if g%m == i {
			refs = append(refs, ref)
		}
	}
	return refs
}

// Check validates that ref names a point of this runner's grids.
func (r *PointRunner) Check(ref GridRef) error {
	si, ok := r.bySpec[ref.Experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %s (registry drift?)", ref.Experiment)
	}
	if ref.Index < 0 || ref.Index >= len(r.sts[si].pts) {
		return fmt.Errorf("%s point %d out of range [0,%d)", ref.Experiment, ref.Index, len(r.sts[si].pts))
	}
	return nil
}

// ValidateRecord checks that an incoming record matches this runner's
// grids: known experiment, consistent grid size, in-range index, and —
// for a healthy record — exactly one raw value and one rendered cell per
// column. The fleet coordinator and MergeShards run every incoming
// record through this before accepting it.
func (r *PointRunner) ValidateRecord(rec *PointRecord) error {
	if err := r.Check(GridRef{Experiment: rec.Experiment, Index: rec.Index}); err != nil {
		return err
	}
	si := r.bySpec[rec.Experiment]
	if rec.Points != len(r.sts[si].pts) {
		return fmt.Errorf("%s has %d grid points, record says %d (registry drift?)", rec.Experiment, len(r.sts[si].pts), rec.Points)
	}
	if rec.Panic == "" {
		ncols := len(r.specs[si].Columns)
		if len(rec.Row) != ncols || len(rec.Cells) != ncols {
			return fmt.Errorf("torn record: %s point %d has %d row values and %d cells for %d columns",
				rec.Experiment, rec.Index, len(rec.Row), len(rec.Cells), ncols)
		}
	}
	return nil
}

// Run measures the named points on a pool of at most par goroutines and
// delivers one record per ref as each point completes (completion
// order). deliver calls are serialized; a deliver error stops delivery
// and is returned after in-flight points drain. Refs are validated up
// front — an unknown experiment or out-of-range index fails the whole
// call before anything runs. Duplicate refs and refs measured by an
// earlier Run deliver the memoized record without re-running the point.
func (r *PointRunner) Run(refs []GridRef, par int, deliver func(PointRecord) error) error {
	if par < 1 {
		par = 1
	}
	for _, ref := range refs {
		if err := r.Check(ref); err != nil {
			return err
		}
	}

	var jobs []job
	var memo []job // already measured: deliver without re-running
	r.mu.Lock()
	fresh := make(map[job]bool)
	for _, ref := range refs {
		j := job{r.bySpec[ref.Experiment], ref.Index}
		switch {
		case r.done[j.si][j.pi]:
			memo = append(memo, j)
		case fresh[j]:
			// duplicated within this call: the running copy delivers
		default:
			fresh[j] = true
			jobs = append(jobs, j)
		}
	}
	r.mu.Unlock()

	var deliverErr error
	send := func(j job) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.done[j.si][j.pi] = true
		if deliverErr != nil {
			return
		}
		deliverErr = deliver(r.sts[j.si].record(r.specs[j.si], j.pi))
	}
	for _, j := range memo {
		send(j)
	}
	runJobs(r.specs, r.sts, jobs, par, send).Wait()
	return deliverErr
}

// record builds the wire record of one finished grid point.
func (st *specState) record(s *Spec, pi int) PointRecord {
	rec := PointRecord{
		Type: "point", Experiment: s.ID, Index: pi, Points: len(st.pts),
		WallNS: st.wallNS[pi],
	}
	if pm := st.panicAt[pi]; pm != "" {
		rec.Panic = pm
	} else {
		rec.Row = st.rows[pi]
		rec.Cells = st.cells[pi]
	}
	return rec
}

// Stream writes one point stream to w: the manifest first, then one
// record per ref as each point completes, so a killed job keeps every
// point it finished. It is the only writer of static-shard and residual
// streams. Panics are not fatal: they travel in the records and surface,
// aggregated as an unsharded run reports them, at merge. The returned
// error still tallies them — panicked points and panicked grid
// enumerations alike — so the producing job fails fast.
func (r *PointRunner) Stream(refs []GridRef, par int, w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(r.Manifest()); err != nil {
		return err
	}
	failed := 0
	if err := r.Run(refs, par, func(rec PointRecord) error {
		if rec.Panic != "" {
			failed++
		}
		return enc.Encode(rec)
	}); err != nil {
		return err
	}
	// A grid-enumeration panic produces no records: the merge binary
	// re-enumerates the same deterministic grid and reports the identical
	// failure itself. It must still fail this job's exit code.
	enumFailed := 0
	for _, st := range r.sts {
		if st.enumFailed() {
			enumFailed++
		}
	}
	return streamFailure(failed, enumFailed)
}

// streamFailure renders a stream's failure tally into its exit error:
// nil only when nothing panicked.
func streamFailure(failed, enumFailed int) error {
	switch {
	case failed > 0 && enumFailed > 0:
		return fmt.Errorf("%d point(s) and %d grid enumeration(s) panicked; the failures are recorded in the shard output and will surface at merge", failed, enumFailed)
	case enumFailed > 0:
		return fmt.Errorf("%d grid enumeration(s) panicked; the failure reproduces at merge from the registry, no record needed", enumFailed)
	case failed > 0:
		return fmt.Errorf("%d point(s) panicked; the failures are recorded in the shard output and will surface at merge", failed)
	}
	return nil
}

// RunShard streams static shard index of count (see ShardRefs) — the
// implementation behind `aem bench -shard i/m`. Points run on a pool of
// at most par goroutines.
func RunShard(specs []*Spec, index, count, par int, w io.Writer) error {
	if count < 1 || index < 0 || index >= count {
		return fmt.Errorf("shard %d/%d out of range", index, count)
	}
	r := NewPointRunner(specs)
	return r.Stream(r.ShardRefs(index, count), par, w)
}

// RunResidualSpecs streams a residual spec's missing points against an
// already-resolved spec list, which must match rs.Experiments in order
// and enumerate rs.GridPoints points.
func RunResidualSpecs(specs []*Spec, rs *ResidualSpec, par int, w io.Writer) error {
	if len(specs) != len(rs.Experiments) {
		return fmt.Errorf("residual spec names %d experiments, resolved %d", len(rs.Experiments), len(specs))
	}
	for i, s := range specs {
		if s.ID != rs.Experiments[i] {
			return fmt.Errorf("residual spec experiment %d is %s, resolved spec is %s", i, rs.Experiments[i], s.ID)
		}
	}
	r := NewPointRunner(specs)
	if r.Total() != rs.GridPoints {
		return fmt.Errorf("residual spec was produced from a different grid: %d points there, %d here (registry drift?)", rs.GridPoints, r.Total())
	}
	return r.Stream(rs.Missing, par, w)
}

// RunResidual resolves the residual spec's experiments against this
// binary's registry and streams its missing points — the implementation
// behind `aem work -residual`.
func RunResidual(rs *ResidualSpec, par int, w io.Writer) error {
	specs, err := Resolve(rs.Experiments)
	if err != nil {
		return fmt.Errorf("residual spec names %v (produced by a different registry?)", err)
	}
	return RunResidualSpecs(specs, rs, par, w)
}
