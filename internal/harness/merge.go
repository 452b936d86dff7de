package harness

import (
	"fmt"
	"strings"
)

// MergeShards reassembles a distributed run: given the specs named by the
// stream manifests (in manifest order — the caller resolves them, usually
// via Resolve) and every parsed point stream, it fills the grid point by
// point, re-runs the derived/summary columns over the merged grid, and
// emits tables byte-identical to a single-machine run of the same
// selection — including the failure behavior: points that panicked in a
// stream panic here with the same aggregated experiment IDs and messages
// an unsharded Run produces.
//
// Where a stream came from does not matter: static shards, residual
// resumes and fleet output are all lists of records. Every file must
// agree on the selection and the grid size; every record passes
// PointRunner.ValidateRecord and must fill a point no earlier record
// filled. The returned error covers these integrity problems (foreign,
// torn or overlapping files, registry drift); experiment failures panic,
// per the harness contract. When the set is consistent but grid points
// are missing — a lost shard, a killed job, an interrupted fleet — the
// error is an *IncompleteError aggregating every missing point across all
// specs, whose ResidualSpec method is the machine-readable resume: run it
// with `aem work -residual` and merge the result into this same set.
//
// With timing set, each table carries the per-point wall-clock recorded
// in the streams (Table.WallNS).
func MergeShards(specs []*Spec, files []*ShardFile, timing bool, emit func(*Table)) error {
	if len(files) == 0 {
		return fmt.Errorf("no shard files to merge")
	}

	// The first manifest fixes the selection; every file must agree on it
	// and on the global grid size.
	ref := files[0].Manifest
	for _, f := range files {
		m := f.Manifest
		if len(m.Experiments) != len(ref.Experiments) {
			return fmt.Errorf("shard files disagree on the experiment selection")
		}
		for i, id := range m.Experiments {
			if id != ref.Experiments[i] {
				return fmt.Errorf("shard files disagree on the experiment selection: %s vs %s", id, ref.Experiments[i])
			}
		}
		if m.GridPoints != ref.GridPoints {
			return fmt.Errorf("shard files disagree on the grid size: %d vs %d points", m.GridPoints, ref.GridPoints)
		}
	}
	if len(specs) != len(ref.Experiments) {
		return fmt.Errorf("merge given %d specs for %d experiments in the shard manifest", len(specs), len(ref.Experiments))
	}
	for i, s := range specs {
		if s.ID != ref.Experiments[i] {
			return fmt.Errorf("merge spec %d is %s, shard manifest says %s", i, s.ID, ref.Experiments[i])
		}
	}

	// Re-enumerate the grids: the merge binary carries the same registry,
	// so the expected point set — and any deterministic grid-enumeration
	// failure — reproduces here without a record.
	r := NewPointRunner(specs)
	if r.Total() != ref.GridPoints {
		return fmt.Errorf("shards were produced from a different grid: %d points there, %d here (registry drift?)", ref.GridPoints, r.Total())
	}
	for fi, f := range files {
		for i := range f.Records {
			if err := r.fill(&f.Records[i]); err != nil {
				return fmt.Errorf("shard file %d: %w", fi+1, err)
			}
		}
	}
	if missing := r.unfilled(); len(missing) > 0 {
		return &IncompleteError{Experiments: ref.Experiments, GridPoints: ref.GridPoints, Missing: missing}
	}

	// From here the path is byte-for-byte the unsharded one: the same
	// assembly, derived-column evaluation, emission order and failure
	// aggregation LocalPool runs, fed from records instead of workers.
	var failures []string
	for si, s := range specs {
		completeSpec(s, r.sts[si], &failures, timing, emit)
	}
	panicOnFailures(failures)
	return nil
}

// fill validates a record and stores it as the measured result of its
// point, as if this runner had measured it. A point already filled — by
// an earlier record or by Run — is a duplicate. fill is for the merge
// side and must not run concurrently with Run.
func (r *PointRunner) fill(rec *PointRecord) error {
	if err := r.ValidateRecord(rec); err != nil {
		return err
	}
	si := r.bySpec[rec.Experiment]
	if r.done[si][rec.Index] {
		return fmt.Errorf("duplicated point: %s point %d appears twice in the shard set", rec.Experiment, rec.Index)
	}
	r.done[si][rec.Index] = true
	st := r.sts[si]
	if rec.Panic != "" {
		st.panicAt[rec.Index] = rec.Panic
		st.nfail++
	} else {
		st.rows[rec.Index] = Row(rec.Row)
		st.cells[rec.Index] = rec.Cells
	}
	st.wallNS[rec.Index] = rec.WallNS
	return nil
}

// unfilled lists every point neither filled nor measured, in global grid
// order. A spec whose enumeration panicked has no points to miss.
func (r *PointRunner) unfilled() []GridRef {
	var missing []GridRef
	for _, ref := range r.Refs() {
		if !r.done[r.bySpec[ref.Experiment]][ref.Index] {
			missing = append(missing, ref)
		}
	}
	return missing
}

// IncompleteError reports a consistent but unfinished stream set: every
// grid point no file in the set carries, across all specs, in global
// grid order. It is the error form of an interrupted run — convert it
// with ResidualSpec to get the machine-readable remainder `aem work
// -residual` consumes.
type IncompleteError struct {
	Experiments []string
	GridPoints  int
	Missing     []GridRef
}

// Error aggregates the missing points per experiment in one message.
// Index lists are capped per experiment to keep the message readable on
// badly interrupted runs; the counts are always exact.
func (e *IncompleteError) Error() string {
	const maxListed = 8
	var parts []string
	order := make([]string, 0, len(e.Experiments))
	byExp := map[string][]int{}
	for _, ref := range e.Missing {
		if _, seen := byExp[ref.Experiment]; !seen {
			order = append(order, ref.Experiment)
		}
		byExp[ref.Experiment] = append(byExp[ref.Experiment], ref.Index)
	}
	for _, id := range order {
		idxs := byExp[id]
		shown := idxs
		ellipsis := ""
		if len(shown) > maxListed {
			shown = shown[:maxListed]
			ellipsis = " …"
		}
		parts = append(parts, fmt.Sprintf("%s is missing %d point(s) %v%s", id, len(idxs), shown, ellipsis))
	}
	return fmt.Sprintf("incomplete shard set: %s — %d of %d grid points missing (write a residual spec with `aem merge -residual` to resume)",
		strings.Join(parts, "; "), len(e.Missing), e.GridPoints)
}

// ResidualSpec converts the error into the resume artifact.
func (e *IncompleteError) ResidualSpec() *ResidualSpec {
	return &ResidualSpec{
		Type:        "residual",
		Experiments: e.Experiments,
		GridPoints:  e.GridPoints,
		Missing:     e.Missing,
	}
}
