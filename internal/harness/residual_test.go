package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// enumBombSpec panics during grid enumeration (in a Dyn axis hook) —
// the failure mode that produces no per-point records.
func enumBombSpec(id string) *Spec {
	return &Spec{
		ID:      id,
		Axes:    []Axis{{Name: "x", Dyn: func(Point) []interface{} { panic("axis exploded") }}},
		Columns: Cols("x"),
		Point:   func(p Point) Row { return Row{p.Int("x")} },
	}
}

// TestShardExecutorEnumFailureFailsExitCode pins the bugfix for silent
// enum failures: a static shard job whose grid enumeration panics must
// return a non-nil error even though no per-point record exists to
// count — the old code only tallied per-point panics, so a sharded CI
// job exited 0 on a broken grid.
func TestShardExecutorEnumFailureFailsExitCode(t *testing.T) {
	specs := []*Spec{sleepSpec("OK-1", 0, nil), enumBombSpec("BAD-GRID")}
	var buf bytes.Buffer
	err := RunShard(specs, 0, 1, 2, &buf)
	if err == nil {
		t.Fatal("enum-failing shard run returned nil — a sharded CI job would exit 0")
	}
	if !strings.Contains(err.Error(), "grid enumeration") {
		t.Fatalf("error %q does not name the enumeration failure", err)
	}
	// The stream itself must still be a valid shard file (the merge
	// binary reproduces the failure from the registry, no record needed).
	if _, perr := ReadShardFile(&buf); perr != nil {
		t.Fatalf("enum-failing shard stream unparseable: %v", perr)
	}

	// Both failure kinds at once: the error must tally each.
	bomb := &Spec{
		ID: "BOMB", Axes: []Axis{{Name: "i", Values: Ints(0, 1)}}, Columns: Cols("i"),
		Point: func(p Point) Row { panic("point bomb") },
	}
	err = RunShard([]*Spec{bomb, enumBombSpec("BAD-GRID")}, 0, 1, 2, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "point(s)") || !strings.Contains(err.Error(), "grid enumeration") {
		t.Fatalf("combined failure error %q must count both points and enumerations", err)
	}
}

// dropRecord removes the first record of the named experiment from the
// shard set and returns its ref.
func dropRecord(t *testing.T, files []*ShardFile, exp string) GridRef {
	t.Helper()
	for _, f := range files {
		for i, rec := range f.Records {
			if rec.Experiment == exp {
				f.Records = append(f.Records[:i], f.Records[i+1:]...)
				return GridRef{Experiment: exp, Index: rec.Index}
			}
		}
	}
	t.Fatalf("no record for %s in the shard set", exp)
	return GridRef{}
}

// TestMergeShardsAggregatesMissingAcrossSpecs pins the bugfix for the
// one-spec-at-a-time missing report: with points missing from two specs
// simultaneously, the error must name both — the residual machinery
// consumes the same walk, so stopping at the first incomplete spec
// would make resume a many-round conversation.
func TestMergeShardsAggregatesMissingAcrossSpecs(t *testing.T) {
	specs := shardSpecs(false)
	files := shardFiles(t, specs, 2)
	want1 := dropRecord(t, files, "GRID")
	want2 := dropRecord(t, files, "LABELS")

	err := MergeShards(specs, files, false, func(*Table) {})
	if err == nil {
		t.Fatal("incomplete set merged without error")
	}
	var inc *IncompleteError
	if !errors.As(err, &inc) {
		t.Fatalf("error %T is not *IncompleteError", err)
	}
	if len(inc.Missing) != 2 {
		t.Fatalf("Missing = %v, want exactly the two dropped refs", inc.Missing)
	}
	got := map[GridRef]bool{inc.Missing[0]: true, inc.Missing[1]: true}
	if !got[want1] || !got[want2] {
		t.Fatalf("Missing = %v, want %v and %v", inc.Missing, want1, want2)
	}
	for _, id := range []string{"GRID", "LABELS"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("aggregated error %q does not mention %s", err, id)
		}
	}
}

// TestIncompleteErrorCapsListing: the per-experiment index list is
// truncated on badly interrupted runs, the counts stay exact.
func TestIncompleteErrorCapsListing(t *testing.T) {
	var missing []GridRef
	for i := 0; i < 30; i++ {
		missing = append(missing, GridRef{Experiment: "BIG", Index: i})
	}
	e := &IncompleteError{Experiments: []string{"BIG"}, GridPoints: 40, Missing: missing}
	msg := e.Error()
	if !strings.Contains(msg, "missing 30 point(s)") || !strings.Contains(msg, "…") {
		t.Fatalf("capped message %q must keep the exact count and mark truncation", msg)
	}
	if !strings.Contains(msg, "30 of 40 grid points missing") {
		t.Fatalf("message %q lacks the global tally", msg)
	}
}

// TestResidualRoundTrip is the resume path end to end at the harness
// level: damage a shard set, distill the IncompleteError into a
// ResidualSpec, run it, and merge the partial shards plus the residual
// stream — the result must be byte-identical to the unsharded run in
// every output form. A lost static shard and a killed shard job resume
// exactly like scattered missing records.
func TestResidualRoundTrip(t *testing.T) {
	specs := shardSpecs(false)
	for _, tc := range []struct {
		name string
		// damage returns the surviving files and, when it knows them, the
		// points the merge must report missing.
		damage func(t *testing.T) ([]*ShardFile, []GridRef)
	}{
		{"records dropped from both specs", func(t *testing.T) ([]*ShardFile, []GridRef) {
			files := shardFiles(t, specs, 2)
			dropRecord(t, files, "GRID")
			dropRecord(t, files, "GRID")
			dropRecord(t, files, "LABELS")
			return files, nil
		}},
		{"whole shard of three lost", func(t *testing.T) ([]*ShardFile, []GridRef) {
			files := shardFiles(t, specs, 3)
			return []*ShardFile{files[0], files[2]}, NewPointRunner(specs).ShardRefs(1, 3)
		}},
		{"shard job killed after k records", func(t *testing.T) ([]*ShardFile, []GridRef) {
			const k = 4
			files := shardFiles(t, specs, 3)
			// The manifest and the first k completed records reached the
			// output before the job died.
			lines := bytes.SplitAfter(shardStream(t, specs, 1, 3), []byte("\n"))
			cut, err := ReadShardFile(bytes.NewReader(bytes.Join(lines[:1+k], nil)))
			if err != nil {
				t.Fatalf("cut stream unparseable: %v", err)
			}
			if len(cut.Records) != k {
				t.Fatalf("cut stream holds %d records, want %d", len(cut.Records), k)
			}
			kept := map[GridRef]bool{}
			for _, rec := range cut.Records {
				kept[GridRef{Experiment: rec.Experiment, Index: rec.Index}] = true
			}
			var want []GridRef
			for _, ref := range NewPointRunner(specs).ShardRefs(1, 3) {
				if !kept[ref] {
					want = append(want, ref)
				}
			}
			return []*ShardFile{files[0], cut, files[2]}, want
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files, wantMissing := tc.damage(t)
			err := MergeShards(specs, files, false, func(*Table) {})
			var inc *IncompleteError
			if !errors.As(err, &inc) {
				t.Fatalf("merge error %v is not *IncompleteError", err)
			}
			if wantMissing != nil && fmt.Sprint(inc.Missing) != fmt.Sprint(wantMissing) {
				t.Fatalf("Missing = %v, want exactly %v", inc.Missing, wantMissing)
			}
			rs := inc.ResidualSpec()

			// The spec survives its serialized form (what `aem merge
			// -residual` writes and `aem work -residual` reads).
			var disk bytes.Buffer
			if err := rs.WriteResidual(&disk); err != nil {
				t.Fatal(err)
			}
			rs, err = ReadResidualSpec(&disk)
			if err != nil {
				t.Fatal(err)
			}

			var rest bytes.Buffer
			if err := RunResidualSpecs(shardSpecs(false), rs, 2, &rest); err != nil {
				t.Fatalf("residual run: %v", err)
			}
			rf, err := ReadShardFile(&rest)
			if err != nil {
				t.Fatalf("residual stream unparseable: %v", err)
			}
			expectUnshardedOutput(t, specs, append(files, rf))
		})
	}
}

// TestResidualSpecValidation: foreign or empty residual files are
// rejected at read time with specific diagnostics.
func TestResidualSpecValidation(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"wrong type", `{"type":"shard","experiments":["X"],"grid_points":1,"missing":[{"experiment":"X","index":0}]}`, "type"},
		{"no missing", `{"type":"residual","experiments":["X"],"grid_points":1,"missing":[]}`, "no missing"},
		{"not json", `hello`, "residual spec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadResidualSpec(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadResidualSpec error = %v, want mention of %q", err, tc.want)
			}
		})
	}

	// Registry drift between the interrupted run and the resume binary.
	rs := &ResidualSpec{Type: "residual", Experiments: []string{"GRID", "LABELS"}, GridPoints: 99,
		Missing: []GridRef{{Experiment: "GRID", Index: 0}}}
	if err := RunResidualSpecs(shardSpecs(false), rs, 1, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("grid-size drift not rejected: %v", err)
	}
	rs.GridPoints = 0
	rs.Experiments = []string{"GRID"}
	if err := RunResidualSpecs(shardSpecs(false), rs, 1, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "experiments") {
		t.Fatalf("selection drift not rejected: %v", err)
	}
}

// TestMergeResidualModeKeepsPointChecks: a set mixing partial shards and
// a residual stream still rejects duplicated points and still reports
// missing ones.
func TestMergeResidualModeKeepsPointChecks(t *testing.T) {
	mkSet := func() ([]*Spec, []*ShardFile, *ShardFile) {
		specs := shardSpecs(false)
		files := shardFiles(t, specs, 2)
		dropRecord(t, files, "GRID")
		err := MergeShards(specs, files, false, func(*Table) {})
		var inc *IncompleteError
		if !errors.As(err, &inc) {
			t.Fatalf("setup: %v", err)
		}
		var rest bytes.Buffer
		if err := RunResidualSpecs(shardSpecs(false), inc.ResidualSpec(), 1, &rest); err != nil {
			t.Fatalf("setup residual run: %v", err)
		}
		rf, err := ReadShardFile(&rest)
		if err != nil {
			t.Fatal(err)
		}
		return specs, files, rf
	}

	t.Run("duplicated point across partial and residual", func(t *testing.T) {
		specs, files, rf := mkSet()
		// Re-add the residual's point to a partial file: now it exists in
		// both, which must be rejected, not silently double-filled.
		stolen := rf.Records[0]
		files[0].Records = append(files[0].Records, stolen)
		expectMergeError(t, specs, append(files, rf), "duplicated point")
	})
	t.Run("still missing after a short residual", func(t *testing.T) {
		specs, files, rf := mkSet()
		dropRecord(t, files, "LABELS") // a hole the residual spec predates
		err := MergeShards(specs, append(files, rf), false, func(*Table) {})
		var inc *IncompleteError
		if !errors.As(err, &inc) {
			t.Fatalf("remaining hole not reported: %v", err)
		}
		if len(inc.Missing) != 1 || inc.Missing[0].Experiment != "LABELS" {
			t.Fatalf("Missing = %v, want the one LABELS hole", inc.Missing)
		}
	})
}

// TestPointRunner: explicit-point execution — global ref order,
// validation, memoized re-runs, and the point-record wire form.
func TestPointRunner(t *testing.T) {
	var runs int64
	mk := func() []*Spec {
		return []*Spec{
			{
				ID: "A", Axes: []Axis{{Name: "i", Values: Ints(0, 1, 2)}}, Columns: Cols("i"),
				Point: func(p Point) Row { atomic.AddInt64(&runs, 1); return Row{p.Int("i")} },
			},
			{
				ID: "B", Axes: []Axis{{Name: "j", Values: Ints(5, 6)}}, Columns: Cols("j"),
				Point: func(p Point) Row { return Row{p.Int("j")} },
			},
		}
	}
	r := NewPointRunner(mk())
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	refs := r.Refs()
	want := []GridRef{{"A", 0}, {"A", 1}, {"A", 2}, {"B", 0}, {"B", 1}}
	if fmt.Sprint(refs) != fmt.Sprint(want) {
		t.Fatalf("Refs = %v, want %v", refs, want)
	}

	if err := r.Check(GridRef{"C", 0}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := r.Check(GridRef{"A", 3}); err == nil {
		t.Fatal("out-of-range index accepted")
	}

	var recs []PointRecord
	deliver := func(rec PointRecord) error { recs = append(recs, rec); return nil }
	if err := r.Run([]GridRef{{"A", 1}, {"B", 0}}, 2, deliver); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || atomic.LoadInt64(&runs) != 1 {
		t.Fatalf("first run delivered %d records with %d A-executions, want 2 and 1", len(recs), runs)
	}
	// Re-running a measured ref must deliver the memoized record without
	// paying for the point again — the worker-side duplicate guard.
	recs = nil
	if err := r.Run([]GridRef{{"A", 1}}, 2, deliver); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || atomic.LoadInt64(&runs) != 1 {
		t.Fatalf("memoized re-run delivered %d records, executed A %d times", len(recs), runs)
	}
	if recs[0].Type != "point" || recs[0].Experiment != "A" || recs[0].Index != 1 || recs[0].Points != 3 {
		t.Fatalf("record %+v is not the point-record wire form", recs[0])
	}

	// Record validation mirrors the merge-side torn checks.
	rec := recs[0]
	if err := r.ValidateRecord(&rec); err != nil {
		t.Fatalf("healthy record rejected: %v", err)
	}
	torn := rec
	torn.Cells = append(torn.Cells, "extra")
	if err := r.ValidateRecord(&torn); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn record accepted: %v", err)
	}
	drift := rec
	drift.Points = 99
	if err := r.ValidateRecord(&drift); err == nil || !strings.Contains(err.Error(), "drift") {
		t.Fatalf("grid-size drift accepted: %v", err)
	}
}
