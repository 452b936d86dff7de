package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// fleetSpecs builds a small deterministic selection. Each call returns a
// fresh copy — workers resolve their own instances, as separate
// processes would.
func fleetSpecs() []*harness.Spec {
	return []*harness.Spec{
		{
			ID:      "FA",
			Axes:    []harness.Axis{{Name: "i", Values: harness.Ints(0, 1, 2, 3, 4, 5, 6, 7)}},
			Columns: harness.Cols("i", "sq"),
			Point: func(p harness.Point) harness.Row {
				time.Sleep(time.Millisecond)
				return harness.Row{p.Int("i"), p.Int("i") * p.Int("i")}
			},
		},
		{
			ID:      "FB",
			Axes:    []harness.Axis{{Name: "j", Values: harness.Ints(10, 20, 30, 40)}},
			Columns: harness.Cols("j"),
			Point: func(p harness.Point) harness.Row {
				time.Sleep(time.Millisecond)
				return harness.Row{p.Int("j")}
			},
		},
	}
}

// measure runs the given refs locally and returns their records — the
// shortest way to fabricate valid worker uploads for state-machine tests.
func measure(t *testing.T, refs []harness.GridRef) []harness.PointRecord {
	t.Helper()
	var recs []harness.PointRecord
	r := harness.NewPointRunner(fleetSpecs())
	if err := r.Run(refs, 2, func(rec harness.PointRecord) error { recs = append(recs, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	return recs
}

// render captures the rendered tables of any table-producing run.
func render(t *testing.T, run func(emit func(*harness.Table))) []byte {
	t.Helper()
	var buf bytes.Buffer
	run(func(tbl *harness.Table) { tbl.Render(&buf) })
	return buf.Bytes()
}

// drain leases points until the coordinator reports done, uploading
// locally measured records, and returns how many leases it took.
func drain(t *testing.T, c *Coordinator) int {
	t.Helper()
	n := 0
	for deadline := time.Now().Add(10 * time.Second); ; {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never reported done")
		}
		lr := c.Lease("drain")
		if lr.Done {
			return n
		}
		if len(lr.Points) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		n++
		if _, err := c.Ingest(lr.Lease, measure(t, lr.Points)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoordinatorLeaseIngestMerge drives the state machine without a
// network: chunked leases cover the grid exactly once, the output stream
// is a valid 1-of-1 shard set, and merging it renders byte-identical to
// an in-process run of the same selection.
func TestCoordinatorLeaseIngestMerge(t *testing.T) {
	var out bytes.Buffer
	c, err := New(Config{Specs: fleetSpecs(), Out: &out, Chunk: 5})
	if err != nil {
		t.Fatal(err)
	}
	if filled, total := c.Progress(); filled != 0 || total != 12 {
		t.Fatalf("fresh progress %d/%d, want 0/12", filled, total)
	}

	leases := drain(t, c)
	if leases != 3 { // ceil(12/5): chunking must bound each lease
		t.Errorf("run took %d leases, want 3", leases)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed after the last ingest")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	sf, err := harness.ReadShardFile(&out)
	if err != nil {
		t.Fatalf("coordinator output is not a shard stream: %v", err)
	}
	if got, want := sf.Manifest, harness.NewPointRunner(fleetSpecs()).Manifest(); got.GridPoints != want.GridPoints ||
		strings.Join(got.Experiments, ",") != strings.Join(want.Experiments, ",") {
		t.Fatalf("manifest %+v, want %+v", sf.Manifest, want)
	}
	specs := fleetSpecs()
	got := render(t, func(emit func(*harness.Table)) {
		if err := harness.MergeShards(specs, []*harness.ShardFile{sf}, false, emit); err != nil {
			t.Fatalf("merge: %v", err)
		}
	})
	want := render(t, func(emit func(*harness.Table)) {
		(&harness.LocalPool{Par: 1}).Execute(fleetSpecs(), emit)
	})
	if !bytes.Equal(got, want) {
		t.Fatal("fleet output diverged from the in-process run")
	}
}

// TestCoordinatorDuplicatesAndFirstWins: later copies of an accepted
// point are counted and discarded, never re-written to the stream —
// speculative re-execution must not corrupt the output.
func TestCoordinatorDuplicatesAndFirstWins(t *testing.T) {
	var out bytes.Buffer
	c, err := New(Config{Specs: fleetSpecs(), Out: &out, Chunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	lr := c.Lease("w1")
	recs := measure(t, lr.Points)
	if resp, err := c.Ingest(lr.Lease, recs); err != nil || resp.Accepted != len(recs) {
		t.Fatalf("first upload: %+v, %v", resp, err)
	}
	// The same records again — from the same lease, and from a lease the
	// coordinator never issued (an expired worker still uploading).
	for _, id := range []int{lr.Lease, 9999} {
		resp, err := c.Ingest(id, recs)
		if err != nil {
			t.Fatalf("duplicate upload via lease %d: %v", id, err)
		}
		if resp.Accepted != 0 || resp.Duplicates != len(recs) {
			t.Fatalf("duplicate upload via lease %d: %+v, want 0 accepted / %d duplicates", id, resp, len(recs))
		}
	}
	if filled, _ := c.Progress(); filled != len(recs) {
		t.Fatalf("progress %d after duplicate uploads, want %d", filled, len(recs))
	}

	// A tampered record is rejected without poisoning coordinator state.
	bad := recs[0]
	bad.Cells = append(bad.Cells, "extra")
	if _, err := c.Ingest(lr.Lease, []harness.PointRecord{bad}); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn upload accepted: %v", err)
	}
}

// TestCoordinatorLeaseExpiryReissues: a worker that goes silent past the
// TTL loses its lease and its unfilled points return to the queue for
// the next worker.
func TestCoordinatorLeaseExpiryReissues(t *testing.T) {
	var out bytes.Buffer
	c, err := New(Config{Specs: fleetSpecs(), Out: &out, Chunk: 64, LeaseTTL: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dead := c.Lease("doomed")
	if len(dead.Points) != 12 {
		t.Fatalf("first lease got %d points, want the whole grid", len(dead.Points))
	}
	time.Sleep(25 * time.Millisecond) // no uploads: the lease dies

	heir := c.Lease("survivor")
	if len(heir.Points) != 12 {
		t.Fatalf("after expiry the queue holds %d points, want all 12 re-issued", len(heir.Points))
	}
	if heir.Lease == dead.Lease {
		t.Fatal("expired lease re-issued under the same ID")
	}
}

// TestCoordinatorSpeculation: with the queue drained but a lease still
// outstanding and unexpired, an idle worker receives the straggler's
// points speculatively; whichever copy uploads first wins.
func TestCoordinatorSpeculation(t *testing.T) {
	var out bytes.Buffer
	c, err := New(Config{Specs: fleetSpecs(), Out: &out, Chunk: 64, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	straggler := c.Lease("straggler")
	spec := c.Lease("idle")
	if len(spec.Points) != len(straggler.Points) {
		t.Fatalf("speculative lease carries %d points, want the straggler's %d", len(spec.Points), len(straggler.Points))
	}
	// The speculative copy reports first and completes the run; the
	// straggler's late records are all duplicates.
	if _, err := c.Ingest(spec.Lease, measure(t, spec.Points)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("speculative uploads did not complete the run")
	}
	resp, err := c.Ingest(straggler.Lease, measure(t, straggler.Points))
	if err != nil || resp.Duplicates != len(straggler.Points) {
		t.Fatalf("straggler upload: %+v, %v", resp, err)
	}
	if lr := c.Lease("anyone"); !lr.Done {
		t.Fatal("post-completion lease not marked done")
	}
}

// TestFleetWorkersEndToEnd runs the real HTTP loop: a coordinator behind
// httptest, three Work loops with an injected registry, one killed
// mid-run via its context. The survivors absorb the dead worker's points
// (expiry + speculation) and the merged output still renders
// byte-identical to the in-process run.
func TestFleetWorkersEndToEnd(t *testing.T) {
	var out bytes.Buffer
	c, err := New(Config{Specs: fleetSpecs(), Out: &out, Chunk: 2, LeaseTTL: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resolve := func([]string) ([]*harness.Spec, error) { return fleetSpecs(), nil }
	ctx := context.Background()
	victimCtx, kill := context.WithCancel(ctx)
	errs := make(chan error, 3)
	for _, w := range []struct {
		name string
		ctx  context.Context
	}{{"w1", ctx}, {"w2", ctx}, {"victim", victimCtx}} {
		w := w
		go func() {
			errs <- Work(w.ctx, WorkerConfig{URL: srv.URL, Par: 2, Name: w.name, Resolve: resolve})
		}()
	}
	// Kill the victim once the run is demonstrably mid-flight.
	go func() {
		for {
			if filled, total := c.Progress(); filled > 0 && filled < total {
				kill()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("fleet never completed after the worker kill")
	}
	killed := 0
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, context.Canceled) {
				killed++
			} else if err != nil {
				t.Fatalf("worker failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("worker did not exit after completion")
		}
	}
	if killed > 1 {
		t.Fatalf("%d workers died, only the victim was cancelled", killed)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	sf, err := harness.ReadShardFile(&out)
	if err != nil {
		t.Fatalf("fleet output is not a shard stream: %v", err)
	}
	specs := fleetSpecs()
	got := render(t, func(emit func(*harness.Table)) {
		if err := harness.MergeShards(specs, []*harness.ShardFile{sf}, false, emit); err != nil {
			t.Fatalf("merge: %v", err)
		}
	})
	want := render(t, func(emit func(*harness.Table)) {
		(&harness.LocalPool{Par: 1}).Execute(fleetSpecs(), emit)
	})
	if !bytes.Equal(got, want) {
		t.Fatal("fleet output with a mid-run kill diverged from the in-process run")
	}
}

// TestWorkerRejectsForeignRun: a worker whose registry enumerates a
// different grid than the coordinator must refuse to work rather than
// upload records the coordinator would reject point by point.
func TestWorkerRejectsForeignRun(t *testing.T) {
	var out bytes.Buffer
	c, err := New(Config{Specs: fleetSpecs(), Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	smaller := func([]string) ([]*harness.Spec, error) {
		specs := fleetSpecs()
		specs[1].Axes = []harness.Axis{{Name: "j", Values: harness.Ints(10)}}
		return specs, nil
	}
	err = Work(context.Background(), WorkerConfig{URL: srv.URL, Resolve: smaller})
	if err == nil || !strings.Contains(err.Error(), "registry drift") {
		t.Fatalf("foreign worker error = %v, want registry drift", err)
	}
}
