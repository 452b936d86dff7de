package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
)

// shardSpecs builds a small multi-spec registry exercising everything the
// wire format must carry: a multi-axis grid with a dynamic axis, Skip,
// predicted-bound columns and a derived column over the finished grid; a
// second plain spec; and optionally a panic-injecting spec plus a spec
// behind it (whose emission must be suppressed identically on both
// paths).
func shardSpecs(withPanic bool) []*Spec {
	grid := &Spec{
		ID:    "GRID",
		Title: "synthetic multi-axis grid",
		Axes: []Axis{
			{Name: "a", Values: Ints(1, 2, 3)},
			{Name: "b", Values: Ints(10, 20, 30, 40)},
			{Name: "c", Dyn: func(outer Point) []interface{} { return Ints(0, outer.Int("a")) }},
		},
		Skip: func(p Point) bool { return p.Int("b") == 30 && p.Int("c") == 0 },
		Columns: append(Cols("a", "b", "c", "sum"),
			Column{Name: "ratio", Pred: func(p Point) float64 { return float64(p.Int("b")) }}),
		Derived: []DerivedColumn{
			{Name: "vs first", From: func(rows []Row, i int) interface{} {
				return toFloat(rows[i][3]) / toFloat(rows[0][3])
			}},
		},
		Point: func(p Point) Row {
			s := p.Int("a") + p.Int("b") + p.Int("c")
			return Row{p.Int("a"), p.Int("b"), p.Int("c"), s, s}
		},
	}
	labels := &Spec{
		ID:      "LABELS",
		Title:   "strings and floats survive the round-trip",
		Axes:    []Axis{{Name: "s", Values: Vals("x", "y,z", `q"r`)}},
		Columns: Cols("s", "third"),
		Point: func(p Point) Row {
			return Row{p.Str("s"), 1.0 / 3.0}
		},
	}
	specs := []*Spec{grid, labels}
	if withPanic {
		bomb := &Spec{
			ID:      "BOMB",
			Axes:    []Axis{{Name: "i", Values: Ints(0, 1, 2, 3, 4, 5)}},
			Columns: Cols("i"),
			Point: func(p Point) Row {
				if p.Int("i") >= 3 {
					panic(fmt.Sprintf("injected at %d", p.Int("i")))
				}
				return Row{p.Int("i")}
			},
		}
		specs = append(specs, bomb, sleepSpec("AFTER", 0, nil))
	}
	return specs
}

// renderForms captures every output form `aem bench` produces — rendered
// text, JSON row records, CSV — plus the aggregated failure panic, from
// whichever table-producing execution path.
func renderForms(t *testing.T, run func(emit func(*Table))) (text, jsonOut, csv []byte, failure string) {
	t.Helper()
	var tb, jb, cb bytes.Buffer
	func() {
		defer func() {
			if r := recover(); r != nil {
				failure = fmt.Sprint(r)
			}
		}()
		run(func(tbl *Table) {
			tbl.Render(&tb)
			if err := tbl.JSON(&jb); err != nil {
				t.Fatalf("JSON render: %v", err)
			}
			tbl.CSV(&cb)
		})
	}()
	return tb.Bytes(), jb.Bytes(), cb.Bytes(), failure
}

// shardAndMerge executes the specs as m shards at the given parallelism
// and merges the parsed shard files back into tables.
func shardAndMerge(t *testing.T, specs []*Spec, m, par int, timing bool) (text, jsonOut, csv []byte, failure string) {
	t.Helper()
	files := make([]*ShardFile, m)
	for i := 0; i < m; i++ {
		var buf bytes.Buffer
		err := RunShard(specs, i, m, par, &buf)
		if err != nil && !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("shard %d/%d: %v", i, m, err)
		}
		sf, perr := ReadShardFile(&buf)
		if perr != nil {
			t.Fatalf("shard %d/%d parse: %v", i, m, perr)
		}
		files[i] = sf
	}
	return renderForms(t, func(emit func(*Table)) {
		if err := MergeShards(specs, files, timing, emit); err != nil {
			t.Fatalf("merge: %v", err)
		}
	})
}

// TestShardMergeByteIdentity is the distributed path's property test: for
// random shard counts m ∈ {1..5} and random parallelism, merging the m
// shard outputs must reproduce the unsharded run byte-for-byte in every
// output form — rendered tables, JSON row records and CSV — including
// with a panic-injecting spec in the mix, where the emitted prefix and
// the aggregated failure IDs must survive the shard/merge round-trip
// unchanged.
func TestShardMergeByteIdentity(t *testing.T) {
	for _, withPanic := range []bool{false, true} {
		specs := shardSpecs(withPanic)
		wantText, wantJSON, wantCSV, wantFail := renderForms(t, func(emit func(*Table)) {
			(&LocalPool{Par: 1}).Execute(specs, emit)
		})
		if withPanic == (wantFail == "") {
			t.Fatalf("withPanic=%v but failure=%q", withPanic, wantFail)
		}
		r := rng.New(20170724)
		for trial := 0; trial < 10; trial++ {
			m := 1 + int(r.Intn(5))
			par := 1 + int(r.Intn(8))
			text, jsonOut, csv, fail := shardAndMerge(t, shardSpecs(withPanic), m, par, false)
			if !bytes.Equal(text, wantText) {
				t.Fatalf("withPanic=%v m=%d par=%d: rendered text differs from the unsharded run", withPanic, m, par)
			}
			if !bytes.Equal(jsonOut, wantJSON) {
				t.Fatalf("withPanic=%v m=%d par=%d: JSON records differ from the unsharded run", withPanic, m, par)
			}
			if !bytes.Equal(csv, wantCSV) {
				t.Fatalf("withPanic=%v m=%d par=%d: CSV differs from the unsharded run", withPanic, m, par)
			}
			if fail != wantFail {
				t.Fatalf("withPanic=%v m=%d par=%d: failure %q != unsharded failure %q", withPanic, m, par, fail, wantFail)
			}
		}
	}
}

// TestShardMergeFailureNamesEveryExperiment: the aggregated failure IDs
// of a multi-failure run survive the shard/merge round-trip.
func TestShardMergeFailureNamesEveryExperiment(t *testing.T) {
	specs := []*Spec{
		sleepSpec("OK-1", 0, nil),
		{ID: "BOOM-1", Columns: Cols("x"), Point: func(Point) Row { panic("first failure") }},
		{ID: "BOOM-2", Columns: Cols("x"), Point: func(Point) Row { panic("second failure") }},
	}
	_, _, _, fail := shardAndMerge(t, specs, 2, 2, false)
	for _, want := range []string{"BOOM-1", "first failure", "BOOM-2", "second failure"} {
		if !strings.Contains(fail, want) {
			t.Errorf("merged failure %q is missing %q", fail, want)
		}
	}
}

// TestShardMergeEnumerationPanic: a grid-enumeration panic (spec-authored
// Dyn/Skip code) reproduces at merge time with the same experiment ID and
// message as the unsharded run, with no record needed on the wire.
func TestShardMergeEnumerationPanic(t *testing.T) {
	mk := func() []*Spec {
		return []*Spec{
			sleepSpec("OK-1", 0, nil),
			{
				ID:      "BAD-GRID",
				Axes:    []Axis{{Name: "x", Dyn: func(Point) []interface{} { panic("axis exploded") }}},
				Columns: Cols("x"),
				Point:   func(p Point) Row { return Row{p.Int("x")} },
			},
		}
	}
	_, _, _, wantFail := renderForms(t, func(emit func(*Table)) {
		(&LocalPool{Par: 1}).Execute(mk(), emit)
	})
	_, _, _, fail := shardAndMerge(t, mk(), 3, 2, false)
	if fail != wantFail || !strings.Contains(fail, "BAD-GRID") || !strings.Contains(fail, "axis exploded") {
		t.Fatalf("merged enumeration failure %q, want %q", fail, wantFail)
	}
}

// shardStream runs static shard i of m and returns the raw stream.
func shardStream(t *testing.T, specs []*Spec, i, m int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := RunShard(specs, i, m, 2, &buf); err != nil {
		t.Fatalf("shard %d/%d: %v", i, m, err)
	}
	return buf.Bytes()
}

// shardFiles runs the specs as m shards and returns the parsed files.
func shardFiles(t *testing.T, specs []*Spec, m int) []*ShardFile {
	t.Helper()
	files := make([]*ShardFile, m)
	for i := 0; i < m; i++ {
		sf, err := ReadShardFile(bytes.NewReader(shardStream(t, specs, i, m)))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = sf
	}
	return files
}

// expectIncomplete asserts MergeShards reports exactly the want points
// missing, in global grid order, and returns the error.
func expectIncomplete(t *testing.T, specs []*Spec, files []*ShardFile, want []GridRef) *IncompleteError {
	t.Helper()
	err := MergeShards(specs, files, false, func(*Table) {})
	var inc *IncompleteError
	if !errors.As(err, &inc) {
		t.Fatalf("MergeShards error = %v, want *IncompleteError", err)
	}
	if fmt.Sprint(inc.Missing) != fmt.Sprint(want) {
		t.Fatalf("Missing = %v, want exactly %v", inc.Missing, want)
	}
	return inc
}

// expectUnshardedOutput asserts that merging the files renders exactly
// what an unsharded run of the specs renders, in every output form.
func expectUnshardedOutput(t *testing.T, specs []*Spec, files []*ShardFile) {
	t.Helper()
	wantText, wantJSON, wantCSV, wantFail := renderForms(t, func(emit func(*Table)) {
		(&LocalPool{Par: 1}).Execute(specs, emit)
	})
	text, jsonOut, csv, fail := renderForms(t, func(emit func(*Table)) {
		if err := MergeShards(specs, files, false, emit); err != nil {
			t.Fatalf("merge: %v", err)
		}
	})
	if fail != wantFail {
		t.Fatalf("merged failure %q != unsharded failure %q", fail, wantFail)
	}
	if !bytes.Equal(text, wantText) || !bytes.Equal(jsonOut, wantJSON) || !bytes.Equal(csv, wantCSV) {
		t.Fatal("merged output diverged from the unsharded run")
	}
}

// expectMergeError asserts MergeShards rejects the shard set with an
// error mentioning want.
func expectMergeError(t *testing.T, specs []*Spec, files []*ShardFile, want string) {
	t.Helper()
	err := MergeShards(specs, files, false, func(*Table) {})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("MergeShards error = %v, want mention of %q", err, want)
	}
}

// TestMergeShardValidation: torn, incomplete, duplicated, overlapping and
// foreign shard sets are rejected with specific diagnostics instead of
// producing a silently wrong table. Merge checks points, not partition
// shapes: a lost shard is an incomplete set naming exactly its points,
// and a repeated or overlapping shard is a duplicated point.
func TestMergeShardValidation(t *testing.T) {
	specs := shardSpecs(false)

	t.Run("missing shard", func(t *testing.T) {
		files := shardFiles(t, specs, 3)
		expectIncomplete(t, specs, files[:2], NewPointRunner(specs).ShardRefs(2, 3))
	})
	t.Run("duplicate shard", func(t *testing.T) {
		files := shardFiles(t, specs, 2)
		expectMergeError(t, specs, []*ShardFile{files[0], files[0]}, "duplicated point")
	})
	t.Run("overlapping partitions", func(t *testing.T) {
		two := shardFiles(t, specs, 2)
		three := shardFiles(t, specs, 3)
		expectMergeError(t, specs, []*ShardFile{two[0], three[1]}, "duplicated point")
	})
	t.Run("missing point", func(t *testing.T) {
		files := shardFiles(t, specs, 2)
		files[1].Records = files[1].Records[:len(files[1].Records)-1]
		expectMergeError(t, specs, files, "missing")
	})
	t.Run("duplicated point", func(t *testing.T) {
		files := shardFiles(t, specs, 2)
		files[0].Records = append(files[0].Records, files[0].Records[0])
		expectMergeError(t, specs, files, "duplicated point")
	})
	t.Run("point in the wrong shard", func(t *testing.T) {
		// Every point still appears exactly once, so the set is whole:
		// which file carries a record does not matter.
		files := shardFiles(t, specs, 2)
		stolen := files[0].Records[0]
		files[1].Records = append(files[1].Records, stolen)
		files[0].Records = files[0].Records[1:]
		expectUnshardedOutput(t, specs, files)
	})
	t.Run("selection mismatch", func(t *testing.T) {
		files := shardFiles(t, specs, 2)
		expectMergeError(t, specs[:1], files, "specs")
	})
	t.Run("torn record cells", func(t *testing.T) {
		files := shardFiles(t, specs, 2)
		files[0].Records[0].Cells = append(files[0].Records[0].Cells, "extra")
		expectMergeError(t, specs, files, "torn record")
	})
	t.Run("torn record row", func(t *testing.T) {
		files := shardFiles(t, specs, 2)
		files[1].Records[0].Row = files[1].Records[0].Row[:1]
		expectMergeError(t, specs, files, "torn record")
	})
	t.Run("registry drift", func(t *testing.T) {
		files := shardFiles(t, specs, 2)
		files[0].Manifest.GridPoints++
		files[1].Manifest.GridPoints++
		expectMergeError(t, specs, files, "different grid")
	})
	t.Run("no files", func(t *testing.T) {
		expectMergeError(t, specs, nil, "no shard files")
	})
}

// TestReadShardFileRejectsGarbage: torn or foreign inputs fail parsing
// with line-level diagnostics.
func TestReadShardFileRejectsGarbage(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"empty", "", "no manifest"},
		{"not json", "hello\n", "shard line 1"},
		{"point before manifest", `{"type":"point","experiment":"X","index":0,"points":1}` + "\n", "before the shard manifest"},
		{"unknown type", `{"type":"shard","shard":0,"of":1,"experiments":["X"],"grid_points":1}` + "\n" + `{"type":"mystery"}` + "\n", "unknown record type"},
		{"second manifest", `{"type":"shard","shard":0,"of":1,"experiments":["X"],"grid_points":1}` + "\n" + `{"type":"shard","shard":0,"of":1,"experiments":["X"],"grid_points":1}` + "\n", "second manifest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadShardFile(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadShardFile error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestShardExecutorPartition: a static shard's refs are the round-robin
// slice of the global point list — every point appears in exactly one
// shard, consecutive global points land on consecutive shards — and the
// shard's stream carries exactly those points.
func TestShardExecutorPartition(t *testing.T) {
	specs := shardSpecs(false)
	const m = 3
	files := shardFiles(t, specs, m)
	// Reconstruct each spec's global index base from the specs themselves.
	base := map[string]int{}
	total := 0
	for _, s := range specs {
		base[s.ID] = total
		total += len(s.Points())
	}
	r := NewPointRunner(specs)
	seen := make(map[int]int) // global index -> shard
	for i, f := range files {
		if f.Manifest.GridPoints != total {
			t.Fatalf("manifest grid_points = %d, want %d", f.Manifest.GridPoints, total)
		}
		refs := r.ShardRefs(i, m)
		for _, ref := range refs {
			g := base[ref.Experiment] + ref.Index
			if prev, dup := seen[g]; dup {
				t.Fatalf("global point %d in shards %d and %d", g, prev, i)
			}
			seen[g] = i
			if want := g % m; i != want {
				t.Fatalf("global point %d landed on shard %d, want %d (round-robin)", g, i, want)
			}
		}
		streamed := map[GridRef]bool{}
		for _, rec := range f.Records {
			streamed[GridRef{Experiment: rec.Experiment, Index: rec.Index}] = true
		}
		if len(streamed) != len(refs) || len(f.Records) != len(refs) {
			t.Fatalf("shard %d streamed %d records for %d refs", i, len(f.Records), len(refs))
		}
		for _, ref := range refs {
			if !streamed[ref] {
				t.Fatalf("shard %d did not stream its point %v", i, ref)
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("shards cover %d of %d global points", len(seen), total)
	}
}

// TestLocalPoolTiming: with Timing set, every emitted table carries one
// wall-clock entry per row, rendered as a trailing "wall ms" column and a
// wall_ns JSON field — and with Timing unset nothing changes, which is
// what keeps the recorded goldens stable.
func TestLocalPoolTiming(t *testing.T) {
	specs := shardSpecs(false)
	var timed, plain []*Table
	(&LocalPool{Par: 4, Timing: true}).Execute(specs, func(tbl *Table) { timed = append(timed, tbl) })
	(&LocalPool{Par: 4}).Execute(shardSpecs(false), func(tbl *Table) { plain = append(plain, tbl) })

	for i, tbl := range timed {
		if len(tbl.WallNS) != len(tbl.Rows) {
			t.Fatalf("%s: %d wall-clock entries for %d rows", tbl.ID, len(tbl.WallNS), len(tbl.Rows))
		}
		var text bytes.Buffer
		tbl.Render(&text)
		if !strings.Contains(text.String(), "wall ms") {
			t.Errorf("%s: timed rendering lacks the wall ms column", tbl.ID)
		}
		var jb bytes.Buffer
		if err := tbl.JSON(&jb); err != nil {
			t.Fatal(err)
		}
		var rec struct {
			WallNS *int64 `json:"wall_ns"`
		}
		if err := json.Unmarshal([]byte(strings.SplitN(jb.String(), "\n", 2)[0]), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.WallNS == nil {
			t.Errorf("%s: timed JSON record lacks wall_ns", tbl.ID)
		}

		if plain[i].WallNS != nil {
			t.Fatalf("%s: timing attached without Timing", plain[i].ID)
		}
		var ptext bytes.Buffer
		plain[i].Render(&ptext)
		if strings.Contains(ptext.String(), "wall ms") {
			t.Errorf("%s: untimed rendering grew a wall ms column", plain[i].ID)
		}
	}
}

// TestMergeTiming: the shards' per-point wall-clock reaches merged tables
// when (and only when) asked for.
func TestMergeTiming(t *testing.T) {
	specs := shardSpecs(false)
	files := shardFiles(t, specs, 2)
	var timed []*Table
	if err := MergeShards(specs, files, true, func(tbl *Table) { timed = append(timed, tbl) }); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range timed {
		if len(tbl.WallNS) != len(tbl.Rows) {
			t.Fatalf("%s: %d wall-clock entries for %d rows", tbl.ID, len(tbl.WallNS), len(tbl.Rows))
		}
	}
	var plain []*Table
	if err := MergeShards(specs, files, false, func(tbl *Table) { plain = append(plain, tbl) }); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range plain {
		if tbl.WallNS != nil {
			t.Fatalf("%s: timing attached without asking", tbl.ID)
		}
	}
}
