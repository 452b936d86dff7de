// Sharded execution against the recorded goldens: splitting the full
// registry across shards and merging the point records must land on the
// exact bytes `aem bench` produces on one machine — the acceptance
// criterion behind `aem bench -shard` / `aem merge`.
package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
)

// TestShardMergeMatchesGolden runs every registered experiment as a
// 2-shard distributed run, merges the shard outputs, and compares both
// the rendered-table and JSON Lines forms byte-for-byte against the same
// goldens that pin the unsharded `aem bench` output. Any divergence means
// the merge path re-derives something differently from the single-machine
// path — exactly the class of bug a distributed harness must not have.
func TestShardMergeMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	specs := harness.All()
	const m = 2
	files := make([]*harness.ShardFile, m)
	for i := 0; i < m; i++ {
		var buf bytes.Buffer
		if err := harness.RunShard(specs, i, m, 8, &buf); err != nil {
			t.Fatalf("shard %d/%d: %v", i, m, err)
		}
		sf, err := harness.ReadShardFile(&buf)
		if err != nil {
			t.Fatalf("shard %d/%d parse: %v", i, m, err)
		}
		files[i] = sf
	}

	var text, jsonOut bytes.Buffer
	if err := harness.MergeShards(specs, files, false, func(tbl *harness.Table) {
		tbl.Render(&text)
		if err := tbl.JSON(&jsonOut); err != nil {
			t.Fatalf("JSON render: %v", err)
		}
	}); err != nil {
		t.Fatalf("merge: %v", err)
	}

	want, err := os.ReadFile(filepath.Join("testdata", "aembench.golden"))
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go test -run TestAembenchGolden -update`): %v", err)
	}
	if !bytes.Equal(text.Bytes(), want) {
		t.Errorf("merged 2-shard output diverged from the unsharded golden\n%s", diffHint(want, text.Bytes()))
	}
	wantJSON, err := os.ReadFile(filepath.Join("testdata", "aembench_json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonOut.Bytes(), wantJSON) {
		t.Errorf("merged 2-shard JSON diverged from the unsharded golden\n%s", diffHint(wantJSON, jsonOut.Bytes()))
	}
}
