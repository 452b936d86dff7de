package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestWriteCSVAtomic: the CSV lands complete under its final name with no
// temp residue — the partial-file hazard fix for `aem bench -csv`.
func TestWriteCSVAtomic(t *testing.T) {
	dir := t.TempDir()
	tbl := &harness.Table{ID: "EXP-T1", Columns: []string{"a", "b"}}
	tbl.AddRow(1, 2)
	if err := writeCSVAtomic(dir, tbl); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "exp_t1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "a,b\n1,2\n"; string(got) != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want only the final CSV", len(entries))
	}

	// Failure path: an unwritable directory must error without leaving a
	// truncated final file behind.
	bad := filepath.Join(dir, "missing", "deeper")
	if err := writeCSVAtomic(bad, tbl); err == nil {
		t.Error("writeCSVAtomic into a missing directory succeeded")
	}
}

// TestWriteCSVAtomicCleansUpOnRenameFailure: when the final rename fails
// (here: the target name is occupied by a directory), the temp file must
// be removed — failures never strand *.tmp files in the output directory.
func TestWriteCSVAtomicCleansUpOnRenameFailure(t *testing.T) {
	dir := t.TempDir()
	tbl := &harness.Table{ID: "EXP-T1", Columns: []string{"a"}}
	tbl.AddRow(1)
	if err := os.Mkdir(filepath.Join(dir, "exp_t1.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeCSVAtomic(dir, tbl); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s stranded after a rename failure", e.Name())
		}
	}
}

// TestBenchCmdWarnsOnDuplicateExp: a duplicated id in -exp still runs
// (deduplicated) rather than emitting a table twice; the warning path is
// pinned at the harness layer (TestSelect).
func TestBenchCmdWarnsOnDuplicateExp(t *testing.T) {
	out := captureStdout(t, func() {
		if code := benchCmd("aem bench", []string{"-exp", "EXP-B1,EXP-B1"}); code != 0 {
			t.Errorf("exit code %d", code)
		}
	})
	if n := strings.Count(string(out), "EXP-B1 —"); n != 1 {
		t.Fatalf("duplicated -exp id rendered %d tables, want 1\n%s", n, out)
	}
}

// TestBenchCmdUnknownExperiment: a bad -exp selection diagnoses every
// unknown id and exits 2 without running anything.
func TestBenchCmdUnknownExperiment(t *testing.T) {
	if code := benchCmd("aem bench", []string{"-exp", "EXP-D1,EXP-NOPE"}); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestBenchCmdWritesProfiles: -cpuprofile/-memprofile must leave
// non-empty pprof files behind — the recorded starting point for future
// hot-path work.
func TestBenchCmdWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	captureStdout(t, func() {
		if code := benchCmd("aem bench", []string{"-exp", "EXP-B1", "-cpuprofile", cpu, "-memprofile", mem}); code != 0 {
			t.Errorf("exit code %d", code)
		}
	})
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestDeprecatedWrappersCoverEverySubcommand: every subcommand the retired
// standalone binaries (aembench, aemdict, …) used to run is still
// registered, and Main dispatches known and unknown names correctly.
func TestDeprecatedWrappersCoverEverySubcommand(t *testing.T) {
	for _, sub := range []string{"bench", "dict", "sort", "spmxv", "trace"} {
		found := false
		for _, c := range Commands() {
			if c.Name == sub {
				found = true
			}
		}
		if !found {
			t.Errorf("subcommand %s missing from the registry", sub)
		}
	}
	if n := len(Commands()); n != 11 {
		t.Errorf("%d subcommands registered, want 11", n)
	}
	for _, retired := range []string{"stallgate", "profdiff"} {
		if code := Main([]string{retired}); code != 2 {
			t.Errorf("retired %s exit = %d, want 2 (unknown command)", retired, code)
		}
	}
	if code := Main([]string{"definitely-not-a-command"}); code != 2 {
		t.Errorf("unknown command exit = %d, want 2", code)
	}
	if code := Main([]string{"help"}); code != 0 {
		t.Errorf("help exit = %d, want 0", code)
	}
}
