package cli

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/aem"
)

// captureStderr runs fn with os.Stderr redirected and returns everything
// it wrote — the counterpart of captureStdout for error diagnostics and
// the gate's -json human table.
func captureStderr(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	defer func() {
		os.Stderr = old
		r.Close()
	}()
	fn()
	os.Stderr = old
	w.Close()
	return <-done
}

// TestEnginesCmdListsRegistry: `aem engines` prints every registered
// engine with its caps — the registry made visible.
func TestEnginesCmdListsRegistry(t *testing.T) {
	var code int
	out := string(captureStdout(t, func() { code = enginesCmd("aem engines", nil) }))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range aem.EngineNames() {
		if !strings.Contains(out, name) {
			t.Errorf("engine %q missing from listing:\n%s", name, out)
		}
	}
}

// TestDictUnknownEngineListsValidNames pins the collapsed switch: the
// dict command resolves -engine through the aem registry, so an unknown
// name produces the one canonical error, which names every valid engine.
func TestDictUnknownEngineListsValidNames(t *testing.T) {
	var code int
	msg := string(captureStderr(t, func() {
		code = dictCmd("aem dict", []string{"-ops", "10", "-engine", "flash-drive"})
	}))
	if code != 2 {
		t.Fatalf("unknown engine exit %d, want 2", code)
	}
	if !strings.Contains(msg, `"flash-drive"`) {
		t.Errorf("error does not name the bad engine:\n%s", msg)
	}
	for _, name := range aem.EngineNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list valid engine %q:\n%s", name, msg)
		}
	}
}

// TestDictRejectsDataFreeEngine: a value-dependent dictionary cannot run
// on an engine without a data plane; the caps flag, not the name, drives
// the rejection.
func TestDictRejectsDataFreeEngine(t *testing.T) {
	var code int
	msg := string(captureStderr(t, func() {
		code = dictCmd("aem dict", []string{"-ops", "10", "-engine", "counting"})
	}))
	if code != 2 {
		t.Fatalf("counting engine exit %d, want 2", code)
	}
	if !strings.Contains(msg, "data plane") {
		t.Errorf("rejection does not explain the missing capability:\n%s", msg)
	}
}

// TestDictRunsOnFileEngine: the dictionary drives end-to-end on
// file-backed external memory through the same flag.
func TestDictRunsOnFileEngine(t *testing.T) {
	t.Setenv(aem.FileDirEnv, t.TempDir())
	var code int
	out := string(captureStdout(t, func() {
		code = dictCmd("aem dict", []string{"-ops", "500", "-keyspace", "100", "-engine", "file"})
	}))
	if code != 0 {
		t.Fatalf("dict on file engine exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "file engine") || !strings.Contains(out, "buffertree") {
		t.Errorf("output does not show a file-backed run:\n%s", out)
	}
	entries, err := os.ReadDir(os.Getenv(aem.FileDirEnv))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d backing files leaked after the run", len(entries))
	}
}

// TestDictloadRejectsEmptyLoad: a load of no operations has no per-op
// figures to report, so -ops below 1 is a usage error, like -gor.
func TestDictloadRejectsEmptyLoad(t *testing.T) {
	for _, ops := range []string{"0", "-5"} {
		var code int
		msg := string(captureStderr(t, func() {
			code = dictloadCmd("aem dictload", []string{"-ops", ops, "-json"})
		}))
		if code != 2 || !strings.Contains(msg, "-ops") {
			t.Errorf("-ops %s: exit %d, want 2 naming -ops; stderr:\n%s", ops, code, msg)
		}
	}
}
