package cli

import (
	"strings"
	"testing"
)

// TestBadFlagValuesExitTwo: flag values an algorithm cannot run with are
// usage errors, reported in one line before any work starts, never a
// panic from deep inside the algorithm.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range []string{
		"dict -keyspace 1",
		"dict -ops -1",
		"dictload -keyspace 1 -shards 1 -ops 10",
		"dict -m 32 -b 8",
		"dictload -ops 10 -m 32 -b 8",
		"dictload -ops 10 -shards 11 -keyspace 1000",
		"sort -m 16 -b 8",
		"sort -n -1",
		"trace -alg aem -m 32 -b 8",
		"trace -alg heap -n 100 -m 64 -b 8",
		"trace -alg spmxv-sort -n 0",
		"spmxv -m 16 -b 8",
	} {
		t.Run(args, func(t *testing.T) {
			argv := strings.Fields(args)
			var code int
			var stdout []byte
			stderr := string(captureStderr(t, func() {
				stdout = captureStdout(t, func() { code = Main(argv) })
			}))
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if len(stdout) != 0 {
				t.Errorf("printed output before rejecting the flags:\n%s", stdout)
			}
			prefix := "aem " + argv[0] + ": "
			if !strings.HasPrefix(stderr, prefix) || strings.Count(stderr, "\n") != 1 {
				t.Errorf("stderr %q, want one line starting %q", stderr, prefix)
			}
		})
	}
}
