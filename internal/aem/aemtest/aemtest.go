// Package aemtest provides the machines that algorithm-level tests
// compare across storage engines.
package aemtest

import (
	"testing"

	"repro/internal/aem"
)

// BufferedEngines returns, in registry order, every engine that stores
// blocks unaligned (BlockAlign 0): all but the O_DIRECT engine, whose
// slow transfers add nothing to algorithm-level suites (the aem
// conformance tests cover it). The slice engine comes first, so callers
// can take it as the reference.
func BufferedEngines() []aem.Engine {
	var out []aem.Engine
	for _, e := range aem.Engines() {
		if e.Caps.BlockAlign == 0 {
			out = append(out, e)
		}
	}
	return out
}

// DataEngines returns the BufferedEngines that can serve a program whose
// I/O schedule branches on block contents (RetainsData).
func DataEngines() []aem.Engine {
	var out []aem.Engine
	for _, e := range BufferedEngines() {
		if e.Caps.RetainsData {
			out = append(out, e)
		}
	}
	return out
}

// Machine returns a fresh machine for cfg on engine e and closes it when
// t ends, so a file engine leaves no backing file behind.
func Machine(t testing.TB, cfg aem.Config, e aem.Engine) *aem.Machine {
	t.Helper()
	st, err := e.New(cfg.B)
	if err != nil {
		t.Fatalf("%s engine: %v", e.Name, err)
	}
	ma := aem.NewWithStorage(cfg, st)
	t.Cleanup(func() { ma.Close() })
	return ma
}
