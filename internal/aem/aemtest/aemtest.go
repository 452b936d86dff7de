// Package aemtest provides the machines that algorithm-level tests
// compare across storage engines.
package aemtest

import (
	"testing"

	"repro/internal/aem"
)

// DataEngines returns, in registry order, every engine that can serve a
// program whose I/O schedule branches on block contents (RetainsData).
// The slice engine comes first, so callers can take it as the reference.
func DataEngines() []aem.Engine {
	var out []aem.Engine
	for _, e := range aem.Engines() {
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
