package cli

import (
	"fmt"

	"repro/internal/aem"
)

// enginesCmd prints the storage-engine registry: every name any -engine
// flag or backend axis accepts, with its capability flags. This is the
// registry made visible — the same table every layer resolves through.
//
//	aem engines
func enginesCmd(prog string, args []string) int {
	if len(args) > 0 {
		fail(prog, "takes no arguments")
		return 2
	}
	fmt.Printf("%-12s %-10s %s\n", "engine", "caps", "summary")
	for _, e := range aem.Engines() {
		caps := ""
		if e.Caps.RetainsData {
			caps += "data "
		}
		if e.Caps.Persistent {
			caps += "file "
		}
		if caps == "" {
			caps = "-"
		}
		fmt.Printf("%-12s %-10s %s\n", e.Name, caps, e.Summary)
	}
	return 0
}
