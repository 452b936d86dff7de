package workload

import "strings"

// Name-based lookups over the generator registries, for CLI flags and
// declarative spec axes: the key distributions and dictionary scenarios
// are resolvable from their table/flag names.

// DistByName resolves a key distribution from its name (as printed by
// String), case-insensitively.
func DistByName(name string) (KeyDist, bool) {
	for _, d := range Dists() {
		if d.String() == strings.ToLower(name) {
			return d, true
		}
	}
	return 0, false
}

// ScenarioByName resolves a dictionary op-stream scenario from its name,
// case-insensitively.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.String() == strings.ToLower(name) {
			return s, true
		}
	}
	return 0, false
}
