package harness

import "testing"

// TestDictExperimentAcceptance holds the EXP-D1 and EXP-D2 tables the
// registry renders to their claims: every measured/predicted cell, reads
// and writes of both dictionaries, lies in [0.5, 2]; and in each EXP-D1
// scenario the buffer tree's cost/op grows sublinearly in ω while the
// unbatched B-tree's grows ~linearly, so the gap between them widens.
func TestDictExperimentAcceptance(t *testing.T) {
	d1 := registryTable(t, "EXP-D1")
	checkBands(t, d1)
	checkBands(t, registryTable(t, "EXP-D2"))
	omega := floats(t, column(t, d1, "omega"))
	bt, base := floats(t, column(t, d1, "bt cost/op")), floats(t, column(t, d1, "btree cost/op"))
	byScenario(t, d1, func(sc string, lo, hi int) {
		checkCostGrowth(t, sc, omega[lo:hi], bt[lo:hi], base[lo:hi])
	})
}
