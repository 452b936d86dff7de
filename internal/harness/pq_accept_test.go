package harness

import (
	"testing"

	"repro/internal/workload"
)

// TestPQExperimentAcceptance holds the EXP-Q1 table the registry renders
// to its claims: every measured/predicted cell lies in [0.5, 2], the
// ω-adaptive buffered queue's cost grows sublinearly in ω while the
// ω-oblivious sequence heap's grows ~linearly, and the gap widens.
func TestPQExperimentAcceptance(t *testing.T) {
	tbl := registryTable(t, "EXP-Q1")
	checkBands(t, tbl)
	omega := floats(t, column(t, tbl, "omega"))
	ad, seq := floats(t, column(t, tbl, "ad cost/op")), floats(t, column(t, tbl, "seq cost/op"))
	folds, writes := floats(t, column(t, tbl, "folds")), floats(t, column(t, tbl, "ad w/op"))
	byScenario(t, tbl, func(sc string, lo, hi int) {
		checkCostGrowth(t, sc, omega[lo:hi], ad[lo:hi], seq[lo:hi])
		// On monotone traffic no below-watermark churn pins the fold
		// floor, so the ω-adaptivity must show in full: folds and write
		// volume fall hard as ω grows. A regression to ω-oblivious
		// folding (constant folds/writes across ω) fails here even if the
		// loose growth bounds still pass.
		if sc != workload.MonotonePQ.String() {
			return
		}
		if folds[hi-1]*4 > folds[lo] {
			t.Errorf("monotone: folds fell only %.0f → %.0f over the ω span — rent policy not ω-adaptive", folds[lo], folds[hi-1])
		}
		if writes[hi-1]*2 > writes[lo] {
			t.Errorf("monotone: writes/op fell only %.4f → %.4f over the ω span", writes[lo], writes[hi-1])
		}
	})
}
